// The benchmark's loopback HTTP origin.
//
// One thread, poll-based, HTTP/1.1 keep-alive (HTTP/1.0 requests close
// after the reply), Content-Length replies served from memory. Every reply
// is held for a fixed delay on a timer before it is written, standing in for
// network and server time at a real origin. The origin counts GET and HEAD
// requests and the peak number of requests in flight (parsed but not yet
// answered).
//
// It shares no code with the repo's net/ serving layer, so a change to that
// layer cannot move the measuring apparatus.
#ifndef PERFBENCH_ORIGIN_H_
#define PERFBENCH_ORIGIN_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>

namespace perfbench {

struct OriginResource {
  int status = 200;
  std::string content_type = "text/html";
  std::string body;
  std::string location;  // Redirects only.
};

struct OriginCounters {
  std::uint64_t gets = 0;
  std::uint64_t heads = 0;
  std::uint64_t max_inflight = 0;
  std::uint64_t max_connections = 0;
  std::uint64_t watched_hits = 0;  // Requests for a path in the watch set.
};

class Origin {
 public:
  explicit Origin(std::uint64_t delay_us) : delay_us_(delay_us) {}
  ~Origin();

  Origin(const Origin&) = delete;
  Origin& operator=(const Origin&) = delete;

  // Binds 127.0.0.1 on an ephemeral port; returns the port, or -1.
  int Listen();
  int port() const { return port_; }

  // Installs the content (keyed by path, e.g. "/index.html") and starts the
  // serving thread. `watched` paths are counted in watched_hits; the crawl
  // checks use it to prove orphan and robots-private pages are never fetched.
  void Serve(std::map<std::string, OriginResource> resources, std::set<std::string> watched = {});

  // Stops the serving thread and closes every socket.
  void Stop();

  OriginCounters counters() const;
  void ResetCounters();

 private:
  void Loop();

  const std::uint64_t delay_us_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = -1;
  std::map<std::string, OriginResource> resources_;
  std::set<std::string> watched_;
  std::atomic<std::uint64_t> gets_{0};
  std::atomic<std::uint64_t> heads_{0};
  std::atomic<std::uint64_t> max_inflight_{0};
  std::atomic<std::uint64_t> max_connections_{0};
  std::atomic<std::uint64_t> watched_hits_{0};
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORIGIN_H_
