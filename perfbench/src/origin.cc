#include "origin.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <string_view>
#include <vector>

namespace perfbench {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetNonBlocking(int fd) { fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK); }

const char* Reason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 301:
      return "Moved Permanently";
    case 302:
      return "Found";
    case 404:
      return "Not Found";
    default:
      return "Status";
  }
}

bool HeaderIs(std::string_view head, std::string_view name, std::string_view value) {
  // Case-insensitive search for "name: value" on any header line.
  const auto lower = [](std::string_view s) {
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return out;
  };
  const std::string haystack = lower(head);
  const std::string needle = lower(std::string(name) + ":");
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    if (at != 0 && haystack[at - 1] != '\n') {
      continue;
    }
    std::size_t v = at + needle.size();
    while (v < haystack.size() && haystack[v] == ' ') {
      ++v;
    }
    if (haystack.compare(v, value.size(), lower(value)) == 0) {
      return true;
    }
  }
  return false;
}

struct Request {
  std::string method;
  std::string path;
  bool close = false;
};

// Parses one request head at the front of `in`. Returns the bytes it
// occupies (head plus any Content-Length body), or 0 while incomplete.
std::size_t ParseRequest(const std::string& in, Request* request) {
  const std::size_t end = in.find("\r\n\r\n");
  if (end == std::string::npos) {
    return 0;
  }
  const std::string_view head(in.data(), end + 2);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view line = head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 <= sp1) {
    request->method = "BAD";
    request->close = true;
    return end + 4;
  }
  request->method = std::string(line.substr(0, sp1));
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (const std::size_t q = target.find('?'); q != std::string_view::npos) {
    target = target.substr(0, q);
  }
  if (target.starts_with("http://")) {  // Absolute-form target.
    const std::size_t slash = target.find('/', 7);
    target = slash == std::string_view::npos ? std::string_view("/") : target.substr(slash);
  }
  request->path = std::string(target);
  const std::string_view version = line.substr(sp2 + 1);
  request->close = version == "HTTP/1.0" ? !HeaderIs(head, "connection", "keep-alive")
                                         : HeaderIs(head, "connection", "close");
  std::size_t body = 0;
  const std::string lower_head = [&] {
    std::string out(head);
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return out;
  }();
  if (const std::size_t at = lower_head.find("\ncontent-length:"); at != std::string::npos) {
    body = std::strtoull(lower_head.c_str() + at + 16, nullptr, 10);
  }
  if (in.size() < end + 4 + body) {
    return 0;
  }
  return end + 4 + body;
}

std::string BuildReply(const OriginResource& resource, bool head_only, bool close) {
  std::string out = "HTTP/1.1 " + std::to_string(resource.status) + " " +
                    Reason(resource.status) + "\r\n";
  out += "Content-Type: " + resource.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resource.body.size()) + "\r\n";
  if (!resource.location.empty()) {
    out += "Location: " + resource.location + "\r\n";
  }
  if (close) {
    out += "Connection: close\r\n";
  }
  out += "\r\n";
  if (!head_only) {
    out += resource.body;
  }
  return out;
}

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  std::size_t out_off = 0;
  bool waiting = false;      // A reply is held on the timer.
  bool close_after = false;  // Close once `out` drains.
  bool counted = false;      // `out` answers a counted (in-flight) request.
  bool dead = false;
};

struct Held {
  std::int64_t due_ns = 0;
  Conn* conn = nullptr;
  std::string reply;
  bool close_after = false;
};

}  // namespace

Origin::~Origin() { Stop(); }

int Origin::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return -1;
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 1024) != 0) {
    return -1;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  SetNonBlocking(listen_fd_);
  if (pipe(wake_pipe_) != 0) {
    return -1;
  }
  port_ = ntohs(addr.sin_port);
  return port_;
}

void Origin::Serve(std::map<std::string, OriginResource> resources,
                   std::set<std::string> watched) {
  resources_ = std::move(resources);
  watched_ = std::move(watched);
  thread_ = std::thread([this] { Loop(); });
}

void Origin::Stop() {
  if (thread_.joinable()) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = write(wake_pipe_[1], &byte, 1);
    thread_.join();
  }
  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) {
      close(*fd);
      *fd = -1;
    }
  }
}

OriginCounters Origin::counters() const {
  return {gets_.load(), heads_.load(), max_inflight_.load(), max_connections_.load(),
          watched_hits_.load()};
}

void Origin::ResetCounters() {
  gets_ = 0;
  heads_ = 0;
  max_inflight_ = 0;
  max_connections_ = 0;
  watched_hits_ = 0;
}

void Origin::Loop() {
  std::vector<std::unique_ptr<Conn>> conns;
  std::deque<Held> held;  // Fixed delay: due times arrive in order.
  std::uint64_t inflight = 0;
  const OriginResource not_found{404, "text/html", "<HTML><BODY>not found</BODY></HTML>\n", ""};

  const auto flush = [&](Conn* conn) {
    while (conn->out_off < conn->out.size()) {
      const ssize_t n = send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          conn->dead = true;
        }
        return;
      }
      conn->out_off += static_cast<std::size_t>(n);
    }
    conn->out.clear();
    conn->out_off = 0;
    if (conn->counted) {
      conn->counted = false;
      --inflight;
    }
    if (conn->close_after) {
      conn->dead = true;
    }
  };

  const auto try_parse = [&](Conn* conn) {
    if (conn->dead || conn->waiting || !conn->out.empty()) {
      return;
    }
    Request request;
    const std::size_t used = ParseRequest(conn->in, &request);
    if (used == 0) {
      return;
    }
    conn->in.erase(0, used);
    const bool head = request.method == "HEAD";
    if (request.path == "/.perfbench/stats" || request.path == "/.perfbench/reset") {
      if (request.path == "/.perfbench/reset") {
        ResetCounters();
      }
      const OriginCounters c = counters();
      OriginResource stats{200, "application/json",
                           "{\"delay_us\":" + std::to_string(delay_us_) +
                               ",\"gets\":" + std::to_string(c.gets) +
                               ",\"heads\":" + std::to_string(c.heads) +
                               ",\"max_inflight\":" + std::to_string(c.max_inflight) +
                               ",\"max_connections\":" + std::to_string(c.max_connections) +
                               ",\"watched_hits\":" + std::to_string(c.watched_hits) + "}\n",
                           ""};
      conn->out = BuildReply(stats, head, request.close);
      conn->close_after = request.close;
      flush(conn);
      return;
    }
    (head ? heads_ : gets_).fetch_add(1);
    if (watched_.contains(request.path)) {
      watched_hits_.fetch_add(1);
    }
    const auto it = resources_.find(request.path);
    const OriginResource& resource = it != resources_.end() ? it->second : not_found;
    held.push_back({NowNs() + static_cast<std::int64_t>(delay_us_) * 1000, conn,
                    BuildReply(resource, head, request.close), request.close});
    conn->waiting = true;
    ++inflight;
    if (inflight > max_inflight_.load()) {
      max_inflight_ = inflight;
    }
  };

  std::vector<pollfd> fds;
  for (;;) {
    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& conn : conns) {
      short events = 0;
      if (!conn->dead) {
        events = conn->out.empty() ? (conn->waiting ? 0 : POLLIN) : POLLOUT;
      }
      fds.push_back({conn->dead ? -1 : conn->fd, events, 0});
    }
    timespec timeout{};
    timespec* timeout_ptr = nullptr;
    if (!held.empty()) {
      const std::int64_t wait = std::max<std::int64_t>(0, held.front().due_ns - NowNs());
      timeout.tv_sec = wait / 1000000000;
      timeout.tv_nsec = wait % 1000000000;
      timeout_ptr = &timeout;
    }
    if (ppoll(fds.data(), fds.size(), timeout_ptr, nullptr) < 0 && errno != EINTR) {
      break;
    }
    if (fds[0].revents != 0) {
      break;
    }
    if (fds[1].revents & POLLIN) {
      for (;;) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
          break;
        }
        SetNonBlocking(fd);
        const int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conns.push_back(std::move(conn));
      }
      std::uint64_t live = 0;
      for (const auto& conn : conns) {
        live += conn->dead ? 0 : 1;
      }
      if (live > max_connections_.load()) {
        max_connections_ = live;
      }
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      Conn* conn = conns[i - 2].get();
      if (fds[i].revents == 0 || conn->dead) {
        continue;
      }
      if (fds[i].revents & POLLOUT) {
        flush(conn);
        try_parse(conn);
        continue;
      }
      char buffer[16384];
      const ssize_t n = recv(conn->fd, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          conn->dead = true;
        }
        continue;
      }
      conn->in.append(buffer, static_cast<std::size_t>(n));
      try_parse(conn);
    }
    const std::int64_t now = NowNs();
    while (!held.empty() && held.front().due_ns <= now) {
      Held due = std::move(held.front());
      held.pop_front();
      Conn* conn = due.conn;
      conn->waiting = false;
      if (conn->dead) {
        --inflight;
        continue;
      }
      conn->out = std::move(due.reply);
      conn->close_after = due.close_after;
      conn->counted = true;
      flush(conn);
      try_parse(conn);
    }
    // Reap closed connections that no held reply still points at.
    std::erase_if(conns, [&inflight](const std::unique_ptr<Conn>& conn) {
      if (conn->dead && !conn->waiting) {
        if (conn->counted) {
          --inflight;  // Peer left before its reply drained.
        }
        if (conn->fd >= 0) {
          close(conn->fd);
        }
        return true;
      }
      return false;
    });
  }
  for (const auto& conn : conns) {
    if (conn->fd >= 0) {
      close(conn->fd);
    }
  }
}

}  // namespace perfbench
