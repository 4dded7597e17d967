#include "loadgen.h"

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
#include <cstdlib>
#include <deque>

namespace perfbench {

namespace {

// Requests still outstanding this long after the send window are timed out.
constexpr double kDrainSeconds = 10;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

std::string Lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

// Frames one HTTP/1.1 reply at the front of `in`. Returns true once it is
// complete (or the peer closed, `eof`), filling status/body/close.
bool ParseReply(const std::string& in, bool eof, int* status, std::string* body,
                bool* close_after) {
  const std::size_t end = in.find("\r\n\r\n");
  if (end == std::string::npos) {
    return false;
  }
  const std::string head = Lower(std::string_view(in.data(), end + 2));
  *status = std::atoi(in.c_str() + std::min<std::size_t>(9, in.size()));
  *close_after = head.find("\nconnection: close") != std::string::npos;
  const std::size_t body_start = end + 4;
  if (head.find("\ntransfer-encoding: chunked") != std::string::npos) {
    body->clear();
    std::size_t at = body_start;
    for (;;) {
      const std::size_t line_end = in.find("\r\n", at);
      if (line_end == std::string::npos) {
        return false;
      }
      const std::size_t size = std::strtoull(in.c_str() + at, nullptr, 16);
      if (size == 0) {
        return in.find("\r\n\r\n", line_end) != std::string::npos || eof;
      }
      if (in.size() < line_end + 2 + size + 2) {
        return false;
      }
      body->append(in, line_end + 2, size);
      at = line_end + 2 + size + 2;
    }
  }
  if (const std::size_t at = head.find("\ncontent-length:"); at != std::string::npos) {
    const std::size_t length = std::strtoull(head.c_str() + at + 16, nullptr, 10);
    if (in.size() < body_start + length) {
      return false;
    }
    body->assign(in, body_start, length);
    return true;
  }
  if (!eof) {
    return false;
  }
  body->assign(in, body_start);
  *close_after = true;
  return true;
}

struct Client {
  int fd = -1;
  bool busy = false;
  std::size_t sample = 0;       // Index into result.samples while busy.
  const GatewayRequest* request = nullptr;
  std::size_t out_off = 0;
  std::string in;
  std::int64_t idle_since = 0;
};

}  // namespace

int NumCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string CheckGatewayReply(int status, const std::string& body,
                              const GatewayRequest& request) {
  if (status != 200) {
    return "status " + std::to_string(status);
  }
  if (request.expected_ids.empty()) {
    return body.find("No problems found") != std::string::npos
               ? std::string()
               : std::string("clean page reported problems");
  }
  for (const std::string& id : request.expected_ids) {
    if (body.find("[" + id + "]") == std::string::npos) {
      return "missing [" + id + "]";
    }
  }
  return {};
}

LoadResult RunLoad(const std::vector<GatewayRequest>& mix, const LoadOptions& options) {
  LoadResult result;
  const int connections = std::clamp(options.connections, 1, NumCpus());
  result.connections = connections;
  std::vector<Client> clients(static_cast<std::size_t>(connections));

  const bool open_loop = options.rate > 0;
  const std::int64_t window_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  const std::int64_t start = NowNs() + 1000000;  // 1 ms lead so request 0 is not late.
  result.start_ns = start;
  const std::int64_t interval_ns = open_loop ? static_cast<std::int64_t>(1e9 / options.rate) : 0;
  const std::int64_t drain_deadline = window_ns + static_cast<std::int64_t>(kDrainSeconds * 1e9);
  std::size_t next_index = 0;
  std::deque<std::size_t> due_queue;  // Sample indices due but not yet sent.
  for (Client& client : clients) {
    client.idle_since = 0;
  }

  const auto fail = [&](std::size_t sample, const std::string& why) {
    result.samples[sample].ok = false;
    ++result.failed;
    if (result.failures.size() < 5) {
      result.failures.push_back(why);
    }
  };
  const auto new_sample = [&](std::int64_t due) {
    result.samples.push_back({due, 0, 0, false, false});
    ++result.attempted;
    ++next_index;
    return result.samples.size() - 1;
  };
  const auto finish = [&](Client& client, std::int64_t now, const std::string& why) {
    LoadSample& sample = result.samples[client.sample];
    sample.done_ns = now;
    if (why.empty()) {
      sample.ok = true;
      ++result.ok;
    } else {
      fail(client.sample, why);
    }
    client.busy = false;
    client.idle_since = now;
  };
  const auto drop = [](Client& client) {
    if (client.fd >= 0) {
      close(client.fd);
      client.fd = -1;
    }
    client.in.clear();
  };
  const auto send_some = [&](Client& client, std::int64_t now) {
    const std::string& raw = client.request->raw;
    while (client.out_off < raw.size()) {
      const ssize_t n = send(client.fd, raw.data() + client.out_off, raw.size() - client.out_off,
                             MSG_NOSIGNAL);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          drop(client);
          finish(client, now, "send failed");
        }
        return;
      }
      client.out_off += static_cast<std::size_t>(n);
    }
  };
  const auto dispatch = [&](Client& client, std::size_t sample, std::int64_t now) {
    client.busy = true;
    client.sample = sample;
    client.request = &mix[sample % mix.size()];
    client.out_off = 0;
    client.in.clear();
    result.samples[sample].send_ns = now;
    if (client.fd < 0) {
      client.fd = Connect(options.port);
      if (client.fd < 0) {
        finish(client, now, "connection refused");
        return;
      }
    }
    send_some(client, now);
  };

  std::vector<pollfd> fds;
  std::vector<Client*> polled;
  for (;;) {
    std::int64_t now = NowNs() - start;
    const bool issuing = now < window_ns;
    const bool capped = options.max_requests != 0 && next_index >= options.max_requests;
    if (open_loop) {
      while (issuing && static_cast<std::int64_t>(next_index) * interval_ns <= now &&
             static_cast<std::int64_t>(next_index) * interval_ns < window_ns &&
             (options.max_requests == 0 || next_index < options.max_requests)) {
        due_queue.push_back(new_sample(static_cast<std::int64_t>(next_index) * interval_ns));
      }
    }
    if (open_loop) {
      for (Client& client : clients) {
        if (client.busy || due_queue.empty()) {
          continue;
        }
        // Queued means no connection at all was free at the due time.
        std::int64_t free_since = client.idle_since;
        for (const Client& other : clients) {
          if (!other.busy) {
            free_since = std::min(free_since, other.idle_since);
          }
        }
        const std::size_t sample = due_queue.front();
        due_queue.pop_front();
        result.samples[sample].queued = free_since > result.samples[sample].due_ns;
        dispatch(client, sample, now);
      }
    } else {
      for (Client& client : clients) {
        if (!client.busy && issuing &&
            (options.max_requests == 0 || next_index < options.max_requests)) {
          dispatch(client, new_sample(now), now);
        }
      }
    }
    const bool any_busy =
        std::any_of(clients.begin(), clients.end(), [](const Client& c) { return c.busy; });
    if ((!issuing || capped) && due_queue.empty() && !any_busy) {
      break;
    }
    if (now > drain_deadline) {
      for (Client& client : clients) {
        if (client.busy) {
          drop(client);
          finish(client, now, "timed out");
        }
      }
      for (std::size_t sample : due_queue) {
        fail(sample, "timed out");
      }
      break;
    }

    fds.clear();
    polled.clear();
    for (Client& client : clients) {
      if (client.busy && client.fd >= 0) {
        const bool sending = client.out_off < client.request->raw.size();
        fds.push_back({client.fd, static_cast<short>(sending ? POLLOUT : POLLIN), 0});
        polled.push_back(&client);
      }
    }
    std::int64_t wait_ns = 50000000;
    if (open_loop && issuing && !capped) {
      const std::int64_t next_due = static_cast<std::int64_t>(next_index) * interval_ns;
      wait_ns = std::max<std::int64_t>(0, next_due - now);
    } else if (!issuing && !any_busy) {
      wait_ns = 0;
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    ppoll(fds.data(), fds.size(), &timeout, nullptr);
    now = NowNs() - start;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Client& client = *polled[i];
      if (fds[i].revents == 0 || !client.busy) {
        continue;
      }
      if (fds[i].events & POLLOUT) {
        send_some(client, now);
        continue;
      }
      char buffer[65536];
      bool eof = false;
      for (;;) {
        const ssize_t n = recv(client.fd, buffer, sizeof(buffer), 0);
        if (n > 0) {
          client.in.append(buffer, static_cast<std::size_t>(n));
          continue;
        }
        eof = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
        break;
      }
      int status = 0;
      std::string body;
      bool close_after = false;
      if (ParseReply(client.in, eof, &status, &body, &close_after)) {
        if (close_after || eof) {
          drop(client);
        }
        finish(client, now, CheckGatewayReply(status, body, *client.request));
      } else if (eof) {
        drop(client);
        finish(client, now, "connection closed mid-reply");
      }
    }
  }
  for (Client& client : clients) {
    drop(client);
  }
  result.window_s = options.seconds;
  return result;
}

}  // namespace perfbench
