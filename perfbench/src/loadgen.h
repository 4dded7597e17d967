// The gateway load generator: one thread, at most nproc keep-alive
// connections, multiplexed with poll.
//
// Open loop (rate > 0): request i is due at start + i / rate, whether or not
// earlier replies have arrived. Latency is timed from the due time, so a
// stall that delays later sends counts against every request it delayed.
// A request due while every connection is busy waits for one ("queued");
// the time the generator itself ran behind schedule while a connection was
// free is its lateness, reported separately.
//
// Closed loop (rate == 0): each connection sends its next request as soon as
// the previous reply arrives.
//
// Every reply is checked: status 200, and every expected message id of the
// submitted page appears as "[id]" (a clean page must say "No problems
// found"). A failed check, non-200, refused connection or timeout is a
// failed operation.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus.h"

namespace perfbench {

struct LoadOptions {
  int port = 0;
  int connections = 1;       // Clamped to [1, nproc].
  double rate = 0;           // Requests per second; 0 = closed loop.
  double seconds = 1;        // Send window.
  std::size_t max_requests = 0;  // Stop issuing after this many (0 = no cap).
};

struct LoadSample {
  std::int64_t due_ns = 0;   // Relative to the phase start.
  std::int64_t send_ns = 0;
  std::int64_t done_ns = 0;
  bool ok = false;
  bool queued = false;       // Due while no connection was free.
};

struct LoadResult {
  std::vector<LoadSample> samples;  // One per attempted request, in send order.
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double window_s = 0;
  std::int64_t start_ns = 0;        // steady_clock time the sample times are relative to.
  int connections = 0;              // Connections actually used.
  std::vector<std::string> failures;  // The first few failure descriptions.
};

LoadResult RunLoad(const std::vector<GatewayRequest>& mix, const LoadOptions& options);

// Checks one reply body against the request's expectations; returns an
// empty string when it passes, otherwise a short description.
std::string CheckGatewayReply(int status, const std::string& body, const GatewayRequest& request);

// Number of online CPUs (>= 1).
int NumCpus();

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
