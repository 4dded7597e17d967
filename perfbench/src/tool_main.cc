// pb_tool: the benchmark's helper for the end-to-end workloads. The
// workload constants live in corpus.h; the flags carry only the seed and
// what the running benchmark knows (ports, the server's pid, the run length).
//
//   pb_tool gen-site --seed S --out DIR
//       Writes the site-cold corpus to DIR/site, a one-page site to DIR/one,
//       and the ground truth to DIR/truth.json.
//   pb_tool origin --mode crawl|gateway --seed S [--truth FILE]
//       Serves the crawl site or the site-cold corpus on a loopback port,
//       prints "port N", and runs until stdin closes. Crawl mode writes the
//       site's ground truth to FILE.
//   pb_tool gateway-load --seed S --gateway-port G --origin-port O
//                        --server-pid PID --seconds T
//       Drives a running gateway: kGatewayWarmupS of warm-up (discarded), an
//       open-loop phase that submits the whole request mix once at
//       kGatewayRate req/s, then a closed-loop phase for the rest of T
//       seconds. Prints one JSON object.
//   pb_tool selftest
//       Checks the load generator's accounting against the origin.
//   pb_tool build-info
//       Prints GetBuildInfo() (version, compiler, SIMD level) as JSON.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "corpus.h"
#include "corpus/page_generator.h"
#include "loadgen.h"
#include "origin.h"
#include "telemetry/build_info.h"
#include "util/file_io.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using weblint::StrFormat;

constexpr double kGatewayRate = 200;     // Open-loop requests per second, ~12% of capacity.
constexpr double kGatewayWarmupS = 1;    // Closed-loop warm-up, discarded.
constexpr double kMinClosedS = 2;        // Shortest closed-loop phase.

std::map<std::string, std::string> ParseFlags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
    flags[argv[i]] = argv[i + 1];
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags, const std::string& name,
                 const std::string& fallback = "") {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

std::uint64_t FlagU(const std::map<std::string, std::string>& flags, const std::string& name,
                    std::uint64_t fallback) {
  const std::string value = Flag(flags, name);
  return value.empty() ? fallback : std::strtoull(value.c_str(), nullptr, 10);
}

double FlagD(const std::map<std::string, std::string>& flags, const std::string& name,
             double fallback) {
  const std::string value = Flag(flags, name);
  return value.empty() ? fallback : std::strtod(value.c_str(), nullptr);
}

bool Write(const std::string& path, const std::string& content) {
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
  return !ec && weblint::WriteFile(path, content).ok();
}

int GenSite(const std::map<std::string, std::string>& flags) {
  const std::string out = Flag(flags, "--out");
  if (out.empty()) {
    std::fprintf(stderr, "pb_tool gen-site: --out is required\n");
    return 2;
  }
  const SiteCorpus corpus = MakeSiteCorpus(FlagU(flags, "--seed", 1));
  std::string truth = StrFormat("{\"bytes\":%d,\"pages\":[", corpus.bytes);
  bool first = true;
  for (const CorpusPage& page : corpus.pages) {
    if (!Write(out + "/site/" + page.path, page.html)) {
      std::fprintf(stderr, "pb_tool gen-site: cannot write %s\n", page.path.c_str());
      return 2;
    }
    truth += StrFormat("%s\n{\"path\":%s,\"kind\":%s,\"bytes\":%d,\"orphan\":%s,\"expected\":%s}",
                       first ? "" : ",", JsonString(page.path), JsonString(page.kind),
                       page.html.size(), page.orphan ? "true" : "false",
                       JsonStringList(page.expected_ids));
    first = false;
  }
  truth += "]}\n";
  weblint::PageGenerator one(FlagU(flags, "--seed", 1));
  if (!Write(out + "/one/index.html", one.ProsePage("one page", 4, {})) ||
      !Write(out + "/truth.json", truth)) {
    std::fprintf(stderr, "pb_tool gen-site: cannot write %s\n", out.c_str());
    return 2;
  }
  return 0;
}

int RunOrigin(const std::map<std::string, std::string>& flags) {
  const std::uint64_t seed = FlagU(flags, "--seed", 1);
  const bool crawl = Flag(flags, "--mode") == "crawl";
  Origin origin(crawl ? kCrawlOriginDelayUs : kGatewayOriginDelayUs);
  const int port = origin.Listen();
  if (port < 0) {
    std::fprintf(stderr, "pb_tool origin: cannot listen\n");
    return 2;
  }
  std::map<std::string, OriginResource> resources;
  std::set<std::string> watched;
  if (crawl) {
    const CrawlSite crawl_site = MakeCrawlSite(seed, StrFormat("127.0.0.1:%d", port));
    const weblint::GeneratedSite& site = crawl_site.site;
    resources = CrawlResources(crawl_site);
    watched.insert(site.orphan_paths.begin(), site.orphan_paths.end());
    watched.insert(site.private_paths.begin(), site.private_paths.end());
    const std::string truth = StrFormat(
        "{\"start\":%s,\"one\":%s,\"pages_checked\":%d,\"broken_links\":%d,"
        "\"redirected_links\":%d,\"robots_skips\":%d,\"images\":%d}\n",
        JsonString(site.IndexUrl()), JsonString(site.UrlFor("/one.html")),
        crawl_site.CheckedPages(), site.broken_link_count, site.redirects.size(),
        site.private_paths.size(), crawl_site.image_paths.size());
    if (!Write(Flag(flags, "--truth"), truth)) {
      std::fprintf(stderr, "pb_tool origin: cannot write --truth\n");
      return 2;
    }
  } else {
    const SiteCorpus corpus = MakeSiteCorpus(seed);
    for (const CorpusPage& page : corpus.pages) {
      resources["/" + page.path] = {200, "text/html", page.html, ""};
    }
  }
  weblint::PageGenerator one(seed);
  resources["/one.html"] = {200, "text/html", one.ProsePage("one page", 4, {}), ""};
  origin.Serve(std::move(resources), std::move(watched));
  std::printf("port %d\n", port);
  std::fflush(stdout);
  char buffer[256];
  while (read(STDIN_FILENO, buffer, sizeof(buffer)) > 0) {
  }
  origin.Stop();
  return 0;
}

// utime + stime of `pid` in seconds, from /proc/<pid>/stat.
double ProcessCpuSeconds(long pid) {
  std::ifstream in(StrFormat("/proc/%d/stat", pid));
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) {
    return 0;
  }
  // Fields after "pid (comm)": state is field 3, utime 14, stime 15.
  std::vector<std::string_view> fields = weblint::SplitWhitespace(std::string_view(stat).substr(paren + 1));
  if (fields.size() < 13) {
    return 0;
  }
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (std::strtod(std::string(fields[11]).c_str(), nullptr) +
          std::strtod(std::string(fields[12]).c_str(), nullptr)) /
         ticks;
}

std::string PhaseJson(const LoadResult& r) {
  std::string samples = "[";
  for (std::size_t i = 0; i < r.samples.size(); ++i) {
    const LoadSample& s = r.samples[i];
    samples += StrFormat("%s[%d,%d,%d,%d,%d]", i > 0 ? "," : "", s.due_ns, s.send_ns, s.done_ns,
                         s.ok ? 1 : 0, s.queued ? 1 : 0);
  }
  samples += "]";
  return StrFormat(
      "{\"attempted\":%d,\"ok\":%d,\"failed\":%d,\"window_s\":%s,"
      "\"connections\":%d,\"failures\":%s,\"samples\":%s}",
      r.attempted, r.ok, r.failed, std::to_string(r.window_s),
      r.connections, JsonStringList(r.failures), samples);
}

int GatewayLoad(const std::map<std::string, std::string>& flags) {
  const std::uint64_t seed = FlagU(flags, "--seed", 1);
  const SiteCorpus corpus = MakeSiteCorpus(seed);
  const std::vector<GatewayRequest> mix =
      MakeGatewayMix(corpus, seed, 2 * corpus.Documents().size(),
                     static_cast<int>(FlagU(flags, "--origin-port", 0)));
  const auto pastes = static_cast<std::size_t>(
      std::count_if(mix.begin(), mix.end(), [](const GatewayRequest& r) { return r.paste; }));
  const long pid = static_cast<long>(FlagU(flags, "--server-pid", 0));

  LoadOptions options;
  options.port = static_cast<int>(FlagU(flags, "--gateway-port", 0));
  options.connections = NumCpus();
  options.seconds = kGatewayWarmupS;
  const LoadResult warmup = RunLoad(mix, options);

  // Open loop: the whole mix once, every document as a paste and as a URL.
  LoadOptions open = options;
  open.rate = kGatewayRate;
  open.max_requests = mix.size();
  open.seconds = static_cast<double>(mix.size()) / kGatewayRate + 1;
  const double cpu_before = ProcessCpuSeconds(pid);
  const LoadResult open_result = RunLoad(mix, open);
  const double open_cpu = ProcessCpuSeconds(pid) - cpu_before;

  // Closed loop for the rest of the run, over half the cores, so it
  // measures serving rather than how much of the host the VM gets.
  LoadOptions closed = options;
  closed.connections = std::max(1, NumCpus() / 2);
  closed.seconds =
      std::max(kMinClosedS, FlagD(flags, "--seconds", 15) - open.seconds - kGatewayWarmupS);
  const LoadResult closed_result = RunLoad(mix, closed);

  std::printf("{\"warmup\":{\"attempted\":%llu,\"failed\":%llu,\"failures\":%s},"
              "\"open\":%s,\"open_server_cpu_s\":%.4f,\"closed\":%s,\"rate\":%g,\"mix\":%zu,"
              "\"mix_paste\":%zu}\n",
              static_cast<unsigned long long>(warmup.attempted),
              static_cast<unsigned long long>(warmup.failed),
              JsonStringList(warmup.failures).c_str(), PhaseJson(open_result).c_str(), open_cpu,
              PhaseJson(closed_result).c_str(), kGatewayRate, mix.size(), pastes);
  return 0;
}

int SelfTest() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  Origin origin(/*delay_us=*/20000);
  const int port = origin.Listen();
  origin.Serve({{"/x", {200, "text/html", "<P>No problems found</P>", ""}}});
  GatewayRequest request;
  request.raw = "GET /x HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  const std::vector<GatewayRequest> mix{request};

  // Over capacity: one connection, 20 ms service, 200 req/s due. Timed from
  // the due time, latency must grow with the backlog; timed from the send
  // it would stay near the service time and hide the stall.
  LoadOptions over;
  over.port = port;
  over.connections = 1;
  over.rate = 200;
  over.seconds = 0.5;
  const LoadResult backlog = RunLoad(mix, over);
  std::int64_t worst_due = 0;
  std::int64_t worst_send = 0;
  std::size_t queued = 0;
  for (const LoadSample& s : backlog.samples) {
    worst_due = std::max(worst_due, s.done_ns - s.due_ns);
    worst_send = std::max(worst_send, s.done_ns - s.send_ns);
    queued += s.queued ? 1 : 0;
  }
  expect(backlog.attempted == 100 && backlog.failed == 0,
         StrFormat("open loop sends every due request (%d attempted, %d failed)",
                   backlog.attempted, backlog.failed));
  expect(worst_due > 1000000000LL,
         StrFormat("latency from due time includes the backlog (worst %d ms)", worst_due / 1000000));
  expect(worst_send < 200000000LL,
         StrFormat("service time alone stays near the origin delay (worst %d ms)",
                   worst_send / 1000000));
  expect(queued > 50, StrFormat("requests due while the connection was busy are queued (%d)", queued));

  // Under capacity: no queueing, and the generator's own lateness is small.
  LoadOptions under = over;
  under.connections = 4;
  under.rate = 40;
  const LoadResult calm = RunLoad(mix, under);
  std::vector<std::int64_t> late;
  std::size_t calm_queued = 0;
  for (const LoadSample& s : calm.samples) {
    calm_queued += s.queued ? 1 : 0;
    late.push_back(s.send_ns - s.due_ns);
  }
  std::sort(late.begin(), late.end());
  expect(calm.failed == 0 && calm_queued == 0,
         StrFormat("under capacity nothing queues (%d queued)", calm_queued));
  // The median, so one host scheduling hiccup cannot fail the check; a
  // generator that sent on a coarse poll instead of the due time would be
  // milliseconds late on most requests.
  expect(!late.empty() && late[late.size() / 2] < 1000000,
         StrFormat("median generator lateness under 1 ms (%d us)",
                   late.empty() ? 0 : late[late.size() / 2] / 1000));

  origin.Stop();

  // Connections never exceed nproc, whatever is asked for. A fresh origin,
  // so no connection from the phases above is still being reaped.
  Origin fresh(/*delay_us=*/20000);
  const int fresh_port = fresh.Listen();
  fresh.Serve({{"/x", {200, "text/html", "<P>No problems found</P>", ""}}});
  LoadOptions wide = over;
  wide.port = fresh_port;
  wide.rate = 0;
  wide.connections = 4 * NumCpus();
  wide.seconds = 0.3;
  const LoadResult closed = RunLoad(mix, wide);
  const OriginCounters seen = fresh.counters();
  expect(closed.connections == NumCpus() &&
             seen.max_connections <= static_cast<std::uint64_t>(NumCpus()),
         StrFormat("connections capped at nproc=%d (used %d, origin saw %d)", NumCpus(),
                   closed.connections, seen.max_connections));
  expect(seen.max_inflight <= static_cast<std::uint64_t>(NumCpus()),
         StrFormat("origin in-flight peak %d <= nproc", seen.max_inflight));
  fresh.Stop();
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pb_tool gen-site|origin|gateway-load|selftest [flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = perfbench::ParseFlags(argc, argv, 2);
  if (command == "gen-site") {
    return perfbench::GenSite(flags);
  }
  if (command == "origin") {
    return perfbench::RunOrigin(flags);
  }
  if (command == "gateway-load") {
    return perfbench::GatewayLoad(flags);
  }
  if (command == "build-info") {
    const weblint::BuildInfoFields& info = weblint::GetBuildInfo();
    std::printf("{\"version\":%s,\"compiler\":%s,\"simd\":%s}\n",
                perfbench::JsonString(info.version).c_str(),
                perfbench::JsonString(info.compiler).c_str(),
                perfbench::JsonString(info.simd).c_str());
    return 0;
  }
  if (command == "selftest") {
    return perfbench::SelfTest();
  }
  std::fprintf(stderr, "pb_tool: unknown command %s\n", command.c_str());
  return 2;
}
