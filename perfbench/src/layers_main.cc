// pb_layers: the benchmark's traced run.
//
//   pb_layers --seed S --work DIR
//
// Replays the workloads' seeded inputs in-process through each src/ module's
// public functions and prints per-layer metrics named <module>.<metric>.
// The work is fixed, not timed: every run reports every metric.
// The replays of the four workloads run in five untraced/traced pairs; the
// traced passes record spans (name, layer, start, end, parent) only in this
// file, around calls into public functions and at seams the API already
// exposes -- an Emitter, a UrlFetcher decorator and the HttpServer handler
// lambda -- plus the benchmark's own origin. Spans stay in memory until the
// run ends; each layer's self time is its spans' time minus their children's.
// Span names follow the stage vocabulary (fetch, lint, format, serdes,
// cache, write) where they overlap it.
//
// The last stdout line is one JSON object: attempted, failed, failures,
// metrics ({name: [value, unit]}) and notes.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "cache/lint_cache.h"
#include "cache/report_serdes.h"
#include "core/linter.h"
#include "core/parallel_runner.h"
#include "corpus.h"
#include "crawl/frontier.h"
#include "gateway/cgi.h"
#include "gateway/gateway.h"
#include "html/tokenizer.h"
#include "loadgen.h"
#include "net/async_fetcher.h"
#include "net/http_server.h"
#include "net/http_wire.h"
#include "net/socket_fetcher.h"
#include "net/virtual_web.h"
#include "origin.h"
#include "robot/poacher.h"
#include "util/file_io.h"
#include "util/strings.h"
#include "warnings/emitter.h"

namespace perfbench {
namespace {

using weblint::StrFormat;

constexpr std::size_t kGatewayReplayRequests = 300;
// Per-layer self times, less the measured cost of recording their spans,
// must add up to the untraced replays' wall time within this share (the
// host's drift between two passes); a run outside it fails.
constexpr double kReconcileTolerancePct = 20.0;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// ------------------------------------------------------------------ output

struct Report {
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, value, unit);
  }
  void Check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) {
        failures.push_back(why);
      }
    }
  }
  std::string Json() const {
    std::string out = StrFormat("{\"attempted\":%d,\"failed\":%d,\"failures\":%s,\"metrics\":{",
                                attempted, failed, JsonStringList(failures));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const auto& [name, value, unit] = metrics[i];
      char number[64];
      std::snprintf(number, sizeof(number), "%.9g", value);
      out += StrFormat("%s%s:[%s,%s]", i > 0 ? "," : "", JsonString(name), number,
                       JsonString(unit));
    }
    return out + "},\"notes\":" + JsonStringList(notes) + "}";
  }
};

// ------------------------------------------------------------------- spans

// In-memory span recorder. Disabled, every call is one branch, which is how
// the untraced pass runs the same code.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
  }

  int Begin(const char* name, const char* layer) {
    if (!enabled_) {
      return -1;
    }
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, layer, now, 0, t_current});
    t_current = static_cast<int>(spans_.size()) - 1;
    return t_current;
  }
  void End(int id) {
    if (id < 0) {
      return;
    }
    const std::int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
    t_current = spans_[static_cast<std::size_t>(id)].parent;
  }
  // Records an already-finished span (the load generator's request timings).
  void Record(const char* name, const char* layer, std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, layer, start_ns, end_ns, -1});
  }

  // Self time per layer: a span's duration minus its children's. Spans
  // recorded on other threads (the server's handler) are parented by
  // interval containment when they have no recorded parent.
  std::map<std::string, double> SelfMsByLayer() const {
    std::vector<Span> spans;
    {
      std::lock_guard<std::mutex> lock(mu_);
      spans = spans_;
    }
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      int parent = spans[i].parent;
      if (parent < 0) {
        std::int64_t best = INT64_MAX;
        for (std::size_t j = 0; j < spans.size(); ++j) {
          const std::int64_t width = spans[j].end_ns - spans[j].start_ns;
          if (j != i && spans[j].start_ns <= spans[i].start_ns &&
              spans[i].end_ns <= spans[j].end_ns && width < best &&
              width > spans[i].end_ns - spans[i].start_ns) {
            best = width;
            parent = static_cast<int>(j);
          }
        }
      }
      if (parent >= 0) {
        child_ns[static_cast<std::size_t>(parent)] += spans[i].end_ns - spans[i].start_ns;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[spans[i].layer] +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns - child_ns[i]) / 1e6;
    }
    return self;
  }

  std::vector<Span> Named(const char* name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const Span& span : spans_) {
      if (std::string_view(span.name) == name) {
        out.push_back(span);
      }
    }
    return out;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  // The innermost open span of the calling thread. A thread's first span
  // has no recorded parent and is parented by containment.
  static thread_local int t_current;
};

thread_local int Tracer::t_current = -1;

Tracer g_tracer;

class Scope {
 public:
  Scope(const char* name, const char* layer) : id_(g_tracer.Begin(name, layer)) {}
  ~Scope() { g_tracer.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// Emitter seam: every diagnostic formatted and written is a "format" span.
class TracingEmitter : public weblint::Emitter {
 public:
  explicit TracingEmitter(weblint::Emitter& inner) : inner_(inner) {}
  void BeginDocument(std::string_view name) override { inner_.BeginDocument(name); }
  void EndDocument() override { inner_.EndDocument(); }
  void Emit(const weblint::Diagnostic& diagnostic) override {
    Scope span("format", "warnings");
    inner_.Emit(diagnostic);
  }

 private:
  weblint::Emitter& inner_;
};

// UrlFetcher seam: every retrieval is a "fetch" span.
class TracingFetcher : public weblint::UrlFetcher {
 public:
  explicit TracingFetcher(weblint::UrlFetcher& inner) : inner_(inner) {}
  weblint::HttpResponse Get(const weblint::Url& url) override {
    Scope span("fetch", "net");
    return inner_.Get(url);
  }
  weblint::HttpResponse Head(const weblint::Url& url) override {
    Scope span("fetch", "net");
    return inner_.Head(url);
  }

 private:
  weblint::UrlFetcher& inner_;
};

// ----------------------------------------------------------- layer inputs

struct Inputs {
  std::uint64_t seed = 1;
  std::string work;
  SiteCorpus corpus;
  std::vector<const CorpusPage*> docs;
  std::vector<const CorpusPage*> lint_subset;  // Every 4th document.
  std::size_t lint_subset_bytes = 0;
};

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const std::int64_t start = NowNs();
  fn();
  return static_cast<double>(NowNs() - start) / 1e9;
}

// Runs `pass` (which processes `bytes`) once untimed, then repeats it until
// `min_seconds` have passed; returns MB/s.
template <typename Fn>
double Throughput(std::size_t bytes, double min_seconds, Fn&& pass) {
  pass();  // Warm-up, untimed.
  std::size_t passes = 0;
  const double seconds = TimeSeconds([&] {
    const std::int64_t stop = NowNs() + static_cast<std::int64_t>(min_seconds * 1e9);
    do {
      pass();
      ++passes;
    } while (NowNs() < stop);
  });
  return static_cast<double>(bytes * passes) / 1e6 / seconds;
}

void MeasureHtml(const Inputs& in, Report* report) {
  std::uint64_t tokens = 0;
  const double mb_s = Throughput(in.corpus.bytes, 0.4, [&] {
    tokens = 0;
    for (const CorpusPage& page : in.corpus.pages) {
      weblint::Tokenizer tokenizer(page.html);
      weblint::Token token;
      while (tokenizer.Next(&token)) {
        ++tokens;
      }
    }
  });
  report->Add("html.tokenize_mb_s", mb_s, "MB/s");
  report->Add("html.tokens_per_kib",
              static_cast<double>(tokens) / (static_cast<double>(in.corpus.bytes) / 1024.0),
              "count");
}

weblint::Config ConfigWith(const std::string& messages) {
  weblint::Config config;
  if (messages == "none") {
    config.warnings = weblint::WarningSet::NoneEnabled();
  } else if (messages == "all") {
    config.warnings = weblint::WarningSet::AllEnabled();
  }
  return config;
}

void MeasureCore(const Inputs& in, Report* report,
                 std::vector<weblint::LintReport>* default_reports) {
  for (const char* messages : {"none", "default", "all"}) {
    const weblint::Weblint lint(ConfigWith(messages));
    std::uint64_t tokens = 0;
    const double mb_s = Throughput(in.lint_subset_bytes, 0.3, [&] {
      for (const CorpusPage* page : in.lint_subset) {
        tokens += lint.CheckString(page->path, page->html).tokens;
      }
    });
    report->Add(StrFormat("core.lint_%s_mb_s", messages), mb_s, "MB/s");
    report->Check(tokens > 0, StrFormat("lint with messages %s consumed no tokens", messages));
  }

  // Allocation counts: one untimed warm-up pass settles lazy statics, then
  // two single-threaded passes are counted. Same seed, same counts, every
  // run: the two passes must agree exactly.
  const weblint::Weblint lint;
  for (const CorpusPage* page : in.lint_subset) {
    lint.CheckString(page->path, page->html);
  }
  const auto counted_pass = [&](std::vector<weblint::LintReport>* reports) {
    reports->clear();
    reports->reserve(in.lint_subset.size());
    const AllocCounts before = ReadAllocCounts();
    for (const CorpusPage* page : in.lint_subset) {
      reports->push_back(lint.CheckString(page->path, page->html));
    }
    const AllocCounts after = ReadAllocCounts();
    return AllocCounts{after.allocations - before.allocations, after.bytes - before.bytes};
  };
  const AllocCounts counts = counted_pass(default_reports);
  std::vector<weblint::LintReport> repeat_reports;
  const AllocCounts repeat = counted_pass(&repeat_reports);
  report->Check(counts.allocations == repeat.allocations && counts.bytes == repeat.bytes,
                StrFormat("allocation counts differ between two passes: %d/%d allocations, "
                          "%d/%d bytes",
                          counts.allocations, repeat.allocations, counts.bytes, repeat.bytes));
  std::size_t diagnostics = 0;
  for (const weblint::LintReport& r : *default_reports) {
    diagnostics += r.diagnostics.size();
  }
  const double docs = static_cast<double>(in.lint_subset.size());
  report->Add("core.allocs_per_doc", static_cast<double>(counts.allocations) / docs, "count");
  report->Add("core.alloc_kib_per_doc", static_cast<double>(counts.bytes) / 1024.0 / docs, "KiB");
  report->Add("core.diagnostics_per_doc", static_cast<double>(diagnostics) / docs, "count");

  // The parallel runner over the whole in-memory corpus, no cache. An
  // untimed -jN pass goes first: idle virtual CPUs can take hundreds of
  // milliseconds to be scheduled again, and the timed -jN pass must not pay
  // for that.
  const auto run_pass = [&](unsigned jobs, double* pages_per_s, double* cpu) {
    const double cpu_before = ProcessCpuSeconds();
    const double seconds = TimeSeconds([&] {
      weblint::ParallelLintRunner runner(lint, jobs, nullptr);
      for (const CorpusPage* page : in.docs) {
        runner.SubmitString(page->path, page->html);
      }
      runner.Finish();
    });
    *cpu = ProcessCpuSeconds() - cpu_before;
    *pages_per_s = static_cast<double>(in.docs.size()) / seconds;
  };
  const auto jobs = static_cast<unsigned>(NumCpus());
  double pages_per_s[2] = {0, 0};
  double cpu[2] = {0, 0};
  run_pass(jobs, &pages_per_s[1], &cpu[1]);
  run_pass(jobs, &pages_per_s[1], &cpu[1]);
  run_pass(1, &pages_per_s[0], &cpu[0]);
  report->Add("core.runner_j1_pages_per_s", pages_per_s[0], "1/s");
  report->Add("core.runner_jn_pages_per_s", pages_per_s[1], "1/s");
  report->Add("core.runner_cpu_ratio", cpu[0] > 0 ? cpu[1] / cpu[0] : 0, "ratio");
}

void MeasureWarnings(const std::vector<weblint::LintReport>& reports, Report* report) {
  std::vector<const weblint::Diagnostic*> diagnostics;
  for (const weblint::LintReport& r : reports) {
    for (const weblint::Diagnostic& d : r.diagnostics) {
      diagnostics.push_back(&d);
    }
  }
  if (diagnostics.empty()) {
    report->Check(false, "the lint subset produced no diagnostics");
    return;
  }
  std::size_t passes = 0;
  std::size_t sink = 0;
  double seconds = TimeSeconds([&] {
    for (; passes < 50; ++passes) {
      for (const weblint::Diagnostic* d : diagnostics) {
        sink += weblint::FormatDiagnostic(*d, weblint::OutputStyle::kShort).size();
      }
    }
  });
  report->Add("warnings.format_ns_per_diag",
              seconds * 1e9 / static_cast<double>(passes * diagnostics.size()), "ns");
  std::ostringstream out;
  weblint::StreamEmitter emitter(out, weblint::OutputStyle::kShort);
  seconds = TimeSeconds([&] {
    for (std::size_t p = 0; p < 50; ++p) {
      out.str(std::string());
      for (const weblint::Diagnostic* d : diagnostics) {
        emitter.Emit(*d);
      }
    }
  });
  report->Add("warnings.emit_ns_per_diag",
              seconds * 1e9 / static_cast<double>(50 * diagnostics.size()), "ns");
  report->Check(sink > 0, "formatting produced no text");
}

void MeasureCache(const Inputs& in, const std::vector<weblint::LintReport>& reports,
                  Report* report) {
  const std::uint64_t fingerprint = weblint::Config().Fingerprint();
  std::vector<weblint::CacheKey> keys;
  const double key_mb_s = Throughput(in.lint_subset_bytes, 0.2, [&] {
    keys.clear();
    for (const CorpusPage* page : in.lint_subset) {
      keys.push_back(weblint::MakeLintCacheKey(page->path, page->html, fingerprint, "html40"));
    }
  });
  report->Add("cache.key_mb_s", key_mb_s, "MB/s");

  std::vector<std::string> encoded;
  std::size_t encoded_bytes = 0;
  const double docs = static_cast<double>(reports.size());
  double seconds = TimeSeconds([&] {
    for (int pass = 0; pass < 20; ++pass) {
      encoded.clear();
      encoded_bytes = 0;
      for (const weblint::LintReport& r : reports) {
        encoded.push_back(weblint::SerializeLintReport(r));
        encoded_bytes += encoded.back().size();
      }
    }
  });
  report->Add("cache.serdes_encode_mb_s", 20.0 * static_cast<double>(encoded_bytes) / 1e6 / seconds,
              "MB/s");
  report->Add("cache.entry_bytes_per_doc", static_cast<double>(encoded_bytes) / docs, "bytes");
  std::size_t decoded = 0;
  seconds = TimeSeconds([&] {
    for (int pass = 0; pass < 20; ++pass) {
      for (const std::string& bytes : encoded) {
        decoded += weblint::DeserializeLintReport(bytes).has_value() ? 1 : 0;
      }
    }
  });
  report->Check(decoded == 20 * encoded.size(), "a serialized report failed to decode");
  report->Add("cache.serdes_decode_mb_s", 20.0 * static_cast<double>(encoded_bytes) / 1e6 / seconds,
              "MB/s");

  weblint::LintResultCache memory({});
  seconds = TimeSeconds([&] {
    for (std::size_t i = 0; i < reports.size(); ++i) {
      memory.Store(keys[i], reports[i]);
    }
  });
  report->Add("cache.mem_store_us", seconds * 1e6 / docs, "us");
  std::size_t hits = 0;
  seconds = TimeSeconds([&] {
    for (int pass = 0; pass < 20; ++pass) {
      for (const weblint::CacheKey& key : keys) {
        hits += memory.Lookup(key) != nullptr ? 1 : 0;
      }
    }
  });
  report->Add("cache.mem_hit_us", seconds * 1e6 / (20 * docs), "us");
  report->Check(hits == 20 * keys.size(), "memory cache missed a stored key");

  const std::string dir = in.work + "/layer-cache";
  std::filesystem::remove_all(dir);
  {
    weblint::LintResultCache::Options options;
    options.directory = dir;
    weblint::LintResultCache disk(options);
    seconds = TimeSeconds([&] {
      for (std::size_t i = 0; i < reports.size(); ++i) {
        disk.Store(keys[i], reports[i]);
      }
    });
    report->Add("cache.disk_store_us", seconds * 1e6 / docs, "us");
  }
  {
    weblint::LintResultCache::Options options;
    options.directory = dir;
    weblint::LintResultCache disk(options);  // Empty memory tier: every hit is a disk hit.
    seconds = TimeSeconds([&] {
      for (const weblint::CacheKey& key : keys) {
        disk.Lookup(key);
      }
    });
    report->Add("cache.disk_hit_us", seconds * 1e6 / docs, "us");
    report->Check(disk.stats().disk_hits == keys.size(), "disk tier missed a stored key");
  }
  std::filesystem::remove_all(dir);

  std::ostringstream out;
  weblint::StreamEmitter emitter(out, weblint::OutputStyle::kShort);
  seconds = TimeSeconds([&] {
    for (int pass = 0; pass < 20; ++pass) {
      out.str(std::string());
      for (const weblint::LintReport& r : reports) {
        weblint::ReplayReport(r, emitter);
      }
    }
  });
  report->Add("cache.replay_us_per_doc", seconds * 1e6 / (20 * docs), "us");
}

// -------------------------------------------------------- workload replays

// What recording one span adds to the traced pass: Begin and End each read
// the clock and take the recorder's lock, and every span nests inside a
// replay's root span, so the whole cost lands in the self times. It depends
// on the host's clock source, so it is measured, once, before the replays:
// the median of several batches of nested spans.
double g_span_cost_ns = 0;

void CalibrateSpanCost() {
  constexpr int kBatches = 7;
  constexpr int kSpans = 8192;
  std::vector<double> per_span_ns;
  for (int batch = 0; batch < kBatches; ++batch) {
    g_tracer.Clear();
    g_tracer.set_enabled(true);
    const double seconds = TimeSeconds([] {
      Scope root("calibrate", "bench");
      for (int i = 0; i < kSpans; ++i) {
        Scope span("calibrate", "bench");
      }
    });
    g_tracer.set_enabled(false);
    per_span_ns.push_back(seconds * 1e9 / kSpans);
  }
  g_tracer.Clear();
  g_span_cost_ns = Median(per_span_ns);
}

// One untraced and one traced pass of a replay.
struct ReplayTimes {
  double untraced_ms = 0;
  double traced_ms = 0;
  std::size_t spans = 0;                  // Recorded in the traced pass.
  std::map<std::string, double> self_ms;  // Per layer, in the traced pass.

  double SelfTotalMs() const {
    double total = 0;
    for (const auto& [layer, ms] : self_ms) {
      total += ms;
    }
    return total;
  }
  // The self times less what recording the spans cost.
  double CorrectedSelfMs() const {
    return SelfTotalMs() - static_cast<double>(spans) * g_span_cost_ns / 1e6;
  }
};

// Site replay: read, cache key + lookup, lint (with formatting through the
// Emitter seam) and store on a miss or replay on a hit, then the write of
// the collected output -- the per-page path of `weblint -R -s --cache-dir`,
// on one thread. Returns per-page diagnostics ids.
std::map<std::string, std::set<std::string>> SiteReplay(const Inputs& in, const std::string& cache_dir,
                                                        weblint::CacheStats* stats) {
  weblint::Weblint lint;
  lint.config().cache_dir = cache_dir;
  lint.EnableCache();
  weblint::LintResultCache* cache = lint.cache();
  const std::uint64_t fingerprint = lint.config().Fingerprint();
  std::ostringstream out;
  weblint::StreamEmitter stream(out, weblint::OutputStyle::kShort);
  TracingEmitter emitter(stream);
  std::map<std::string, std::set<std::string>> found;
  Scope root("site-replay", "bench");
  for (const CorpusPage& page : in.corpus.pages) {
    const std::string path = in.work + "/site/" + page.path;
    std::string content;
    {
      Scope span("read", "util");
      content = std::move(weblint::ReadFile(path)).value();
    }
    std::shared_ptr<const weblint::LintReport> hit;
    weblint::CacheKey key;
    {
      Scope span("cache", "cache");
      key = weblint::MakeLintCacheKey(path, content, fingerprint, lint.config().spec_id);
      hit = cache->Lookup(key);
    }
    weblint::LintReport result;
    if (hit != nullptr) {
      weblint::ReplayReport(*hit, emitter);
      result = *hit;
    } else {
      {
        Scope span("lint", "core");
        result = lint.CheckFileBytes(path, content, &emitter);
      }
      Scope span("cache", "cache");
      cache->Store(key, result);
    }
    auto& ids = found[page.path];
    for (const weblint::Diagnostic& d : result.diagnostics) {
      ids.insert(d.message_id);
    }
  }
  {
    Scope span("write", "util");
    if (!weblint::WriteFile(in.work + "/replay-out.txt", out.str()).ok()) {
      std::abort();
    }
  }
  *stats = cache->stats();
  return found;
}

// Runs `replay` in kTracePairs pairs of one untraced and one traced pass,
// each pass after an untimed `prepare`; the pairs alternate which pass goes
// first. The host's speed drifts by more than tracing costs, but the two
// passes of a pair run back to back, so the replay's figures come from the
// median pair, ranked by how far its corrected traced self times are from
// its untraced wall time. The last traced pass's spans stay in the recorder.
template <typename Prepare, typename Fn>
ReplayTimes TracePairs(Prepare&& prepare, Fn&& replay) {
  constexpr int kTracePairs = 7;
  std::vector<ReplayTimes> pairs(kTracePairs);
  for (int pass = 0; pass < 2 * kTracePairs; ++pass) {
    ReplayTimes& pair = pairs[static_cast<std::size_t>(pass / 2)];
    const bool traced = (pass + pass / 2) % 2 == 1;  // U T, T U, U T, ...
    prepare();
    g_tracer.Clear();
    g_tracer.set_enabled(traced);
    const double ms = TimeSeconds(replay) * 1e3;
    g_tracer.set_enabled(false);
    if (traced) {
      pair.traced_ms = ms;
      pair.spans = g_tracer.size();
      pair.self_ms = g_tracer.SelfMsByLayer();
    } else {
      pair.untraced_ms = ms;
    }
  }
  const auto gap = [](const ReplayTimes& pair) {
    return (pair.CorrectedSelfMs() - pair.untraced_ms) / pair.untraced_ms;
  };
  std::sort(pairs.begin(), pairs.end(),
            [&gap](const ReplayTimes& a, const ReplayTimes& b) { return gap(a) < gap(b); });
  return pairs[kTracePairs / 2];
}

void NoPrepare() {}

void CheckSiteFindings(const Inputs& in, const std::map<std::string, std::set<std::string>>& found,
                       Report* report) {
  for (const CorpusPage& page : in.corpus.pages) {
    const auto it = found.find(page.path);
    const std::set<std::string> ids = it == found.end() ? std::set<std::string>() : it->second;
    const std::set<std::string> expected(page.expected_ids.begin(), page.expected_ids.end());
    const bool ok = page.kind == "defective"
                        ? std::includes(ids.begin(), ids.end(), expected.begin(), expected.end())
                        : ids.empty();
    report->Check(ok, "replay of " + page.path + " missed its seeded defects");
  }
}

void AddReplay(const std::string& workload, const ReplayTimes& times, Report* report,
               std::vector<ReplayTimes>* all) {
  for (const auto& [layer, ms] : times.self_ms) {
    report->notes.push_back(StrFormat("%s replay self time: %s %s ms", workload, layer,
                                      std::to_string(ms)));
  }
  report->notes.push_back(StrFormat("%s replay: untraced %s ms, traced %s ms, %d spans (median pair)",
                                    workload,
                                    std::to_string(times.untraced_ms),
                                    std::to_string(times.traced_ms), times.spans));
  all->push_back(times);
}

void ReplaySites(const Inputs& in, Report* report, std::vector<ReplayTimes>* all) {
  const std::string cold_dir = in.work + "/replay-cache-cold";
  weblint::CacheStats stats;
  std::map<std::string, std::set<std::string>> found;
  const ReplayTimes cold = TracePairs([&] { std::filesystem::remove_all(cold_dir); },
                                      [&] { found = SiteReplay(in, cold_dir, &stats); });
  CheckSiteFindings(in, found, report);
  AddReplay("site-cold", cold, report, all);

  const ReplayTimes warm =
      TracePairs(NoPrepare, [&] { found = SiteReplay(in, cold_dir, &stats); });
  CheckSiteFindings(in, found, report);
  report->Add("cache.hit_ratio",
              static_cast<double>(stats.hits) / static_cast<double>(stats.hits + stats.misses),
              "ratio");
  AddReplay("site-warm", warm, report, all);
  std::filesystem::remove_all(cold_dir);
}

// ------------------------------------------------------------ net / crawl

void CheckCrawl(const CrawlSite& crawl_site, const weblint::PoacherReport& crawl,
                const std::string& what, Report* report) {
  const weblint::GeneratedSite& site = crawl_site.site;
  report->Check(crawl.pages.size() == crawl_site.CheckedPages() &&
                    crawl.broken_links.size() == site.broken_link_count &&
                    crawl.redirected_links.size() == site.redirects.size() &&
                    crawl.stats.skipped_robots == site.private_paths.size(),
                StrFormat("%s: %d pages, %d broken, %d redirected, %d robots skips", what,
                          crawl.pages.size(), crawl.broken_links.size(),
                          crawl.redirected_links.size(), crawl.stats.skipped_robots));
}

void Populate(const CrawlSite& crawl_site, weblint::VirtualWeb* web) {
  weblint::PopulateVirtualWeb(crawl_site.site, web);
  const auto resources = CrawlResources(crawl_site);
  for (const std::string& path : crawl_site.image_paths) {
    const OriginResource& image = resources.at(path);
    web->AddPage(crawl_site.site.UrlFor(path), image.body, image.content_type);
  }
}

void MeasureCrawl(const Inputs& in, Report* report, std::vector<ReplayTimes>* all) {
  // No wire: Poacher and the in-memory frontier over a VirtualWeb.
  const CrawlSite virtual_site = MakeCrawlSite(in.seed, "site.example");
  {
    weblint::VirtualWeb web;
    Populate(virtual_site, &web);
    const weblint::Weblint lint;
    weblint::PoacherReport crawl;
    const double seconds = TimeSeconds([&] {
      weblint::Poacher poacher(lint, web);
      crawl = poacher.Run(virtual_site.site.IndexUrl());
    });
    CheckCrawl(virtual_site, crawl, "virtual-web crawl", report);
    report->Check(web.head_count() == virtual_site.image_paths.size(),
                  StrFormat("virtual-web crawl sent %d HEADs for %d images", web.head_count(),
                            virtual_site.image_paths.size()));
    report->Add("robot.crawl_pages_per_s", static_cast<double>(crawl.pages.size()) / seconds, "1/s");
    report->Add("robot.heads_per_page",
                static_cast<double>(web.head_count()) / static_cast<double>(crawl.pages.size()),
                "count");
  }
  {
    weblint::VirtualWeb web;
    Populate(virtual_site, &web);
    const weblint::Weblint lint;
    weblint::Frontier frontier(weblint::FrontierOptions{});
    if (!frontier.Open().ok()) {
      report->Check(false, "in-memory frontier failed to open");
      return;
    }
    weblint::PoacherOptions options;
    options.frontier = &frontier;
    weblint::PoacherReport crawl;
    const double seconds = TimeSeconds([&] {
      weblint::Poacher poacher(lint, web, options);
      crawl = poacher.Run(virtual_site.site.IndexUrl());
    });
    report->Add("crawl.frontier_pages_per_s", static_cast<double>(crawl.pages.size()) / seconds,
                "1/s");
  }

  // Over the wire: the benchmark origin with its fixed per-response delay.
  Origin origin(kCrawlOriginDelayUs);
  const int port = origin.Listen();
  const CrawlSite crawl_site = MakeCrawlSite(in.seed, StrFormat("127.0.0.1:%d", port));
  const weblint::GeneratedSite& site = crawl_site.site;
  origin.Serve(CrawlResources(crawl_site));

  {
    weblint::SocketFetcher fetcher;
    std::vector<double> overhead_us;
    for (std::size_t i = 0; i < 200; ++i) {
      const auto& page = site.pages[i % site.pages.size()];
      const std::int64_t start = NowNs();
      const weblint::HttpResponse response = fetcher.Get(weblint::ParseUrl(site.UrlFor(page.path)));
      overhead_us.push_back(static_cast<double>(NowNs() - start) / 1e3 -
                            static_cast<double>(kCrawlOriginDelayUs));
      if (i == 0) {
        report->Check(response.status == 200, "origin fetch did not answer 200");
      }
    }
    report->Add("net.fetch_overhead_us", Median(overhead_us), "us");
  }

  // The crawl workload's configuration: -j nproc, --prefetch nproc.
  {
    weblint::Weblint lint;
    lint.config().jobs = static_cast<std::uint32_t>(NumCpus());
    weblint::PoacherOptions options;
    options.crawl.prefetch = static_cast<std::size_t>(NumCpus());
    weblint::AsyncFetcher::Options async_options;
    async_options.max_inflight = options.crawl.prefetch;
    weblint::AsyncFetcher fetcher(async_options);
    origin.ResetCounters();
    weblint::Poacher poacher(lint, fetcher, options);
    const weblint::PoacherReport crawl = poacher.Run(site.IndexUrl());
    CheckCrawl(crawl_site, crawl, "origin crawl", report);
    const OriginCounters counters = origin.counters();
    report->Check(counters.heads == crawl_site.image_paths.size(),
                  StrFormat("origin crawl sent %d HEADs for %d images", counters.heads,
                            crawl_site.image_paths.size()));
    report->Add("net.origin_requests", static_cast<double>(counters.gets + counters.heads), "count");
    report->Add("net.origin_max_inflight", static_cast<double>(counters.max_inflight), "count");
  }

  // Traced replay: one blocking fetch at a time through the fetcher seam.
  weblint::PoacherReport crawl;
  const ReplayTimes times = TracePairs(NoPrepare, [&] {
    weblint::Weblint lint;
    lint.config().jobs = 1;
    weblint::SocketFetcher socket;
    TracingFetcher fetcher(socket);
    std::ostringstream out;
    weblint::StreamEmitter stream(out, weblint::OutputStyle::kShort);
    TracingEmitter emitter(stream);
    Scope root("crawl-replay", "bench");
    weblint::Poacher poacher(lint, fetcher);
    Scope span("crawl", "robot");
    crawl = poacher.Run(site.IndexUrl(), &emitter);
  });
  CheckCrawl(crawl_site, crawl, "traced crawl", report);
  AddReplay("crawl", times, report, all);
  origin.Stop();
}

// ----------------------------------------------------------------- gateway

void MeasureGateway(const Inputs& in, Report* report, std::vector<ReplayTimes>* all) {
  Origin origin(kGatewayOriginDelayUs);
  const int origin_port = origin.Listen();
  std::map<std::string, OriginResource> resources;
  for (const CorpusPage& page : in.corpus.pages) {
    resources["/" + page.path] = {200, "text/html", page.html, ""};
  }
  origin.Serve(std::move(resources));
  const std::vector<GatewayRequest> mix = MakeGatewayMix(in.corpus, in.seed, 1024, origin_port);

  std::vector<weblint::HttpRequest> parsed;
  const double parse_s = TimeSeconds([&] {
    for (int pass = 0; pass < 5; ++pass) {
      parsed.clear();
      for (const GatewayRequest& request : mix) {
        parsed.push_back(std::move(weblint::ParseHttpRequest(request.raw)).value());
      }
    }
  });
  report->Add("net.parse_request_ns", parse_s * 1e9 / (5.0 * static_cast<double>(mix.size())), "ns");

  std::size_t form_bytes = 0;
  std::size_t fields = 0;
  const double form_s = TimeSeconds([&] {
    for (int pass = 0; pass < 3; ++pass) {
      for (const weblint::HttpRequest& request : parsed) {
        if (request.method == "POST") {
          form_bytes += request.body.size();
          fields += weblint::ParseFormUrlEncoded(request.body).size();
        }
      }
    }
  });
  report->Add("gateway.form_decode_mb_s", static_cast<double>(form_bytes) / 1e6 / form_s, "MB/s");
  report->Check(fields > 0, "no form fields decoded");

  const weblint::Weblint lint;
  weblint::SocketFetcher socket;
  TracingFetcher fetcher(socket);
  const weblint::Gateway gateway(lint, &fetcher);
  std::vector<double> paste_us;
  std::vector<double> url_us;
  for (std::size_t i = 0; i < 200; ++i) {
    const std::int64_t start = NowNs();
    const weblint::HttpResponse response = gateway.HandleHttp(parsed[i]);
    const double us = static_cast<double>(NowNs() - start) / 1e3;
    (mix[i].paste ? paste_us : url_us).push_back(us);
    report->Check(CheckGatewayReply(response.status, response.body, mix[i]).empty(),
                  "direct gateway reply failed its check");
  }
  report->Add("gateway.handle_paste_us", Median(paste_us), "us");
  report->Add("gateway.handle_url_us", Median(url_us), "us");

  // Served: the real HttpServer, default options, the handler lambda as the
  // seam; one connection, closed loop, so request spans nest cleanly.
  weblint::HttpServer server([&gateway](const weblint::HttpRequest& request) {
    Scope span("handle", "gateway");
    return gateway.HandleHttp(request);
  });
  if (!server.Listen(0).ok() || !server.Start().ok()) {
    report->Check(false, "in-process gateway server failed to start");
    origin.Stop();
    return;
  }
  LoadOptions options;
  options.port = server.port();
  options.connections = 1;
  options.seconds = 60;
  options.max_requests = kGatewayReplayRequests;
  LoadResult load;
  const ReplayTimes times = TracePairs(NoPrepare, [&] {
    Scope root("gateway-replay", "bench");
    load = RunLoad(mix, options);
    for (const LoadSample& s : load.samples) {
      g_tracer.Record("request", "net", load.start_ns + s.send_ns, load.start_ns + s.done_ns);
    }
  });
  report->Check(load.failed == 0 && load.ok == kGatewayReplayRequests,
                StrFormat("served gateway replay: %d failed", load.failed));
  std::vector<double> request_us;
  for (const LoadSample& s : load.samples) {
    request_us.push_back(static_cast<double>(s.done_ns - s.send_ns) / 1e3);
  }
  std::vector<double> handle_us;
  for (const Tracer::Span& span : g_tracer.Named("handle")) {
    handle_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  report->Add("gateway.serve_overhead_us", Median(request_us) - Median(handle_us), "us");
  AddReplay("gateway", times, report, all);
  server.Drain();
  origin.Stop();
}

int Run(int argc, char** argv) {
  Inputs in;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--seed") {
      in.seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--work") {
      in.work = argv[i + 1];
    }
  }
  if (in.work.empty()) {
    std::fprintf(stderr, "pb_layers: --work is required\n");
    return 2;
  }
  Report report;
  const std::int64_t start = NowNs();
  in.corpus = MakeSiteCorpus(in.seed);
  in.docs = in.corpus.Documents();
  for (std::size_t i = 0; i < in.docs.size(); i += 4) {
    in.lint_subset.push_back(in.docs[i]);
    in.lint_subset_bytes += in.docs[i]->html.size();
  }
  for (const CorpusPage& page : in.corpus.pages) {
    const std::string path = in.work + "/site/" + page.path;
    std::filesystem::create_directories(std::filesystem::path(path).parent_path());
    if (!weblint::WriteFile(path, page.html).ok()) {
      std::fprintf(stderr, "pb_layers: cannot write %s\n", path.c_str());
      return 2;
    }
  }

  std::vector<weblint::LintReport> default_reports;
  MeasureHtml(in, &report);
  MeasureCore(in, &report, &default_reports);
  MeasureWarnings(default_reports, &report);
  MeasureCache(in, default_reports, &report);
  CalibrateSpanCost();
  std::vector<ReplayTimes> replays;
  ReplaySites(in, &report, &replays);
  MeasureCrawl(in, &report, &replays);
  MeasureGateway(in, &report, &replays);

  // Self times of every layer but the root ("bench") are attributed; the
  // root's own self time and anything outside the root spans are not.
  double untraced = 0;
  double traced = 0;
  double self_total = 0;
  double corrected = 0;
  double attributed = 0;
  std::size_t spans = 0;
  for (const ReplayTimes& times : replays) {
    untraced += times.untraced_ms;
    traced += times.traced_ms;
    self_total += times.SelfTotalMs();
    corrected += times.CorrectedSelfMs();
    spans += times.spans;
    for (const auto& [layer, ms] : times.self_ms) {
      attributed += layer == "bench" ? 0 : ms;
    }
  }
  report.Add("trace.overhead_pct", (traced - untraced) / untraced * 100.0, "%");
  report.Add("trace.unattributed_pct", (traced - attributed) / traced * 100.0, "%");
  const double reconcile_pct = (corrected - untraced) / untraced * 100.0;
  const std::string reconcile = StrFormat(
      "layer self times sum to %s ms, less %d spans x %s ns recording cost = %s ms, %s%% off the "
      "untraced wall time %s ms (tolerance %s%%)",
      std::to_string(self_total), spans, std::to_string(g_span_cost_ns), std::to_string(corrected),
      std::to_string(reconcile_pct), std::to_string(untraced),
      std::to_string(kReconcileTolerancePct));
  report.Check(std::abs(reconcile_pct) <= kReconcileTolerancePct, reconcile);
  report.notes.push_back(reconcile);
  report.notes.push_back(StrFormat("all four replays run in every traced run; %d spans; %s s total",
                                   g_tracer.size(),
                                   std::to_string(static_cast<double>(NowNs() - start) / 1e9)));
  std::printf("%s\n", report.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
