#!/usr/bin/env python3
"""The weblint++ repo benchmark.

    python3 perfbench/run.py --workload site-cold --seed 1 --seconds 10 --trace 0

Builds the code under test from the checkout's src/ tree (one fixed Release
build, in its own build directory), generates the workload's inputs from the
seed, runs the real products -- weblint, poacher, weblint-gateway -- from their
CLIs, checks every output against the generator's ground truth, and prints a
report. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced in-process
replay (pb_layers) and reports the per-layer metrics. perfbench/README.md
defines every metric and workload.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD_TYPE = "Release"
TARGETS = ["weblint", "poacher", "weblint-gateway", "pb_tool", "pb_layers"]
WORKLOADS = ["site-cold", "site-warm", "crawl", "gateway"]

# The workload constants (corpus size, crawl site, origin delays, gateway
# rate) live in perfbench/src/corpus.h and tool_main.cc, where both pb_tool
# and pb_layers read them.
SETUP_REPEATS = 21            # set-up measurements per run; the median is reported.
MIN_GATEWAY_SAMPLES = 1000    # open-loop requests per run, so p99 has >= 10 beyond.

TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


# Loopback requests must never go through a proxy named in the environment.
LOCAL_HTTP = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def nproc():
    return os.cpu_count() or 1


# ---------------------------------------------------------------- accounting


def nearest_rank(sorted_values, pct):
    """The pct-th percentile by nearest rank: the smallest value with at
    least pct% of the samples at or below it."""
    n = len(sorted_values)
    rank = max(1, -(-int(round(pct * n * 1000)) // 100000))  # ceil(pct/100 * n)
    return sorted_values[min(rank, n) - 1]


def tail_percentile(n):
    """The highest percentile on TAIL_LADDER with at least ten of `n` samples
    strictly beyond its nearest rank, or None when even the median has not."""
    for pct in TAIL_LADDER:
        rank = -(-int(round(pct * n * 1000)) // 100000)
        if n - rank >= 10:
            return pct
    return None


def summarize_latency(values):
    """Median and tail of `values` (failed operations are float('inf'), so
    they count as missing any limit). Returns (p50, tail_pct, tail_value)."""
    ordered = sorted(values)
    pct = tail_percentile(len(ordered))
    if pct is None:
        pct = 50.0
    return nearest_rank(ordered, 50.0), pct, nearest_rank(ordered, pct)


# --------------------------------------------------------------------- build


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the code under test. Returns the build
    directory, or exits 2 when there is nothing to build."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_setup(f"no weblint source tree at {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "build.log", "ab") as log:
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH), "-B", str(out), f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                fail_setup(f"cmake configure failed; see {out / 'build.log'}")
        cmd = ["cmake", "--build", str(out), "-j", str(nproc()), "--target"] + TARGETS
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail_setup(f"build failed; see {out / 'build.log'}")
    return out


def fail_setup(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def binaries(out):
    return {
        "weblint": str(out / "weblint" / "tools" / "weblint"),
        "poacher": str(out / "weblint" / "tools" / "poacher"),
        "gateway": str(out / "weblint" / "tools" / "weblint-gateway"),
        "tool": str(out / "pb_tool"),
        "layers": str(out / "pb_layers"),
    }


def stamp(bins):
    info = json.loads(subprocess.check_output([bins["tool"], "build-info"], text=True))
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.check_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                          text=True, stderr=subprocess.DEVNULL).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "compiler": info["compiler"],
        "build_type": BUILD_TYPE,
        "simd": info["simd"],
        "nproc": nproc(),
    }


# --------------------------------------------------------------- processes


class Timed:
    """One finished child: wall seconds, CPU seconds and max RSS (MB) from
    its rusage, exit code, and stdout."""

    def __init__(self, wall, ru, code, stdout):
        self.wall = wall
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.code = code
        self.stdout = stdout


def run_timed(argv, cwd, out_path):
    """Spawns argv with stdout to out_path, waits with wait4 for its rusage."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Timed(wall, ru, proc.returncode, Path(out_path).read_bytes())


class Ledger:
    """Counts operations and failures; keeps the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 8:
                self.reasons.append(reason)
        return ok


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------- site oracle


def check_site_oracle(verbose_text, truth, ledger):
    """Checks a `weblint -R -v` report against the generator's ground truth:
    each seeded defect's expected message id appears for its page, clean
    pages have no diagnostics, and orphan-page fires exactly for the orphans.
    Returns the report converted to -s form (the reference for -s runs)."""
    by_page = {}
    short_lines = []
    lines = verbose_text.split("\n")
    for line in lines:
        if not line or line.startswith("    "):
            continue  # Blank tail or a -v description line.
        body, sep, tag = line.rpartition(" [")
        if not sep or not tag.endswith("]") or "/" not in tag:
            ledger.check(False, f"unparsable report line: {line[:80]}")
            continue
        message_id = tag[:-1].split("/", 1)[1]
        head, sep, message = body.partition(": ")
        if head.endswith(")") and "(" in head:
            page, _, number = head[:-1].rpartition("(")
            short_lines.append(f"line {number}: {message}")
        else:
            page = head
            short_lines.append(message)
        by_page.setdefault(page.removeprefix("site/"), set()).add(message_id)
    for page in truth["pages"]:
        found = by_page.pop(page["path"], set())
        expected = set(page["expected"])
        if page["orphan"]:
            expected.add("orphan-page")
        ok = expected <= found if page["kind"] == "defective" else found == expected
        ledger.check(ok, f"{page['path']}: expected {sorted(expected)}, found {sorted(found)}")
    ledger.check(not by_page, f"diagnostics for unknown pages: {sorted(by_page)[:3]}")
    return ("\n".join(short_lines) + "\n").encode() if short_lines else b""


def prepare_site(bins, work, seed, ledger):
    subprocess.check_call([bins["tool"], "gen-site", "--seed", str(seed), "--out", str(work)])
    truth = json.loads((work / "truth.json").read_text())
    oracle = run_timed([bins["weblint"], "-R", "-v", "-j", str(nproc()), "--no-cache", "site"],
                       work, work / "oracle.txt")
    ledger.check(oracle.code == 1, f"oracle run exit {oracle.code}, want 1")
    reference = check_site_oracle(oracle.stdout.decode(), truth, ledger)
    return truth, reference


def site_command(bins, cache_dir, jobs=None, target="site"):
    return [bins["weblint"], "-R", "-s", "-j", str(jobs or nproc()), "--cache-dir", str(cache_dir),
            target]


def measure_runs(seconds, one_run):
    """Calls one_run() until `seconds` have passed; returns the Timed list."""
    runs = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not runs:
        runs.append(one_run())
    return runs


def tool_metrics(runs, pages, setup_times):
    walls = [r.wall * 1000.0 for r in runs]
    p50, pct, tail = summarize_latency(walls)
    metrics = {
        "pages_per_s": (pages / (p50 / 1000.0), "1/s"),
        "cpu_s": (statistics.median(r.cpu for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (nearest_rank(sorted(walls), 90.0), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = [f"runs={len(runs)} pages_per_run={pages}; run wall time tail: p{pct:g}={tail:.3f} ms "
             f"(n={len(runs)}, the highest percentile with >= 10 runs beyond it)"]
    return metrics, notes


def run_site(bins, work, seed, seconds, warm):
    ledger = Ledger()
    truth, reference = prepare_site(bins, work, seed, ledger)
    pages = len(truth["pages"])

    def cold_run(out_name, jobs=None):
        cache = fresh_dir(work / "cache-cold")
        run = run_timed(site_command(bins, cache, jobs), work, work / out_name)
        ledger.check(run.code == 1 and run.stdout == reference,
                     f"cold -j{jobs or nproc()} output differs from the checked reference")
        return run

    # -j1 must match -jN byte for byte, once per seed.
    cold_run("j1.txt", jobs=1)
    if warm:
        cache = fresh_dir(work / "cache")
        fill = run_timed(site_command(bins, cache), work, work / "fill.txt")
        ledger.check(fill.code == 1 and fill.stdout == reference,
                     "cache-filling cold run differs from the checked reference")
        one_cache = fresh_dir(work / "cache-one")
        run_timed(site_command(bins, one_cache, target="one"), work, work / "one.txt")

        def one_run():
            run = run_timed(site_command(bins, cache), work, work / "warm.txt")
            ledger.check(run.code == 1 and run.stdout == reference,
                         "warm output differs from cold")
            return run

        def setup_run():
            return run_timed(site_command(bins, one_cache, target="one"), work, work / "one.txt")
    else:
        def one_run():
            return cold_run("cold.txt")

        def setup_run():
            return run_timed(site_command(bins, fresh_dir(work / "cache-one"), target="one"),
                             work, work / "one.txt")

    setup_times = [setup_run().wall for _ in range(SETUP_REPEATS)]
    for _ in range(2):  # Warm-up runs, discarded (their outputs are still checked).
        one_run()
    runs = measure_runs(seconds, one_run)
    metrics, notes = tool_metrics(runs, pages, setup_times)
    return metrics, notes, ledger


# --------------------------------------------------------------------- crawl


class OriginProcess:
    """pb_tool origin, stopped by closing its stdin."""

    def __init__(self, bins, args):
        self.proc = subprocess.Popen([bins["tool"], "origin"] + args, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.stop()
            raise RuntimeError("origin did not start")
        self.port = int(line[1])

    def stats(self, reset=False):
        path = "reset" if reset else "stats"
        with LOCAL_HTTP.open(f"http://127.0.0.1:{self.port}/.perfbench/{path}",
                             timeout=10) as reply:
            return json.loads(reply.read())

    def stop(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def parse_poacher_summary(text):
    counts = {}
    for key, label in (("pages_checked", "pages checked:"), ("broken_links", "broken links:"),
                       ("redirected_links", "redirected links:"),
                       ("robots_skips", "robots.txt skips:"), ("diagnostics", "diagnostics:"),
                       ("fetch_failures", "fetch failures:"), ("degraded", "pages degraded:")):
        for line in text.splitlines():
            if line.startswith(label):
                counts[key] = int(line[len(label):].split()[0])
    return counts


def crawl_notes(stats, prefetch, wall_ms):
    """What the crawl's wall time is made of: the delay floor (every request
    waits the origin's delay, at most `prefetch` at a time) and the rest --
    crawl loop, lint, link validation and fetch overhead not hidden by
    overlap."""
    requests = stats["gets"] + stats["heads"]
    floor_ms = requests * stats["delay_us"] / 1000.0 / prefetch
    share = floor_ms / wall_ms
    return [f"origin per crawl: {stats['gets']} GET, {stats['heads']} HEAD, peak in-flight "
            f"{stats['max_inflight']}, delay {stats['delay_us']} us",
            f"delay floor {requests} requests x {stats['delay_us']} us / {prefetch} in flight = "
            f"{floor_ms:.1f} ms, {share:.0%} of the median crawl wall time; the other "
            f"{1 - share:.0%} is crawl loop, lint, link validation and fetch cost that overlap "
            "did not hide"]


def run_crawl(bins, work, seed, seconds):
    ledger = Ledger()
    truth_path = work / "crawl-truth.json"
    origin = OriginProcess(bins, ["--mode", "crawl", "--seed", str(seed), "--truth",
                                  str(truth_path)])
    try:
        truth = json.loads(truth_path.read_text())

        def crawl(url, out_name, jobs=None):
            jobs = str(jobs or nproc())
            return run_timed([bins["poacher"], "-s", "-j", jobs, "--prefetch", str(nproc()),
                              "--http", url], work, work / out_name)

        # The first crawl is checked against the generator's ground truth;
        # every later one (and a -j1 crawl) must repeat it byte for byte.
        origin.stats(reset=True)
        first = crawl(truth["start"], "crawl-first.txt")
        counts = parse_poacher_summary(first.stdout.decode())
        for key in ("pages_checked", "broken_links", "redirected_links", "robots_skips"):
            ledger.check(counts.get(key) == truth[key],
                         f"crawl {key}={counts.get(key)}, generated site has {truth[key]}")
        ledger.check(counts.get("diagnostics") == 0 and counts.get("fetch_failures") ==
                     truth["broken_links"] and counts.get("degraded") == 0,
                     f"crawl of a clean site reported {counts}")
        first_stats = origin.stats()
        ledger.check(first_stats["watched_hits"] == 0,
                     "crawl fetched an orphan or robots-private page")
        ledger.check(first_stats["heads"] == truth["images"],
                     f"crawl sent {first_stats['heads']} HEADs to validate {truth['images']} "
                     "images")
        reference = first.stdout
        j1 = crawl(truth["start"], "crawl-j1.txt", jobs=1)
        ledger.check(j1.stdout == reference, "crawl -j1 output differs from -jN")

        def one_run():
            run = crawl(truth["start"], "crawl.txt")
            ledger.check(run.code == 1 and run.stdout == reference,
                         "crawl output differs from the checked first crawl")
            return run

        setup_times = []
        for _ in range(SETUP_REPEATS):
            one = crawl(truth["one"], "one.txt")
            ledger.check(one.code == 0, f"one-page crawl exit {one.code}, want 0")
            setup_times.append(one.wall)
        one_run()  # Warm-up, discarded.
        runs = measure_runs(seconds, one_run)
        metrics, notes = tool_metrics(runs, truth["pages_checked"], setup_times)
        notes += crawl_notes(first_stats, nproc(), metrics["latency_p50_ms"][0])
        return metrics, notes, ledger
    finally:
        origin.stop()


# ------------------------------------------------------------------- gateway


class GatewayProcess:
    """weblint-gateway --serve on an ephemeral port, default flags."""

    def __init__(self, bins):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen([bins["gateway"], "--serve", "--port", "0"],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        line = self.proc.stderr.readline()
        marker = "http://127.0.0.1:"
        if marker not in line:
            self.stop()
            raise RuntimeError(f"gateway did not start: {line.strip()}")
        self.port = int(line.split(marker, 1)[1].split("/", 1)[0])

    def wait_healthy(self):
        """Seconds from spawn until /healthz answers 200."""
        while True:
            try:
                with LOCAL_HTTP.open(f"http://127.0.0.1:{self.port}/healthz",
                                     timeout=5) as reply:
                    if reply.status == 200:
                        return time.perf_counter() - self.start
            except OSError:
                pass
            if time.perf_counter() - self.start > 30:
                raise RuntimeError("gateway never became healthy")
            time.sleep(0.0005)

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM (the gateway drains), then reap. Returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()
        return self.proc.returncode


def run_gateway(bins, work, seed, seconds):
    ledger = Ledger()
    origin = OriginProcess(bins, ["--mode", "gateway", "--seed", str(seed)])
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            probe = GatewayProcess(bins)
            try:
                setup_times.append(probe.wait_healthy())
            finally:
                ledger.check(probe.stop() == 0, "gateway did not drain cleanly on SIGTERM")

        server = GatewayProcess(bins)
        try:
            server.wait_healthy()
            load = json.loads(subprocess.check_output(
                [bins["tool"], "gateway-load", "--seed", str(seed), "--gateway-port",
                 str(server.port), "--origin-port", str(origin.port), "--server-pid",
                 str(server.proc.pid), "--seconds", f"{seconds:.3f}"], text=True))
            rss = server.peak_rss_mb()
        finally:
            ledger.check(server.stop() == 0, "gateway did not drain cleanly on SIGTERM")
    finally:
        origin.stop()

    opened, closed = load["open"], load["closed"]
    for data in (load["warmup"], opened, closed):
        ledger.attempted += data["attempted"]
        ledger.failed += data["failed"]
        ledger.reasons += data["failures"][: max(0, 8 - len(ledger.reasons))]

    samples = opened["samples"]
    latencies = sorted((done - due) / 1e6 if ok else float("inf")
                       for due, _send, done, ok, _queued in samples)
    ledger.check(len(samples) == load["mix"] >= MIN_GATEWAY_SAMPLES,
                 f"open loop sent {len(samples)} of {load['mix']} requests")
    lateness = sorted((send - due) / 1e6 for due, send, _done, _ok, queued in samples
                      if not queued)
    queued = sum(1 for s in samples if s[4])
    p50, pct, tail = summarize_latency(latencies)
    req_per_s = closed["ok"] / closed["window_s"]
    metrics = {
        "pages_per_s": (req_per_s, "1/s"),
        "cpu_s": (load["open_server_cpu_s"], "s"),
        "peak_rss_mb": (rss, "MB"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (nearest_rank(latencies, 90.0), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = [
        f"open loop: {load['rate']:g} req/s, {len(samples)} requests ({load['mix_paste']} "
        f"pastes), {opened['connections']} connections",
        f"latency_p99_ms={nearest_rank(latencies, 99.0):.3f} ms (n={len(latencies)}); "
        f"tail: p{pct:g}={tail:.3f} ms, the highest percentile with >= 10 samples beyond it",
        f"generator lateness: p50={nearest_rank(lateness, 50.0) if lateness else 0:.3f} ms "
        f"max={lateness[-1] if lateness else 0:.3f} ms; {queued} requests queued for a free "
        "connection",
        f"closed loop: {closed['connections']} connections for {closed['window_s']:.1f} s; "
        f"req_per_s={req_per_s:.1f}",
    ]
    return metrics, notes, ledger


# --------------------------------------------------------------------- trace


def run_traced(bins, work, seed):
    """The per-layer metrics: pb_layers replays every workload's seeded
    inputs in-process (fixed work, so the run length does not apply)."""
    out = subprocess.check_output([bins["layers"], "--seed", str(seed), "--work", str(work)],
                                  text=True)
    report = json.loads(out.strip().splitlines()[-1])
    ledger = Ledger()
    ledger.attempted = report["attempted"]
    ledger.failed = report["failed"]
    ledger.reasons = report["failures"]
    metrics = {name: (value, unit) for name, (value, unit) in report["metrics"].items()}
    return metrics, report["notes"], ledger


# ---------------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = build()
    bins = binaries(out)
    info = stamp(bins)
    work = fresh_dir(out / "work" / f"{args.workload}-{args.seed}-{args.trace}")
    try:
        if args.trace:
            metrics, notes, ledger = run_traced(bins, work, args.seed)
        elif args.workload in ("site-cold", "site-warm"):
            metrics, notes, ledger = run_site(bins, work, args.seed, args.seconds,
                                              warm=args.workload == "site-warm")
        elif args.workload == "crawl":
            metrics, notes, ledger = run_crawl(bins, work, args.seed, args.seconds)
        else:
            metrics, notes, ledger = run_gateway(bins, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    error_rate = ledger.failed / max(1, ledger.attempted)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("stamp " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.4f} {unit}")
    print(f"  {'error_rate':<32} {error_rate:>14.6f} ratio "
          f"({ledger.failed} failed of {ledger.attempted} attempted)")
    for note in notes:
        print(f"  note: {note}")
    for reason in ledger.reasons:
        print(f"  FAILED: {reason}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
