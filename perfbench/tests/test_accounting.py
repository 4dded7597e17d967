"""Tests for the benchmark's own accounting.

    python3 -m unittest discover -s perfbench/tests

The percentile and oracle helpers are tested directly; the load generator's
open-loop accounting (latency from the due time, lateness, the nproc cap on
connections) is tested by `pb_tool selftest` against the loopback origin,
which the last test builds and runs.
"""

import math
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.nearest_rank(values, 50.0), 50)
        self.assertEqual(run.nearest_rank(values, 99.0), 99)
        self.assertEqual(run.nearest_rank(values, 100.0), 100)
        self.assertEqual(run.nearest_rank([7.0], 99.0), 7.0)

    def test_tail_is_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(10000), 99.9)
        self.assertEqual(run.tail_percentile(1000), 99.0)   # 10 beyond p99; 5 beyond p99.5.
        self.assertEqual(run.tail_percentile(999), 98.0)    # 9 beyond p99.
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(30), 50.0)
        self.assertIsNone(run.tail_percentile(19))

    def test_tail_has_ten_samples_beyond_it(self):
        for n in (20, 57, 200, 1000, 1733, 5000):
            pct = run.tail_percentile(n)
            values = list(range(n))
            cut = run.nearest_rank(values, pct)
            self.assertGreaterEqual(sum(1 for v in values if v > cut), 10, n)

    def test_failed_requests_miss_every_limit(self):
        values = [1.0] * 980 + [float("inf")] * 20
        p50, pct, tail = run.summarize_latency(values)
        self.assertEqual(p50, 1.0)
        self.assertEqual(pct, 99.0)
        self.assertTrue(math.isinf(tail))


class OracleTest(unittest.TestCase):
    TRUTH = {"pages": [
        {"path": "index.html", "kind": "index", "orphan": False, "expected": []},
        {"path": "sec0/doc0000.html", "kind": "defective", "orphan": False,
         "expected": ["img-alt"]},
        {"path": "sec0/doc0001.html", "kind": "text-heavy", "orphan": True, "expected": []},
    ]}
    REPORT = (
        "site/sec0/doc0000.html(3): IMG does not have ALT text defined [style/img-alt]\n"
        "    An IMG element has no ALT text.\n"
        "site/sec0/doc0000.html(9): unknown element <X> [error/unknown-element]\n"
        "    desc\n"
        "site/sec0/doc0001.html: page site/sec0/doc0001.html is not linked [style/orphan-page]\n"
        "    desc\n")

    def test_passes_and_converts_to_short_form(self):
        ledger = run.Ledger()
        short = run.check_site_oracle(self.REPORT, self.TRUTH, ledger)
        self.assertEqual(ledger.failed, 0, ledger.reasons)
        self.assertEqual(short.decode().splitlines(), [
            "line 3: IMG does not have ALT text defined",
            "line 9: unknown element <X>",
            "page site/sec0/doc0001.html is not linked",
        ])

    def test_missing_defect_fails(self):
        ledger = run.Ledger()
        report = "\n".join(self.REPORT.splitlines()[2:]) + "\n"
        run.check_site_oracle(report, self.TRUTH, ledger)
        self.assertEqual(ledger.failed, 1)

    def test_diagnostic_on_clean_page_fails(self):
        ledger = run.Ledger()
        report = self.REPORT + "site/index.html(1): stray [warning/x]\n    desc\n"
        run.check_site_oracle(report, self.TRUTH, ledger)
        self.assertEqual(ledger.failed, 1)

    def test_poacher_summary(self):
        text = ("\n--- poacher summary ---\npages checked:     301\nfetch failures:    4\n"
                "pages degraded:    0\nrobots.txt skips:  2\ndiagnostics:       0\n"
                "broken links:      4\n  404 http://h/missing0.html (from http://h/page1.html)\n"
                "redirected links:  3\n")
        self.assertEqual(run.parse_poacher_summary(text), {
            "pages_checked": 301, "fetch_failures": 4, "degraded": 0, "robots_skips": 2,
            "diagnostics": 0, "broken_links": 4, "redirected_links": 3})


class LoadGeneratorTest(unittest.TestCase):
    def test_selftest(self):
        bins = run.binaries(run.build())
        out = subprocess.run([bins["tool"], "selftest"], capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)


if __name__ == "__main__":
    unittest.main()
