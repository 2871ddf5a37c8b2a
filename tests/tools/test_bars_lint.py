#!/usr/bin/env python3
"""Self-test for tools/bars_lint.py: every rule must catch its seeded
fixture, the clean fixture must pass, suppressions must silence, and the
real src/ tree must be --strict clean. Stdlib-only; run via ctest
(tools.bars_lint_selftest) or directly."""

import os
import subprocess
import sys
import unittest

REPO = os.environ.get(
    "BARS_REPO_ROOT",
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))
LINT = os.path.join(REPO, "tools", "bars_lint.py")
FIXTURES = os.path.join(REPO, "tests", "tools", "fixtures")


def run_lint(*args):
    proc = subprocess.run(
        [sys.executable, LINT, *args],
        capture_output=True, text=True, cwd=REPO)
    return proc.returncode, proc.stdout + proc.stderr


def fixture(name):
    return os.path.join(FIXTURES, name)


class FixtureViolations(unittest.TestCase):
    """Each seeded-violation fixture is caught by exactly its rule."""

    # fixture -> (expected rule, minimum finding count)
    CASES = {
        "bad_nondeterminism.cpp": ("nondeterminism", 4),
        "bad_unordered.cpp": ("unordered-iteration", 1),
        "bad_hot_noalloc.cpp": ("hot-noalloc", 4),
        "bad_raw_mutex.cpp": ("raw-mutex", 3),
        "bad_verify_seam.cpp": ("verify-seam", 2),
        "bad_raw_assert.cpp": ("raw-assert", 2),
        "bad_fp_literal.cpp": ("fp-literal", 2),
        "bad_include.cpp": ("include-hygiene", 2),
        "bad_header_guard.hpp": ("header-guard", 1),
        "bad_backend_seam.cpp": ("backend-seam", 3),
    }

    def test_each_rule_catches_its_fixture(self):
        for name, (rule, min_count) in self.CASES.items():
            with self.subTest(fixture=name):
                code, out = run_lint("--strict", "--treat-as", "src/core",
                                     fixture(name))
                self.assertEqual(code, 1, f"{name} should gate:\n{out}")
                hits = out.count(f"[{rule}]")
                self.assertGreaterEqual(
                    hits, min_count,
                    f"{name}: expected >= {min_count} [{rule}] findings, "
                    f"got {hits}:\n{out}")

    def test_verify_seam_spares_static_members(self):
        # std::thread::hardware_concurrency is a query, not a spawn; the
        # fixture's last line must stay clean.
        code, out = run_lint("--strict", "--treat-as", "src/core",
                             fixture("bad_verify_seam.cpp"))
        self.assertEqual(code, 1, out)
        self.assertNotIn("bad_verify_seam.cpp:12", out)

    def test_findings_name_file_and_line(self):
        code, out = run_lint("--strict", "--treat-as", "src/core",
                             fixture("bad_raw_assert.cpp"))
        self.assertEqual(code, 1)
        self.assertRegex(out, r"bad_raw_assert\.cpp:\d+: error:")

    def test_scratch_receivers_exempt_in_hot_bodies(self):
        code, out = run_lint("--strict", "--treat-as", "src/core",
                             fixture("bad_hot_noalloc_scratch.cpp"))
        self.assertEqual(code, 1, out)
        self.assertIn("results.resize", out)
        self.assertNotIn("scratch_a", out)

    def test_telemetry_record_rule_catches_fixture(self):
        code, out = run_lint("--strict", "--treat-as", "src/telemetry",
                             fixture("bad_telemetry_record.cpp"))
        self.assertEqual(code, 1, out)
        hits = out.count("[telemetry-record-hot]")
        self.assertEqual(
            hits, 3,
            "expected exactly the three unmarked record-path methods "
            f"(marked methods and on_* callbacks are exempt):\n{out}")

    def test_telemetry_record_rule_scoped_to_telemetry_dir(self):
        _, out = run_lint("--treat-as", "src/core",
                          fixture("bad_telemetry_record.cpp"))
        self.assertNotIn("[telemetry-record-hot]", out)

    def test_unbounded_retry_rule_catches_fixture(self):
        code, out = run_lint("--strict", "--treat-as", "src/service",
                             fixture("bad_unbounded_retry.cpp"))
        self.assertEqual(code, 1, out)
        hits = out.count("[unbounded-retry]")
        self.assertEqual(
            hits, 2,
            "expected exactly the two blind sleeps (the capped retry "
            f"carries its bound in view and is exempt):\n{out}")

    def test_backend_seam_spares_backend_dir_and_type_mentions(self):
        # build_kernel itself constructs kernels, so the same file
        # treated as src/backend must pass; and merely *naming* the type
        # (the describe() line) is never a finding.
        code, out = run_lint("--strict", "--treat-as", "src/backend",
                             fixture("bad_backend_seam.cpp"))
        self.assertEqual(code, 0, f"src/backend must be exempt:\n{out}")
        _, out = run_lint("--strict", "--treat-as", "src/core",
                          fixture("bad_backend_seam.cpp"))
        for line in out.splitlines():
            if "[backend-seam]" in line:
                self.assertNotIn(":29:", line)  # describe() stays clean

    def test_unbounded_retry_scoped_to_service_dir(self):
        _, out = run_lint("--treat-as", "src/core",
                          fixture("bad_unbounded_retry.cpp"))
        self.assertNotIn("[unbounded-retry]", out)

    def test_unmarked_functions_may_allocate(self):
        _, out = run_lint("--strict", "--treat-as", "src/core",
                          fixture("bad_hot_noalloc.cpp"))
        self.assertNotIn("cold_path", out)
        for line in out.splitlines():
            if "[hot-noalloc]" in line:
                # cold_path's resize is on line 17 of the fixture;
                # nothing past the hot body's closing brace may appear.
                self.assertNotIn(":17:", line)


class CleanAndSuppressed(unittest.TestCase):
    def test_clean_fixture_passes(self):
        code, out = run_lint("--strict", "--treat-as", "src/core",
                             fixture("clean.cpp"))
        self.assertEqual(code, 0, f"clean fixture flagged:\n{out}")

    def test_suppressions_silence_findings(self):
        code, out = run_lint("--strict", "--treat-as", "src/core",
                             fixture("suppressed.cpp"))
        self.assertEqual(code, 0, f"suppressed fixture flagged:\n{out}")

    def test_advisory_rules_gate_only_in_strict(self):
        code_strict, _ = run_lint("--strict", "--treat-as", "src/core",
                                  fixture("bad_unordered.cpp"))
        code_loose, out = run_lint("--treat-as", "src/core",
                                   fixture("bad_unordered.cpp"))
        self.assertEqual(code_strict, 1)
        self.assertEqual(code_loose, 0,
                         f"advisory finding gated without --strict:\n{out}")
        self.assertIn("[unordered-iteration]", out)  # still reported


class RuleSelection(unittest.TestCase):
    def test_rule_filter(self):
        code, out = run_lint("--strict", "--rule", "raw-mutex",
                             "--treat-as", "src/core",
                             fixture("bad_nondeterminism.cpp"))
        self.assertEqual(code, 0, f"filtered rule still fired:\n{out}")

    def test_unknown_rule_rejected(self):
        code, _ = run_lint("--rule", "no-such-rule", fixture("clean.cpp"))
        self.assertEqual(code, 2)

    def test_list_rules(self):
        code, out = run_lint("--list-rules")
        self.assertEqual(code, 0)
        for rule in ("nondeterminism", "hot-noalloc", "raw-mutex",
                     "raw-assert", "fp-literal", "include-hygiene",
                     "header-guard", "unordered-iteration",
                     "telemetry-record-hot", "unbounded-retry",
                     "backend-seam"):
            self.assertIn(rule, out)


class RealTree(unittest.TestCase):
    def test_src_is_strict_clean(self):
        code, out = run_lint("--strict", os.path.join(REPO, "src"))
        self.assertEqual(code, 0, f"src/ must stay lint-clean:\n{out}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
