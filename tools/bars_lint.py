#!/usr/bin/env python3
"""bars_lint: project-specific determinism / hot-path / hygiene linter.

The solver's correctness argument (bounded-staleness chaotic relaxation,
Eq. (4) of the paper) depends on contracts that a C++ compiler does not
check: the deterministic core must not consume nondeterminism sources,
hot-path functions must not allocate, and every lock must go through the
annotated wrappers so clang's -Wthread-safety can see it. This linter
turns those prose contracts (docs/PERFORMANCE.md, docs/STATIC_ANALYSIS.md)
into machine-checked rules. Stdlib-only; no third-party dependencies.

Usage:
    tools/bars_lint.py [--strict] [--rule NAME ...] [--treat-as PREFIX]
                       [--list-rules] [PATH ...]

PATH defaults to `src` relative to the repository root (the directory
containing this script's parent). Exit status: 0 = clean, 1 = findings
at error severity (with --strict, advisory findings gate too), 2 = bad
invocation.

Suppressions:
    some_call();  // bars-lint: allow(rule-name)        same line
    // bars-lint: allow(rule-name, other-rule)          next line
    // bars-lint: allow-file(rule-name)                 whole file
Every suppression should carry a justification in the surrounding
comment; CI reviewers treat bare suppressions as defects.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import sys
from dataclasses import dataclass, field

# Directories (repo-relative, forward slashes) forming the deterministic
# core: identical inputs + identical seeds must give bit-identical
# results, so wall clocks, OS entropy, and address-seeded hashing are
# banned outright.
DETERMINISTIC_CORE = ("src/backend/", "src/core/", "src/gpusim/",
                      "src/sparse/")

# Kernel code paths that must stay bitwise-reproducible across builds:
# mixed float/double arithmetic (or f-suffixed literals) silently changes
# rounding, which shows up as "same seed, different convergence curve".
KERNEL_PATHS = DETERMINISTIC_CORE

# The annotated wrappers themselves necessarily touch std::mutex, and
# the schedule controller (src/verify) deliberately runs on raw
# primitives: it IS the instrumentation layer, so routing it through the
# wrappers it virtualizes would recurse.
RAW_MUTEX_EXEMPT = ("src/common/", "src/verify/")

# Same exemptions for thread spawns: common/thread.hpp wraps std::thread
# and the controller manages already-wrapped threads.
VERIFY_SEAM_EXEMPT = RAW_MUTEX_EXEMPT

SUPPRESS_RE = re.compile(r"bars-lint:\s*allow\(([^)]*)\)")
SUPPRESS_FILE_RE = re.compile(r"bars-lint:\s*allow-file\(([^)]*)\)")


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    severity: str  # "error" | "advisory"
    message: str

    def format(self) -> str:
        sev = "error" if self.severity == "error" else "warning"
        return f"{self.path}:{self.line}: {sev}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """One scanned file: raw lines plus comment/string-stripped lines."""

    path: str        # filesystem path (for reporting)
    scope_path: str  # repo-relative path used for rule scoping
    raw: list[str] = field(default_factory=list)
    code: list[str] = field(default_factory=list)  # stripped lines
    line_allow: dict[int, set[str]] = field(default_factory=dict)
    file_allow: set[str] = field(default_factory=set)

    @property
    def is_header(self) -> bool:
        return self.scope_path.endswith((".hpp", ".h"))

    def allowed(self, rule: str, line_no: int) -> bool:
        if rule in self.file_allow:
            return True
        for ln in (line_no, line_no - 1):
            if rule in self.line_allow.get(ln, set()):
                return True
        return False

    def in_dirs(self, prefixes) -> bool:
        return self.scope_path.startswith(tuple(prefixes))


def _strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out comments, string and char literals, preserving line
    numbering and column positions (replaced with spaces)."""
    out = []
    in_block = False
    for line in lines:
        buf = []
        i, n = 0, len(line)
        state = "code" if not in_block else "block"
        quote = ""
        while i < n:
            c = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if state == "code":
                if c == "/" and nxt == "/":
                    buf.append(" " * (n - i))
                    i = n
                    continue
                if c == "/" and nxt == "*":
                    state = "block"
                    buf.append("  ")
                    i += 2
                    continue
                if c in ('"', "'"):
                    state = "str"
                    quote = c
                    buf.append(c)
                    i += 1
                    continue
                buf.append(c)
                i += 1
            elif state == "block":
                if c == "*" and nxt == "/":
                    state = "code"
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            else:  # string / char literal
                if c == "\\":
                    buf.append("  ")
                    i += 2
                elif c == quote:
                    state = "code"
                    buf.append(c)
                    i += 1
                else:
                    buf.append(" ")
                    i += 1
        in_block = state == "block"
        out.append("".join(buf))
    return out


def load_file(path: str, scope_path: str) -> SourceFile:
    with open(path, encoding="utf-8", errors="replace") as f:
        raw = f.read().splitlines()
    sf = SourceFile(path=path, scope_path=scope_path, raw=raw)
    sf.code = _strip_comments_and_strings(raw)
    for idx, line in enumerate(raw, start=1):
        m = SUPPRESS_RE.search(line)
        if m:
            sf.line_allow[idx] = {r.strip() for r in m.group(1).split(",")}
        m = SUPPRESS_FILE_RE.search(line)
        if m:
            sf.file_allow |= {r.strip() for r in m.group(1).split(",")}
    return sf


# --------------------------------------------------------------------- rules


class Rule:
    name = "base"
    severity = "error"
    doc = ""

    def applies(self, sf: SourceFile) -> bool:
        return True

    def check(self, sf: SourceFile) -> list[Finding]:
        raise NotImplementedError

    def _finding(self, sf: SourceFile, line: int, msg: str) -> Finding:
        return Finding(sf.path, line, self.name, self.severity, msg)


class TokenRule(Rule):
    """Flags regex tokens on comment/string-stripped lines."""

    tokens: list[tuple[re.Pattern, str]] = []

    def check(self, sf: SourceFile) -> list[Finding]:
        out = []
        for idx, line in enumerate(sf.code, start=1):
            for pat, why in self.tokens:
                if pat.search(line) and not sf.allowed(self.name, idx):
                    out.append(self._finding(sf, idx, why))
        return out


class Nondeterminism(TokenRule):
    name = "nondeterminism"
    doc = ("Wall clocks, OS entropy, and libc rand are banned in the "
           "deterministic core (src/core, src/gpusim, src/sparse): "
           "results must be a pure function of inputs and seeds. Use "
           "stats/rng.hpp (seeded) and virtual time instead.")
    tokens = [
        (re.compile(r"\brand\s*\("), "libc rand(): unseeded global state"),
        (re.compile(r"\bsrand\s*\("), "srand(): global RNG state"),
        (re.compile(r"std::random_device"),
         "std::random_device: OS entropy breaks run-to-run reproducibility"),
        (re.compile(r"\btime\s*\("), "time(): wall clock in core logic"),
        (re.compile(r"\bclock\s*\("), "clock(): wall clock in core logic"),
        (re.compile(r"_clock\s*::\s*now\b"),
         "chrono clock read: core logic must use virtual time"),
        (re.compile(r"\bgetenv\s*\("),
         "getenv(): environment-dependent behavior in core logic"),
    ]

    def applies(self, sf: SourceFile) -> bool:
        return sf.in_dirs(DETERMINISTIC_CORE)


class UnorderedIteration(TokenRule):
    name = "unordered-iteration"
    severity = "advisory"
    doc = ("std::unordered_{map,set} iteration order depends on hashing "
           "and allocation addresses; in the deterministic core that "
           "nondeterminism leaks into results. Use std::map, a sorted "
           "vector, or suppress with a comment proving iteration order "
           "never escapes.")
    tokens = [
        (re.compile(r"std::unordered_(map|set|multimap|multiset)\b"),
         "unordered container in the deterministic core"),
    ]

    def applies(self, sf: SourceFile) -> bool:
        return sf.in_dirs(DETERMINISTIC_CORE)


class RawMutex(TokenRule):
    name = "raw-mutex"
    doc = ("Raw std::mutex / condition_variable / lock types are "
           "invisible to clang -Wthread-safety. Use bars::common::Mutex, "
           "MutexLock, and ConditionVariable (common/annotations.hpp) so "
           "every lock stays analyzable. Exempt: src/common itself.")
    tokens = [
        (re.compile(r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex)\b"),
         "raw std mutex type; use bars::common::Mutex"),
        (re.compile(r"std::condition_variable\b"),
         "raw condition_variable; use bars::common::ConditionVariable"),
        (re.compile(r"std::(lock_guard|unique_lock|scoped_lock)\b"),
         "raw lock wrapper; use bars::common::MutexLock"),
    ]

    def applies(self, sf: SourceFile) -> bool:
        return sf.scope_path.startswith("src/") and not sf.in_dirs(
            RAW_MUTEX_EXEMPT)


class VerifySeam(TokenRule):
    name = "verify-seam"
    doc = ("Threads spawned with raw std::thread/std::jthread/"
           "pthread_create are invisible to the schedule explorer "
           "(docs/VERIFY.md): the model checker can only control threads "
           "created through bars::common::Thread. Static members like "
           "std::thread::hardware_concurrency stay legal. Exempt: "
           "src/common (the wrapper itself) and src/verify (the "
           "controller).")
    tokens = [
        # `std::thread` as a type (construction, members, vectors of) but
        # not `std::thread::...` static member access.
        (re.compile(r"std::thread\b(?!\s*::)"),
         "raw std::thread spawn; use bars::common::Thread so the "
         "verifier controls it"),
        (re.compile(r"std::jthread\b"),
         "raw std::jthread spawn; use bars::common::Thread"),
        (re.compile(r"\bpthread_create\s*\("),
         "pthread_create bypasses the verify seam; use "
         "bars::common::Thread"),
    ]

    def applies(self, sf: SourceFile) -> bool:
        return sf.scope_path.startswith("src/") and not sf.in_dirs(
            VERIFY_SEAM_EXEMPT)


class RawAssert(TokenRule):
    name = "raw-assert"
    doc = ("assert() aborts without context. Use BARS_CHECK (always on) "
           "or BARS_DCHECK (debug only) from common/check.hpp and stream "
           "the context: block id, virtual time, sizes.")
    tokens = [
        (re.compile(r"(?<![\w.])assert\s*\("),
         "raw assert(); use BARS_CHECK/BARS_DCHECK with context"),
        (re.compile(r"#\s*include\s*<cassert>"),
         "<cassert> include; use common/check.hpp"),
    ]

    def applies(self, sf: SourceFile) -> bool:
        return sf.scope_path.startswith("src/")

    def check(self, sf: SourceFile) -> list[Finding]:
        out = []
        for idx, (line, raw) in enumerate(zip(sf.code, sf.raw), start=1):
            for pat, why in self.tokens:
                target = raw if "include" in why else line
                if pat.search(target) and not sf.allowed(self.name, idx):
                    out.append(self._finding(sf, idx, why))
        return out


class FpLiteral(TokenRule):
    name = "fp-literal"
    severity = "advisory"
    doc = ("Kernel code paths must stay bitwise-reproducible: the value "
           "type is value_t (double) everywhere, and float literals or "
           "float declarations silently change rounding. Flags `float` "
           "and f-suffixed literals in src/core, src/gpusim, src/sparse.")
    tokens = [
        (re.compile(r"\bfloat\b"), "float type in a double-precision kernel "
                                   "path; use value_t"),
        (re.compile(r"\b\d+\.\d*(e[+-]?\d+)?f\b|\b\.\d+(e[+-]?\d+)?f\b|\b\d+(e[+-]?\d+)?f\b",
                    re.IGNORECASE),
         "f-suffixed literal truncates to single precision"),
    ]

    def applies(self, sf: SourceFile) -> bool:
        return sf.in_dirs(KERNEL_PATHS)


class IncludeHygiene(Rule):
    name = "include-hygiene"
    doc = ("Project headers are included as \"subdir/name.hpp\" rooted at "
           "src/ — no \"../\" path escapes, no angle brackets for project "
           "headers, no quotes for system headers.")
    _inc = re.compile(r'^\s*#\s*include\s*(["<])([^">]+)([">])')
    _project_dirs = ("backend/", "common/", "core/", "gpusim/", "sparse/",
                     "stats/", "eigen/", "matrices/", "mg/", "report/",
                     "resilience/", "telemetry/", "service/", "verify/")

    def check(self, sf: SourceFile) -> list[Finding]:
        out = []
        for idx, raw in enumerate(sf.raw, start=1):
            m = self._inc.match(raw)
            if not m or sf.allowed(self.name, idx):
                continue
            opener, target = m.group(1), m.group(2)
            if target.startswith("../") or "/../" in target:
                out.append(self._finding(
                    sf, idx, f'relative include "{target}" escapes the '
                             "include root; include as \"subdir/name.hpp\""))
            elif opener == "<" and target.startswith(self._project_dirs):
                out.append(self._finding(
                    sf, idx, f"project header <{target}> must use quotes"))
        return out


class HeaderGuard(Rule):
    name = "header-guard"
    doc = ("Every header must open with `#pragma once` (before any "
           "declaration), the project's guard style.")

    def applies(self, sf: SourceFile) -> bool:
        return sf.is_header

    def check(self, sf: SourceFile) -> list[Finding]:
        for raw in sf.raw:
            s = raw.strip()
            if not s or s.startswith("//"):
                continue
            if s.startswith("#pragma once"):
                return []
            break
        if sf.allowed(self.name, 1):
            return []
        return [self._finding(sf, 1, "header does not start with "
                                     "#pragma once")]


class HotNoAlloc(Rule):
    name = "hot-noalloc"
    doc = ("Functions marked BARS_HOT_NOALLOC must not heap-allocate: "
           "new / make_unique / make_shared and growth calls (resize, "
           "push_back, emplace_back, reserve, assign, insert) are banned "
           "inside their bodies, except on identifiers containing "
           "'scratch' (construction-sized per-block buffers).")
    _alloc_expr = re.compile(r"\bnew\b|std::make_unique\b|std::make_shared\b")
    _growth = re.compile(
        r"([A-Za-z_][\w.\->\[\]]*)\s*\.\s*"
        r"(resize|push_back|emplace_back|reserve|assign|insert|emplace)\s*\(")

    def applies(self, sf: SourceFile) -> bool:
        return not sf.is_header or True  # markers may appear anywhere

    def check(self, sf: SourceFile) -> list[Finding]:
        out = []
        i = 0
        n = len(sf.code)
        while i < n:
            # Skip preprocessor lines so the macro's own definition (and
            # conditional redefinitions) are not taken as markers.
            if ("BARS_HOT_NOALLOC" not in sf.code[i]
                    or sf.code[i].lstrip().startswith("#")):
                i += 1
                continue
            # Find the opening brace of the function body (the marker may
            # sit on a declaration; then there is a ';' before any '{').
            j = i
            body_start = None
            while j < n:
                line = sf.code[j]
                brace = line.find("{")
                semi = line.find(";")
                if brace != -1 and (semi == -1 or brace < semi):
                    body_start = (j, brace)
                    break
                if semi != -1:
                    break  # declaration only; nothing to scan
                j += 1
            if body_start is None:
                i += 1
                continue
            depth = 0
            j, col = body_start
            while j < n:
                line = sf.code[j][col:] if j == body_start[0] else sf.code[j]
                for c in line:
                    if c == "{":
                        depth += 1
                    elif c == "}":
                        depth -= 1
                self._scan_line(sf, j + 1, out)
                if depth <= 0:
                    break
                j += 1
                col = 0
            i = j + 1
        return out

    def _scan_line(self, sf: SourceFile, line_no: int, out: list[Finding]):
        line = sf.code[line_no - 1]
        if sf.allowed(self.name, line_no):
            return
        if self._alloc_expr.search(line):
            out.append(self._finding(
                sf, line_no, "heap allocation in a BARS_HOT_NOALLOC body"))
        for m in self._growth.finditer(line):
            receiver = m.group(1)
            if "scratch" in receiver:
                continue
            out.append(self._finding(
                sf, line_no,
                f"container growth `{receiver}.{m.group(2)}(` in a "
                "BARS_HOT_NOALLOC body (non-scratch receiver)"))


class TelemetryRecordHot(Rule):
    name = "telemetry-record-hot"
    doc = ("Metric record-path methods (inc / set / record) declared in "
           "src/telemetry must carry BARS_HOT_NOALLOC: solvers call them "
           "from the simulated GPU's bookkeeping loop, and the marker is "
           "what routes their bodies into the hot-noalloc audit. Sink "
           "on_* callbacks are exempt — they do stream IO by design and "
           "are never invoked from the allocation-free path.")
    # A declaration/definition: one or more type tokens, whitespace, then
    # the method name and its parameter list. Member *calls* never match
    # because `.` / `->` are not in the token character class, so there is
    # no whitespace immediately before the name.
    _def = re.compile(
        r"^\s*(?:[A-Za-z_][\w:<>&*\[\]]*\s+)+(inc|set|record)\s*\(")

    def applies(self, sf: SourceFile) -> bool:
        return sf.in_dirs(("src/telemetry/",))

    def check(self, sf: SourceFile) -> list[Finding]:
        out = []
        for idx, line in enumerate(sf.code, start=1):
            m = self._def.search(line)
            if not m:
                continue
            prev = sf.code[idx - 2] if idx >= 2 else ""
            if "BARS_HOT_NOALLOC" in line or "BARS_HOT_NOALLOC" in prev:
                continue
            if sf.allowed(self.name, idx):
                continue
            out.append(self._finding(
                sf, idx,
                f"record-path method `{m.group(1)}(` lacks "
                "BARS_HOT_NOALLOC; the telemetry record path must stay "
                "allocation-free"))
        return out


class UnboundedRetry(Rule):
    name = "unbounded-retry"
    doc = ("Retry and poll waits in the service layer must be bounded: "
           "a thread sleep with no attempt cap, backoff, deadline, or "
           "jitter in view is how a transient outage turns into a spin "
           "of blind re-submits. Route retry waits through "
           "service::RetryPolicy::backoff (docs/SERVICE.md) or keep the "
           "bound visibly in scope. Scoped to src/service.")
    _sleep = re.compile(r"\bsleep_(for|until)\s*\(")
    # Identifiers that signal a visible bound near the sleep. Matched on
    # comment-stripped code, so only real code can satisfy the rule.
    _bound = re.compile(
        r"backoff|jitter|delay|attempt|retri|deadline|timeout|grace|"
        r"hedge|budget|\bmax_", re.IGNORECASE)
    _window = 4  # lines of context scanned either side of the sleep

    def applies(self, sf: SourceFile) -> bool:
        return sf.in_dirs(("src/service/",))

    def check(self, sf: SourceFile) -> list[Finding]:
        out = []
        for idx, line in enumerate(sf.code, start=1):
            if not self._sleep.search(line):
                continue
            if sf.allowed(self.name, idx):
                continue
            lo = max(0, idx - 1 - self._window)
            hi = min(len(sf.code), idx + self._window)
            if self._bound.search("\n".join(sf.code[lo:hi])):
                continue
            out.append(self._finding(
                sf, idx,
                "thread sleep with no visible bound (attempt cap, "
                "backoff, deadline, or jitter); unbounded retry/poll "
                "waits must go through RetryPolicy::backoff"))
        return out


class BackendSeam(TokenRule):
    name = "backend-seam"
    doc = ("Concrete block-sweep kernels (BlockJacobiKernel, "
           "SimdBlockSweepKernel) are backend implementation detail: "
           "production code must build them through the kernel factory "
           "(backend::build_kernel, docs/BACKENDS.md) so the "
           "availability/config fallback to scalar and the per-backend "
           "telemetry counters are never bypassed. Direct construction "
           "is allowed only inside src/backend, where the factory and "
           "the kernels live. Tests may construct kernels directly.")
    tokens = [
        (re.compile(r"\bnew\s+(backend\s*::\s*)?"
                    r"(BlockJacobiKernel|SimdBlockSweepKernel)\b"),
         "direct kernel `new`; build through backend::build_kernel"),
        (re.compile(r"std::make_unique\s*<\s*(backend\s*::\s*)?"
                    r"(BlockJacobiKernel|SimdBlockSweepKernel)\b"),
         "direct kernel make_unique; build through backend::build_kernel"),
        # Stack construction: the type name followed by a variable name
        # and an initializer. `Type::member` accesses never match (no
        # whitespace after the type name).
        (re.compile(r"\b(BlockJacobiKernel|SimdBlockSweepKernel)\s+"
                    r"[A-Za-z_]\w*\s*[({]"),
         "direct kernel construction; build through backend::build_kernel"),
    ]

    def applies(self, sf: SourceFile) -> bool:
        return sf.scope_path.startswith("src/") and not sf.in_dirs(
            ("src/backend/",))


ALL_RULES: list[Rule] = [
    Nondeterminism(),
    UnorderedIteration(),
    RawMutex(),
    VerifySeam(),
    RawAssert(),
    FpLiteral(),
    IncludeHygiene(),
    HeaderGuard(),
    HotNoAlloc(),
    TelemetryRecordHot(),
    UnboundedRetry(),
    BackendSeam(),
]

# ---------------------------------------------------------------------- main


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def collect_files(paths: list[str]) -> list[str]:
    exts = (".hpp", ".cpp", ".h", ".cc")
    out = []
    for p in paths:
        if os.path.isfile(p):
            out.append(p)
        elif os.path.isdir(p):
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = [d for d in dirnames
                               if d not in ("build", ".git")]
                for fn in sorted(filenames):
                    if fn.endswith(exts):
                        out.append(os.path.join(dirpath, fn))
        else:
            print(f"bars_lint: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return out


def scope_path_for(path: str, treat_as: str | None, root: str) -> str:
    if treat_as is not None:
        return f"{treat_as.rstrip('/')}/{os.path.basename(path)}"
    rel = os.path.relpath(os.path.abspath(path), root)
    return rel.replace(os.sep, "/")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files or directories "
                    "(default: <repo>/src)")
    ap.add_argument("--strict", action="store_true",
                    help="advisory findings gate too (CI mode)")
    ap.add_argument("--rule", action="append", default=None,
                    metavar="NAME", help="run only the named rule(s)")
    ap.add_argument("--treat-as", default=None, metavar="PREFIX",
                    help="pretend each file lives under PREFIX for rule "
                    "scoping (testing fixtures)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.name} [{rule.severity}]\n    {rule.doc}\n")
        return 0

    root = repo_root()
    paths = args.paths or [os.path.join(root, "src")]
    rules = ALL_RULES
    if args.rule:
        known = {r.name for r in ALL_RULES}
        bad = set(args.rule) - known
        if bad:
            print(f"bars_lint: unknown rule(s): {', '.join(sorted(bad))}",
                  file=sys.stderr)
            return 2
        rules = [r for r in ALL_RULES if r.name in set(args.rule)]

    findings: list[Finding] = []
    for path in collect_files(paths):
        sf = load_file(path, scope_path_for(path, args.treat_as, root))
        for rule in rules:
            if rule.applies(sf):
                findings.extend(rule.check(sf))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    errors = 0
    for f in findings:
        print(f.format())
        if f.severity == "error" or args.strict:
            errors += 1
    if findings:
        print(f"bars_lint: {len(findings)} finding(s), "
              f"{errors} gating", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    # Die quietly when the consumer closes early (bars_lint ... | head),
    # like grep does, instead of spewing a BrokenPipeError traceback.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main(sys.argv[1:]))
