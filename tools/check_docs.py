#!/usr/bin/env python3
"""check_docs: keep the documentation compiling and the links resolving.

Two checks over README.md and docs/*.md (stdlib-only, like bars_lint):

1. **C++ fences compile.** Every ```cpp fence is extracted, its
   #include lines hoisted, and the remaining body wrapped in a main()
   that provides a small fixture (a solved-system vocabulary: `a`, `b`,
   `n`, `i`, `j`, `value`, `trace`) inside an inner scope, then compiled
   against the library headers with `-fsyntax-only -std=c++20 -I src`.
   Docs drift the moment an option or function is renamed; this turns
   that drift into a failing check. A fence that is deliberately not
   compilable (pseudo-code, fragments of a larger program) opts out by
   being immediately preceded by the marker line:

       <!-- docs-check: no-compile -->

2. **Intra-repo links resolve.** Every markdown link or bare reference
   to a repo path (docs/FOO.md, tools/bar.py, src/x/y.hpp) must point
   at an existing file.

3. **No orphaned docs.** Every file under docs/ must be reachable from
   the doc index: referenced by name from README.md or from
   docs/ARCHITECTURE.md (the two entry points readers actually start
   at). A guide nobody links to is a guide nobody finds — and one that
   silently rots.

Usage:
    tools/check_docs.py [--cxx COMPILER] [--root REPO_ROOT] [--keep]

Exit status 0 when everything passes; 1 otherwise (one line per
failure). Wired into ctest as `tools.check_docs` and into the CI
static-analysis job.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile

NO_COMPILE_MARKER = "docs-check: no-compile"

# Headers that give the fixture (and most snippets) their vocabulary.
PREAMBLE = """\
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "backend/registry.hpp"
#include "backend/simd_kernel.hpp"
#include "core/block_async.hpp"
#include "core/cg.hpp"
#include "core/fcg.hpp"
#include "core/registry.hpp"
#include "core/thread_async.hpp"
#include "gpusim/trace.hpp"
#include "matrices/generators.hpp"
#include "mg/multigrid.hpp"
#include "service/solve_service.hpp"
#include "sparse/csr.hpp"
#include "sparse/matrix_market.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/observer.hpp"
#include "telemetry/sinks.hpp"
"""

# Declared before the snippet's inner scope; snippets may shadow these
# freely (compiled with -w).
FIXTURE = """\
  using namespace bars;
  [[maybe_unused]] index_t n = 8, i = 0, j = 0;
  [[maybe_unused]] value_t value = 1.0;
  [[maybe_unused]] Csr a = fv_like(7, 0.5);
  [[maybe_unused]] Vector b(static_cast<std::size_t>(a.rows()), 1.0);
  [[maybe_unused]] gpusim::ExecutionTrace trace;
  [[maybe_unused]] SolveOptions opts;
"""

FENCE_RE = re.compile(r"^```(\w*)\s*$")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Bare repo-path references in prose/backticks: docs/FOO.md, tools/x.py.
BARE_PATH_RE = re.compile(
    r"`((?:docs|tools|src|tests|bench|examples|scripts)/[A-Za-z0-9_./-]+)`")


def find_root(explicit: str | None) -> str:
    if explicit:
        return os.path.abspath(explicit)
    env = os.environ.get("BARS_REPO_ROOT")
    if env:
        return os.path.abspath(env)
    return os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def doc_files(root: str) -> list[str]:
    out = [os.path.join(root, "README.md")]
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md"):
                out.append(os.path.join(docs, name))
    return [p for p in out if os.path.isfile(p)]


class Fence:
    def __init__(self, path: str, line: int, lang: str, body: list[str],
                 opted_out: bool):
        self.path = path
        self.line = line
        self.lang = lang
        self.body = body
        self.opted_out = opted_out


def extract_fences(path: str) -> list[Fence]:
    fences = []
    lang = None
    body: list[str] = []
    start = 0
    pending_marker = False
    with open(path, encoding="utf-8") as f:
        for idx, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            m = FENCE_RE.match(line.strip())
            if m and lang is None:
                lang = m.group(1).lower()
                start = idx
                body = []
            elif line.strip() == "```" and lang is not None:
                fences.append(Fence(path, start, lang, body, pending_marker))
                pending_marker = False
                lang = None
            elif lang is not None:
                body.append(line)
            else:
                if NO_COMPILE_MARKER in line:
                    pending_marker = True
                elif line.strip():
                    pending_marker = False
    return fences


def wrap_snippet(body: list[str]) -> str:
    includes = [ln for ln in body if ln.lstrip().startswith("#include")]
    rest = [ln for ln in body if not ln.lstrip().startswith("#include")]
    return (PREAMBLE + "\n".join(includes) +
            "\n\nint main() {\n" + FIXTURE + "  {\n" +
            "\n".join("    " + ln for ln in rest) +
            "\n  }\n  return 0;\n}\n")


def compile_fence(fence: Fence, cxx: str, root: str, keep: bool) -> str | None:
    """Returns an error message, or None on success."""
    src = wrap_snippet(fence.body)
    fd, tmp = tempfile.mkstemp(suffix=".cpp", prefix="docs_check_")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(src)
        cmd = [cxx, "-fsyntax-only", "-std=c++20", "-w",
               "-I", os.path.join(root, "src"), tmp]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            rel = os.path.relpath(fence.path, root)
            tail = "\n".join(proc.stderr.strip().splitlines()[:12])
            kept = f" (wrapped source kept at {tmp})" if keep else ""
            return (f"{rel}:{fence.line}: C++ fence fails to compile{kept}\n"
                    f"{tail}")
        return None
    finally:
        if not keep:
            os.unlink(tmp)


def check_links(path: str, root: str) -> list[str]:
    errors = []
    base = os.path.dirname(path)
    rel = os.path.relpath(path, root)
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for idx, line in enumerate(f, start=1):
            if FENCE_RE.match(line.strip()) or line.strip() == "```":
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            targets = list(LINK_RE.findall(line))
            targets += list(BARE_PATH_RE.findall(line))
            for target in targets:
                if re.match(r"^[a-z]+://", target) or target.startswith("#"):
                    continue
                if target.startswith("mailto:"):
                    continue
                clean = target.split("#", 1)[0]
                if not clean:
                    continue
                # Resolve relative to the doc, then to the repo root
                # (prose habitually writes root-relative paths). A bare
                # reference to a built binary (`bench/backend_gate`,
                # `examples/solve_mtx`) resolves through its source.
                cand = [os.path.join(base, clean), os.path.join(root, clean)]
                cand += [c + ".cpp" for c in cand]
                if not any(os.path.exists(c) for c in cand):
                    errors.append(
                        f"{rel}:{idx}: broken repo link '{target}'")
    return errors


def check_orphans(root: str) -> list[str]:
    """Every docs/*.md must be referenced from README.md or
    docs/ARCHITECTURE.md (matched by file name, so both
    `[x](FOO.md)`-style sibling links and `docs/FOO.md` prose count)."""
    md_ref = re.compile(r"([A-Za-z0-9_-]+\.md)\b")
    referenced: set[str] = set()
    for src in (os.path.join(root, "README.md"),
                os.path.join(root, "docs", "ARCHITECTURE.md")):
        if not os.path.isfile(src):
            continue
        with open(src, encoding="utf-8") as f:
            referenced.update(md_ref.findall(f.read()))
    errors = []
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        for name in sorted(os.listdir(docs)):
            if name.endswith(".md") and name not in referenced:
                errors.append(
                    f"docs/{name}: orphaned — not referenced from README.md "
                    "or docs/ARCHITECTURE.md; add it to the doc index")
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cxx", default=os.environ.get("CXX", "c++"),
                    help="C++ compiler used for -fsyntax-only (default: "
                         "$CXX or c++)")
    ap.add_argument("--root", default=None, help="repo root (default: "
                    "$BARS_REPO_ROOT or the script's parent directory)")
    ap.add_argument("--keep", action="store_true",
                    help="keep failing wrapped sources for debugging")
    args = ap.parse_args()

    root = find_root(args.root)
    files = doc_files(root)
    if not files:
        print(f"check_docs: no documentation found under {root}",
              file=sys.stderr)
        return 1

    errors: list[str] = check_orphans(root)
    compiled = 0
    skipped = 0
    for path in files:
        errors.extend(check_links(path, root))
        for fence in extract_fences(path):
            if fence.lang not in ("cpp", "c++", "cxx"):
                continue
            if fence.opted_out:
                skipped += 1
                continue
            err = compile_fence(fence, args.cxx, root, args.keep)
            if err:
                errors.append(err)
            else:
                compiled += 1

    for e in errors:
        print(e, file=sys.stderr)
    status = "FAIL" if errors else "OK"
    print(f"check_docs: {status} — {len(files)} files, {compiled} C++ "
          f"fences compiled, {skipped} opted out, {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
