#!/usr/bin/env python3
"""identity_ab: bit-identity A/B of two revisions through bench/identity_probe.

Each revision is checked out in its own git worktree under a temporary
directory, configured with CMake and built up to its *own*
`identity_probe` target, so each side runs the probe grid as that
revision defines it. Both probes run `--grid=full`; their outputs are
compared config by config (one `<config> <hash>` line each). Each side
also builds and runs the figure harnesses and examples in STDOUT_RUNS,
whose whole stdout is deterministic, and adds one
`stdout <binary> [args] <hash>` line per binary (with ` exit <code>`
appended when it exits non-zero).

Prints every config whose line differs (or exists on one side only),
then the count. Exit status: 0 = no difference, 1 = differences,
2 = usage, checkout or build error. Each build uses min(4, cpus) jobs;
the worktrees are removed afterwards.

Stdlib-only. Usage:
    tools/identity_ab.py REV_A REV_B

Example: tools/identity_ab.py HEAD~1 HEAD
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile


def git(repo: str, *args: str) -> str:
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


JOBS = min(4, os.cpu_count() or 1)

# (build subdirectory, binary, arguments) of every binary whose stdout
# holds no wall-clock value, so two runs of one revision print the same.
STDOUT_RUNS = [
    ("bench", "fig5_stochastic_variation", "--runs=5"),
    ("bench", "fig10_fault_tolerance"),
    ("bench", "fig11_multigpu"),
    ("examples", "quickstart"),
    ("examples", "poisson2d", "31"),
    ("examples", "fault_tolerant_solve"),
    ("examples", "multigpu_scaling", "2000"),
    ("examples", "trace_occupancy"),
    ("examples", "nonlinear_diffusion", "24", "0.5"),
    ("examples", "matrix_info"),
    ("examples", "heat_implicit", "24", "8"),
    ("examples", "silent_error_detection"),
]


def build_revision(repo: str, sha: str, workdir: str) -> str:
    """Check out `sha` as a worktree in `workdir`, build its probe and
    the STDOUT_RUNS binaries, and return the build directory."""
    src = os.path.join(workdir, sha[:12])
    git(repo, "worktree", "add", "--detach", src, sha)
    build = os.path.join(src, "build")
    targets = ["identity_probe"] + [run[1] for run in STDOUT_RUNS]
    for cmd in (["cmake", "-S", src, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "-j", str(JOBS),
                 "--target", *targets]):
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise RuntimeError(f"{sha[:12]}: {' '.join(cmd[:2])} failed")
    return build


def run_revision(build: str) -> dict[str, str]:
    """Map each probe config and each STDOUT_RUNS binary to its line."""
    probe = os.path.join(build, "bench", "identity_probe")
    out = subprocess.run([probe, "--grid=full"], check=True,
                         capture_output=True, text=True).stdout
    lines: dict[str, str] = {}
    for line in out.splitlines():
        # `<config> <hash>`, or `<config> threw <message>` for a solver
        # that rejects its system.
        config = (line.split(" threw ", 1)[0] if " threw " in line
                  else line.rsplit(" ", 1)[0])
        lines[config] = line
    for subdir, binary, *argv in STDOUT_RUNS:
        # Run inside the build directory: some binaries write files.
        proc = subprocess.run([os.path.join(build, subdir, binary), *argv],
                              cwd=build, capture_output=True)
        config = " ".join(["stdout", binary, *argv])
        digest = hashlib.sha256(proc.stdout).hexdigest()[:16]
        exit_note = f" exit {proc.returncode}" if proc.returncode else ""
        lines[config] = f"{config} {digest}{exit_note}"
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev_a")
    ap.add_argument("rev_b")
    args = ap.parse_args()

    repo = git(os.path.dirname(os.path.abspath(__file__)), "rev-parse",
               "--show-toplevel")
    try:
        shas = [git(repo, "rev-parse", "--verify", f"{r}^{{commit}}")
                for r in (args.rev_a, args.rev_b)]
    except subprocess.CalledProcessError as e:
        sys.stderr.write(f"identity_ab: unknown revision: {e.stderr}")
        return 2

    workdir = tempfile.mkdtemp(prefix="identity_ab_")
    try:
        builds: dict[str, str] = {}
        for sha in shas:
            if sha not in builds:
                print(f"building {sha[:12]} ...", file=sys.stderr)
                builds[sha] = build_revision(repo, sha, workdir)
        # Same revision on both sides still runs everything twice: the
        # comparison then checks run-to-run determinism.
        a = run_revision(builds[shas[0]])
        b = run_revision(builds[shas[1]])
    except (RuntimeError, subprocess.CalledProcessError) as e:
        sys.stderr.write(f"identity_ab: {e}\n")
        return 2
    finally:
        for sha in set(shas):
            subprocess.run(["git", "-C", repo, "worktree", "remove",
                            "--force", os.path.join(workdir, sha[:12])],
                           capture_output=True)
        subprocess.run(["git", "-C", repo, "worktree", "prune"],
                       capture_output=True)
        shutil.rmtree(workdir, ignore_errors=True)

    diffs = 0
    for config in list(a) + [c for c in b if c not in a]:
        if a.get(config) == b.get(config):
            continue
        diffs += 1
        print(f"- {a.get(config, config + ' <absent>')}")
        print(f"+ {b.get(config, config + ' <absent>')}")
    print(f"{diffs} of {len(set(a) | set(b))} configs differ "
          f"({args.rev_a} vs {args.rev_b})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
