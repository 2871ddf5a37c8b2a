#!/usr/bin/env python3
"""Build and run one BARS benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library and the benchmark program from source (Release) under the build
directory, `$CARGO_TARGET_DIR` if set, else `.bench_build`; later calls
rebuild only what changed. Inputs are generated under the build directory
and traces of `--trace 1` runs are written to `<build dir>/work/traces/`.
The last line of standard output is the run's JSON result.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["oneshot-async1", "service-hot", "service-churn"]
RUN_TIMEOUT_S = 170


def fail(msg: str) -> "None":
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root: Path, build_dir: Path) -> Path:
    bdir = build_dir / "perfbench"
    bdir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_build_step(cmd)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_build_step(["cmake", "--build", str(bdir), "--target", "perfbench",
                        "-j", jobs])
    return bdir / "perfbench"


def run_build_step(cmd: list) -> None:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"build step failed: {' '.join(cmd)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {root / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    binary = build(root, build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", str(build_dir / "work")]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return 1


if __name__ == "__main__":
    sys.exit(main())
