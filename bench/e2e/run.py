#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark (README.md here).

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and bench_e2e from this checkout into build-e2e/ (the
first run also mines and caches the fixture), then runs one workload. The
benchmark's report goes to stderr; stdout gets exactly one line, the result
JSON, and only when the run produced one. Exits non-zero without a result
when the checkout holds no desmine source tree, the build fails or the run
times out; a failed output check prints the result and exits 1.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
EXE = os.path.join(BUILD, "bench_e2e")  # caches and writes runs beside it
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170


def run(cmd, timeout, capture=False):
    """Run cmd in its own process group and wait for it; on timeout kill
    the whole group (compilers included). Returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        print(f"run.py: {os.path.basename(cmd[0])} stopped (timeout "
              f"{timeout} s or interrupted)", file=sys.stderr)
        return 124, None


def configured_for_here():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return os.path.realpath(line.split("=", 1)[1].strip()) == \
                    os.path.realpath(HERE)
    return False


def build():
    """Configure once, build incrementally and cache the fixture; one
    build at a time per checkout."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not configured_for_here():
            for stale in ("CMakeCache.txt", "CMakeFiles"):
                path = os.path.join(BUILD, stale)
                if os.path.isdir(path):
                    shutil.rmtree(path)
                elif os.path.exists(path):
                    os.remove(path)
            rc, _ = run(["cmake", "-S", HERE, "-B", BUILD], BUILD_TIMEOUT_S)
            if rc != 0:
                return rc
        rc, _ = run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                    BUILD_TIMEOUT_S)
        if rc != 0:
            return rc
        rc, _ = run([EXE, "--prepare"], RUN_TIMEOUT_S)
        return rc


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-fleet", "serve-diverse", "detect-batch",
                                 "mine"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"run.py: {ROOT} holds no desmine source tree to build",
              file=sys.stderr)
        return 2
    rc = build()
    if rc != 0:
        print(f"run.py: build failed ({rc})", file=sys.stderr)
        return rc

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        cmd.append("--traced")
    rc, out = run(cmd, RUN_TIMEOUT_S, capture=True)
    lines = out.decode("utf-8", errors="replace").splitlines() if out else []
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines:
        return rc or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1], file=sys.stderr)
        return rc or 1
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        print(f"run.py: metrics {sorted(result['metrics'])} differ from "
              f"BENCHMARK.json {sorted(expected)}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
