#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload campaign|fleet_ingest|inet_diagnose \
        --seed N --seconds S --trace 0|1 [--inject FAULT]

Run from the repository root. The libraries under src/ and the benchmark
program in perfbench/ are compiled in Release into .bench_build/perfbench
(an incremental no-op once built). Each run executes in a fresh private
directory under .bench_build/runs that holds its socket, state dir and
journals; the directory is removed when the run ends, on failure too.

The last line of standard output is the result object:
{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Every workload reports the same metric names, those BENCHMARK.json lists.
Exit status is non-zero, with no result line, when the build fails, a
correctness check fails (stderr names it), the result's metrics differ
from BENCHMARK.json's list or the run overruns its budget.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD, "netd_perfbench")
WORKLOADS = ("campaign", "fleet_ingest", "inet_diagnose")
RUN_BUDGET_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; serialized by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src; run from a full checkout" % ROOT, 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this pass."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def provenance_commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--", "src", "perfbench"],
                                   capture_output=True, text=True, timeout=10)
            return out.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "unknown (sources sha256:%s)" % h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--inject", default="",
                    help="self-test fault; the run must then fail a check")
    args = ap.parse_args()

    build()
    os.makedirs(RUNS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=RUNS)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--commit", provenance_commit()]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = None
    previous = {}

    def on_signal(signum, _frame):
        raise KeyboardInterrupt("signal %d" % signum)

    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        previous[sig] = signal.signal(sig, on_signal)
    try:
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_BUDGET_S)
        except subprocess.TimeoutExpired:
            fail("%s overran its %d s budget" % (args.workload, RUN_BUDGET_S))
        lines = out.decode().splitlines()
        if proc.returncode != 0:
            sys.stdout.write("\n".join(lines[:-1] if lines and
                                       lines[-1].startswith('{"correct"')
                                       else lines) + "\n")
            fail("%s exited with status %d" % (args.workload, proc.returncode))
        result = json.loads(lines[-1]) if lines else None
        if not result or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            fail("malformed result line")
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        want = expected_metrics(args.trace)
        if got != want:
            fail("result metrics %s differ from BENCHMARK.json's %s" % (got, want))
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()
    except KeyboardInterrupt as e:
        fail("interrupted (%s)" % e)
    finally:
        if proc is not None and proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        for sig, handler in previous.items():
            signal.signal(sig, handler)


if __name__ == "__main__":
    main()
