#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each case runs one workload briefly with a deliberately wrong answer
injected (--inject) and passes only if the run exits non-zero, prints no
result line and names the expected check on stderr as
"CHECK FAILED: <check>: ...".
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# (workload, trace, injected fault, checks allowed to catch it)
CASES = [
    ("campaign", "0", "drop-injected-link",
     ("hypothesis_nonempty", "hitting_set", "link_metrics_recomputed")),
    ("campaign", "1", "miscount-runner-draw", ("replay_matches_runner",)),
    ("fleet_ingest", "0", "flip-diagnosis-byte", ("diagnosis_matches_in_process",)),
    ("fleet_ingest", "0", "withhold-ack", ("every_round_acked",)),
    ("inet_diagnose", "0", "drop-hypothesis-link", ("hitting_set",)),
]


def main():
    bad = 0
    for workload, trace, fault, checks in CASES:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "3", "--trace", trace, "--inject", fault],
            cwd=ROOT, capture_output=True, text=True)
        named = [c for c in checks if "CHECK FAILED: %s:" % c in out.stderr]
        printed = any(l.startswith('{"correct"') for l in out.stdout.splitlines())
        ok = out.returncode != 0 and named and not printed
        bad += not ok
        print("%-4s %-14s %s %-22s -> exit %d, %s" % (
            "ok" if ok else "FAIL", workload, trace, fault, out.returncode,
            named[0] if named else "no expected check named: " +
            out.stderr.strip().splitlines()[-1] if out.stderr.strip() else "silent"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
