#!/usr/bin/env python3
"""Determinism test for lobbench.

For every workload it checks that
  * two untraced runs of one seed report identical modeled_read_ms,
    modeled_write_ms and space_amp (the paper's metrics are exact per seed);
  * a traced run (--trace 1) of the same seed reports the same three values,
    so tracing does not change what is simulated;
  * another seed changes at least one of them, so the seed reaches the
    inputs;
  * every run is correct: exit code 0 and "correct": true.

Run from the root of a checkout (about a minute):

    python3 lobbench/test_lobbench.py
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("starburst_mix", "tree_mix", "scan_append", "small_objects")
MODELED = re.compile(
    r"^modeled: read_ms=(\S+) write_ms=(\S+) space_amp=(\S+)$", re.M)
SEED, OTHER_SEED = 11, 12


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise AssertionError(
            f"{workload} seed={seed} trace={trace}: exit {proc.returncode}, "
            f"result {lines[-1] if lines else '(none)'}")
    modeled = MODELED.search(proc.stdout)
    if modeled is None:
        raise AssertionError(f"{workload}: no 'modeled:' line in the report")
    # The values are printed with 17 significant digits, so equal strings
    # mean bit-identical doubles.
    return modeled.groups()


def main():
    failures = []
    for w in WORKLOADS:
        first = run(w, SEED, 0)
        again = run(w, SEED, 0)
        traced = run(w, SEED, 1)
        other = run(w, OTHER_SEED, 0)
        if again != first:
            failures.append(f"{w}: repeated seed changed modeled {first} -> {again}")
        if traced != first:
            failures.append(f"{w}: tracing changed modeled {first} -> {traced}")
        if other == first:
            failures.append(f"{w}: seed {OTHER_SEED} gives the same modeled {first}")
        print(f"{w}: modeled (read_ms, write_ms, space_amp) seed {SEED} = "
              f"{first}, seed {OTHER_SEED} = {other}")
    for f in failures:
        print("FAIL:", f)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
