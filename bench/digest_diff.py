#!/usr/bin/env python3
"""Compare the model outputs of two e2ebench binaries.

    python3 bench/digest_diff.py PARENT_BIN CHANGE_BIN

Runs both binaries (for example `build/bench/e2ebench` of two trees) over
trace seeds 0-47 of flow_churn and k8s_lifecycle and 4-27 of
warm_dataplane, each plain, with --traced and with --registry flipped
from the workload's default, and compares `sim_digest` and
`requests_failed` of every run. Prints one line per workload and exits
non-zero naming the first mismatch (or the first run that did not finish
with a JSON line). Up to four runs go at once.
"""

import concurrent.futures
import json
import os
import subprocess
import sys

# (workload, trace seeds, flag that flips its default registry setting)
PLAN = (
    ("flow_churn", range(0, 48), ("--registry", "on")),
    ("k8s_lifecycle", range(0, 48), ("--registry", "on")),
    ("warm_dataplane", range(4, 28), ("--registry", "off")),
)
KEYS = ("sim_digest", "requests_failed")


def run(binary, args):
    """One repetition; returns the compared fields, or an error string."""
    done = subprocess.run([binary] + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return "exit %d: %s" % (done.returncode, done.stderr.strip()[-200:])
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return "no JSON line: " + lines[-1][:200]
    return tuple(result.get(key) for key in KEYS)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binaries = sys.argv[1:]
    for binary in binaries:
        if not os.access(binary, os.X_OK):
            print("digest_diff: not an executable: " + binary, file=sys.stderr)
            return 2

    jobs = []
    for workload, seeds, flipped in PLAN:
        for seed in seeds:
            base = ("--workload", workload, "--seed", str(seed))
            for mode, extra in (("plain", ()), ("traced", ("--traced",)),
                                ("registry " + flipped[1], flipped)):
                jobs.append((workload, seed, mode, base + extra))

    workers = min(4, os.cpu_count() or 1)
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        futures = [[pool.submit(run, binary, job[3]) for binary in binaries]
                   for job in jobs]
        results = [[f.result() for f in pair] for pair in futures]

    first = None
    for workload, _, _ in PLAN:
        compared = mismatched = 0
        for job, (parent, change) in zip(jobs, results):
            if job[0] != workload:
                continue
            compared += 1
            if parent != change or isinstance(parent, str):
                mismatched += 1
                if first is None:
                    first = (job, parent, change)
        print("%-15s %3d runs compared, %d mismatched" % (workload, compared, mismatched))

    if first is not None:
        (workload, seed, mode, _), parent, change = first
        print("digest_diff: first mismatch: %s trace seed %d (%s): parent %s, change %s"
              % (workload, seed, mode, parent, change), file=sys.stderr)
        return 1
    print("digest_diff: every %s matches" % " and ".join(KEYS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
