#!/usr/bin/env python3
"""Check the simulator's model outputs against the committed golden file.

    python3 tests/golden_outputs.py E2EBENCH_BIN tests/golden_outputs.txt
    python3 tests/golden_outputs.py E2EBENCH_BIN tests/golden_outputs.txt --update

Runs the e2ebench driver built by the root tree: its --smoke mode (every
workload at 1 %) and a few full-size trace seeds per workload. Each run's
`sim_digest` and `requests_failed` are compared with the golden file, and
every run that moved is named. --update rewrites the file from the binary's
output instead; a change that moves the model on purpose commits the new
file and says which entries moved and why.
"""

import concurrent.futures
import json
import os
import subprocess
import sys

# Full-size runs: (workload, trace seeds). k8s_lifecycle seed 24 once
# failed a request.
FULL = (
    ("warm_dataplane", (4, 5, 6)),
    ("flow_churn", (0, 1, 2)),
    ("k8s_lifecycle", (0, 1, 2, 24)),
)
KEYS = ("sim_digest", "requests_failed")


def fields(result):
    return tuple(str(result[key]) for key in KEYS)


def run_smoke(binary):
    """The --smoke run: one (name, fields) pair per workload."""
    done = subprocess.run([binary, "--smoke"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    out = []
    for line in done.stdout.splitlines():
        status, workload, text = line.split(None, 2)
        out.append(("smoke/" + workload, fields(json.loads(text))))
    if done.returncode != 0 or not out:
        raise RuntimeError("--smoke exited %d: %s"
                           % (done.returncode, (done.stderr + done.stdout)[-400:]))
    return out


def run_full(binary, workload, seed):
    done = subprocess.run([binary, "--workload", workload, "--seed", str(seed)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d: %s"
                           % (workload, seed, done.returncode, done.stderr[-400:]))
    return [("%s/%d" % (workload, seed), fields(json.loads(lines[-1])))]


def read_golden(path):
    golden = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].split()
            if line:
                golden[line[0]] = tuple(line[1:])
    return golden


def write_golden(path, measured):
    with open(path, "w") as f:
        f.write("# Model outputs of e2ebench, checked by tests/golden_outputs.py.\n")
        f.write("# run (smoke/WORKLOAD or WORKLOAD/TRACE_SEED)  %s\n" % "  ".join(KEYS))
        for name, values in measured:
            f.write("%-22s %s\n" % (name, " ".join(values)))


def main():
    args = [a for a in sys.argv[1:] if a != "--update"]
    update = len(args) != len(sys.argv) - 1
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, golden_path = args

    with concurrent.futures.ThreadPoolExecutor(min(3, os.cpu_count() or 1)) as pool:
        futures = [pool.submit(run_smoke, binary)]
        futures += [pool.submit(run_full, binary, workload, seed)
                    for workload, seeds in FULL for seed in seeds]
        try:
            measured = [entry for f in futures for entry in f.result()]
        except RuntimeError as error:
            print("golden_outputs: " + str(error), file=sys.stderr)
            return 1

    if update:
        write_golden(golden_path, measured)
        print("golden_outputs: wrote %d runs to %s" % (len(measured), golden_path))
        return 0

    golden = read_golden(golden_path)
    moved = []
    for name, values in measured:
        expected = golden.pop(name, None)
        if expected != values:
            moved.append("%s: golden %s, now %s" % (
                name, " ".join(expected) if expected else "(missing)", " ".join(values)))
    moved += ["%s: in the golden file but not run" % name for name in golden]
    for line in moved:
        print("golden_outputs: MOVED " + line, file=sys.stderr)
    print("golden_outputs: %d of %d runs match (%s)"
          % (len(measured) - len(moved), len(measured), ", ".join(KEYS)))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
