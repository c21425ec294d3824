#!/usr/bin/env python3
"""End-to-end request-path benchmark of the transparent-edge simulator.

Builds the simulator and the driver from source (CMake, Release), then runs
one workload for a fixed wall-clock budget, one process per repetition, and
prints the result as the last line of standard output:

    python3 e2ebench/run.py --workload warm_dataplane --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --smoke    # all workloads at 1 % size, checks only

--trace 0 reports the end-to-end metrics (requests_per_s, setup_s,
peak_rss_mb); --trace 1 runs the traced pass and reports the per-layer
metrics. README.md describes the workloads, the metrics and the baseline.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("warm_dataplane", "flow_churn", "k8s_lifecycle")
HELD_OUT_SEED = 7      # reserved for confirming claims; never used while tuning
TRACES_PER_SEED = 4    # traces a run cycles through, derived from its seed
MIN_REPS = 3           # repetitions per run even when the budget is spent
REP_TIMEOUT_S = 120
# About the reference loop's time on the 4-vCPU VM the README baseline comes
# from; it only fixes the unit of the host-scaled times.
REF_NOMINAL_S = 0.1

END_TO_END = (("requests_per_s", "req/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# Per-layer metrics the driver reports from each traced repetition.
LAYERED = (
    ("sdn.packet_in_share", "share"),
    ("sdn.flow_memory.hit_ratio", "ratio"),
    ("net.flow_table.entries_max", "count"),
    ("net.flow_table.miss_ratio", "ratio"),
    ("net.switch.buffered_max", "count"),
    ("core.deployments", "count"),
    ("core.deploy_failures", "count"),
    ("core.probes_per_deployment", "probes/deploy"),
    ("core.scale_downs", "count"),
    ("orchestrator.k8s.api_requests_per_deployment", "requests/deploy"),
    ("orchestrator.k8s.objects_max", "count"),
    ("container.pulls", "count"),
    ("simcore.events_per_request", "events/request"),
    ("simcore.cancelled_share", "share"),
    ("simcore.cascade_refiled_per_event", "refiled/event"),
    ("workload.next_ns", "ns"),
    ("sdn.dispatch_ns", "ns"),
    ("sdn.dispatch_ns.p99", "ns"),
    ("sdn.schedule_ns", "ns"),
    ("simcore.unattributed_share", "share"),
)


def build():
    """Configure and build the driver; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("e2ebench: simulator sources (src/) not found next to the benchmark")
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))),
        "e2ebench")
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the build tree too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              env=env)
        if done.returncode != 0:
            print(done.stdout, file=sys.stderr)
            raise SystemExit("e2ebench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "e2ebench")


def driver(binary, *args):
    """Run the driver in its own process; returns its JSON object."""
    cmd = [binary, *args]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"e2ebench: {' '.join(cmd)} exited with {done.returncode}")
    return json.loads(lines[-1])


class Repetitions:
    """Repetitions in time order, each bracketed by host-speed references.

    The host's speed drifts by up to 2x over minutes on a shared machine, and
    every repetition slows with it. A reference loop that runs no simulator
    code is timed in its own process before the first repetition and after
    each one; a repetition's host factor is the mean of the two references
    around it over REF_NOMINAL_S, and its times are divided by that factor.
    """

    def __init__(self, binary, workload):
        self.binary, self.workload = binary, workload
        self.references = [self.reference()]
        self.all = []

    def reference(self):
        return driver(self.binary, "--reference")["reference_s"]

    def run(self, trace_seed, *extra):
        r = driver(self.binary, "--workload", self.workload, "--seed", str(trace_seed), *extra)
        self.references.append(self.reference())
        r["host_factor"] = (self.references[-2] + self.references[-1]) / 2 / REF_NOMINAL_S
        r["wall_requests_per_s"] = r["requests"] / r["replay_s"]
        r["requests_per_s"] = r["wall_requests_per_s"] * r["host_factor"]
        r["wall_setup_s"] = r["setup_s"]
        r["setup_s"] = r["wall_setup_s"] / r["host_factor"]
        self.all.append(r)
        print(describe(r), flush=True)
        return r


def commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                head = f.read().strip()
        return head[:12]
    except OSError:
        return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def share_lost(slower, faster):
    """1 - slower/faster: the throughput share one configuration costs."""
    return 1.0 - slower / faster if faster else 0.0


def describe(r):
    return (f"  rep {r['workload']:<15} traced={int(r['traced'])} registry={int(r['registry'])} "
            f"host={r['host_factor']:.3f} setup={r['wall_setup_s']:.4f}s "
            f"replay={r['replay_s']:.4f}s wall_req/s={r['wall_requests_per_s']:.0f} "
            f"req/s={r['requests_per_s']:.0f} rss={r['peak_rss_mb']:.1f}MiB "
            f"requests={r['requests']} failed={r['requests_failed']} digest={r['sim_digest']}")


def layer_table(r):
    rows = [f"{'span':<24}{'count':>10}{'total ms':>12}{'self ms':>12}{'mean us':>14}"
            f"{'p99 self us':>14}"]
    for name, s in r["spans"].items():
        mean = s["total_ns"] / s["count"] / 1e3 if s["count"] else 0.0
        rows.append(f"{name:<24}{s['count']:>10}{s['total_ns'] / 1e6:>12.2f}"
                    f"{s['self_ns'] / 1e6:>12.2f}{mean:>14.2f}{s['p99_self_ns'] / 1e3:>14.2f}")
    return "\n".join(rows)


def run(binary, workload, seed, seconds, trace):
    # A run cycles through several traces derived from its seed, so that its
    # medians average over inputs: one trace's work varies by up to +-6 %
    # with its seed (k8s_lifecycle's deployment count most of all).
    trace_seeds = [seed * TRACES_PER_SEED + k for k in range(TRACES_PER_SEED)]
    deadline = time.monotonic() + seconds
    plain, traced, flipped = [], [], []
    out_dir = os.path.join(ROOT, ".bench_out")
    trace_path = os.path.join(out_dir, f"{workload}-seed{seed}.trace.json")
    reps = Repetitions(binary, workload)
    while True:
        trace_seed = trace_seeds[len(plain) % TRACES_PER_SEED]
        plain.append(reps.run(trace_seed))
        if trace:
            # The traced pass: one untraced, one traced and one registry-flipped
            # repetition per round, so every overhead share is a paired ratio.
            os.makedirs(out_dir, exist_ok=True)
            traced.append(reps.run(trace_seed, "--traced", "--trace-out", trace_path))
            flipped.append(reps.run(trace_seed, "--registry",
                                    "off" if plain[-1]["registry"] else "on"))
        if time.monotonic() >= deadline and (trace or len(plain) >= MIN_REPS):
            break

    reps = reps.all
    by_seed = {}
    for r in reps:
        by_seed.setdefault(r["seed"], []).append(r)
    checks = {}
    for r in reps:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok
    checks["sim_digest_stable"] = all(len({r["sim_digest"] for r in group}) == 1
                                      for group in by_seed.values())
    correct = all(checks.values())

    print(f"workload {workload}: {len(plain)} untraced, {len(traced)} traced, "
          f"{len(flipped)} registry-flipped repetitions")
    print("checks: " + ", ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in checks.items()))
    for trace_seed, group in sorted(by_seed.items()):
        r, sim = group[0], group[0]["sim"]
        print(f"model outputs (sim time), trace seed {trace_seed}: sim_digest={r['sim_digest']} "
              f"requests={r['requests']} requests_failed={r['requests_failed']} "
              f"first_request_p50_ms={sim['first_request_p50_ms']:.3f} "
              f"first_request_p99_ms={sim['first_request_p99_ms']:.3f} "
              f"warm_request_p50_ms={sim['warm_request_p50_ms']:.3f} "
              f"warm_request_p99_ms={sim['warm_request_p99_ms']:.3f} "
              f"deployments={sim['deployments']}")
    first = plain[0]
    print("provenance: " + json.dumps({
        "nproc": os.cpu_count(),
        "hardware_concurrency": first["hardware_concurrency"],
        "build_type": first["build_type"],
        "compiler": first["compiler"],
        "commit": commit(),
        "seed": seed,
        "trace_seeds": sorted(by_seed),
        "held_out_seed": HELD_OUT_SEED,
    }))

    if not trace:
        values = {
            "requests_per_s": median([r["requests_per_s"] for r in plain]),
            "setup_s": median([r["setup_s"] for r in plain]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        registry_on = plain if first["registry"] else flipped
        registry_off = flipped if first["registry"] else plain
        values = {name: median([r["layer"][name] for r in traced]) for name, _ in LAYERED}
        values["workload.generate_s"] = median([r["generate_s"] for r in traced])
        values["simcore.metrics_overhead_share"] = share_lost(
            median([r["requests_per_s"] for r in registry_on]),
            median([r["requests_per_s"] for r in registry_off]))
        values["bench.trace_overhead_share"] = share_lost(
            median([r["requests_per_s"] for r in traced]),
            median([r["requests_per_s"] for r in plain]))
        values["bench.wall_requests_per_s"] = median([r["wall_requests_per_s"] for r in plain])
        values["bench.wall_setup_s"] = median([r["wall_setup_s"] for r in plain])
        values["bench.host_factor"] = median([r["host_factor"] for r in reps])
        units = dict(LAYERED)
        units.update({"workload.generate_s": "s", "simcore.metrics_overhead_share": "share",
                      "bench.trace_overhead_share": "share", "bench.wall_requests_per_s": "req/s",
                      "bench.wall_setup_s": "s", "bench.host_factor": "ratio"})
        metrics = {name: {"value": values[name], "unit": units[name]} for name in sorted(values)}
        table = layer_table(traced[-1])
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{workload}-seed{seed}.layers.txt"), "w") as f:
            f.write(table + "\n")
        print("per-layer wall time (last traced repetition; chrome trace: "
              f"{os.path.relpath(trace_path, ROOT)}):\n{table}")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": correct,
        "attempted": sum(r["requests"] for r in reps),
        "failed": sum(r["requests_failed"] for r in reps),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at 1%% size through the same checks")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    binary = build()
    if args.smoke:
        return subprocess.run([binary, "--smoke"]).returncode
    result = run(binary, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
