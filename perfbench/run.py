#!/usr/bin/env python3
"""famsim's end-to-end benchmark.

Builds famsim_bench (this directory) against the checkout's own
sources, runs one named workload for a fixed time, checks every
operation's output and prints, as the last line of stdout, one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer
ones. See README.md for the workloads and what each metric means.

    python3 perfbench/run.py --workload mcf_n1 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. It builds into .bench_build/ there
and reads and writes nothing outside the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "famsim_bench"
DIGESTS = BUILD_DIR / "digests.json"

WORKLOADS = ("mcf_n1", "pf_n16_t4", "sweep_fig13_15_j4")
# Fewest operations a run reports, however long each one takes.
MIN_OPS = 3
# An operation is disturbed when the hypervisor stole more than this
# share of every CPU's time while it ran (or the floor: /proc/stat
# counts steal in 10 ms ticks). Disturbed operations are retaken, for
# up to OVERTIME x --seconds, and left out of the medians: on a busy
# host one stolen CPU stalls all four partitioned-kernel threads, and
# such a run measures the neighbours, not famsim.
STEAL_SHARE = 0.02
STEAL_FLOOR_S = 0.03
OVERTIME = 1.6
CPUS = os.cpu_count() or 1
# Per-layer runs: share of --seconds spent on timed operations (for the
# harness and host rows), and construction repetitions per variant.
LAYER_OP_SHARE = 0.5
CONSTRUCT_REPS = 5
SWEEP_MIN_LAYER_OPS = 8
VARIANTS = ("default", "noprefault", "noscatter")
SUBPROCESS_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_minstr_per_s": "Minstr/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "arch.construct_s": "s",
    "arch.construct_rss_mb": "MB",
    "vm.prefault_s": "s",
    "fam.famtable_rss_mb": "MB",
    "harness.export_s": "s",
    "executor.systems_built": "count",
    "executor.systems_reused": "count",
    "executor.point_s.p50": "s",
    "executor.point_s.p90": "s",
    "executor.point_s.n": "count",
    "executor.parallelism": "ratio",
    "psim.windows": "count",
    "psim.widened": "count",
    "psim.us_per_window": "us",
    "psim.coordinator_s": "s",
    "psim.drain_s": "s",
    "psim.exec_s": "s",
    "psim.idle_s": "s",
    "sim.events_per_kinstr": "count",
    "sim.host_ns_per_event": "ns",
    "sim.event_queue_ns": "ns",
    "sim.event_queue_ns.p95": "ns",
    "workload.stream_next_ns": "ns",
    "workload.stream_next_ns.p95": "ns",
    "cache.l1_lookup_ns": "ns",
    "cache.l1_lookup_ns.p95": "ns",
    "cache.l3_lookup_ns": "ns",
    "cache.l3_lookup_ns.p95": "ns",
    "cache.l1_misses_pki": "count",
    "cache.l2_misses_pki": "count",
    "cache.l3_misses_pki": "count",
    "vm.pt_map_ns": "ns",
    "vm.pt_map_ns.p95": "ns",
    "vm.pt_lookup_ns": "ns",
    "vm.pt_lookup_ns.p95": "ns",
    "vm.tlb_lookup_ns": "ns",
    "vm.tlb_lookup_ns.p95": "ns",
    "vm.tlb_misses_pki": "count",
    "vm.walk_steps_pki": "count",
    "probe.samples": "count",
    "stu.acm_lookups_pki": "count",
    "stu.acm_hit_rate": "ratio",
    "stu.walks_pki": "count",
    "translator.lookups_pki": "count",
    "translator.hit_rate": "ratio",
    "stu.obs_queue_wait_ns.p99": "ns",
    "trace.stu_translate_ns": "ns",
    "trace.translator_lookup_ns": "ns",
    "trace.core_op_ns": "ns",
    "trace.core_op_self_ns": "ns",
    "fabric.packets_pki": "count",
    "fabric.queueing_ns.mean": "ns",
    "fam.requests_pki": "count",
    "fam.at_percent": "%",
    "broker.faults": "count",
    "trace.fabric_req_ns": "ns",
    "trace.media_access_ns": "ns",
    "dram.reads_pki": "count",
    "host.cpu_s": "s",
    "host.sys_s": "s",
    "trace.overhead_s": "s",
    "trace.events": "count",
    "trace.budget_instr": "count",
}

CORE_COUNTER = re.compile(r"node\d+\.core\d+\.instructions")


def note(text):
    """An informational line on stdout (never the last line)."""
    print("# " + text, flush=True)


def fail_setup(text):
    """Set-up failed: no result line, non-zero exit."""
    print("perfbench: " + text, file=sys.stderr)
    sys.exit(1)


# ----------------------------------------------------------------- build

def build():
    if not (ROOT / "src" / "arch" / "system.hh").is_file():
        fail_setup("famsim sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "famsim_bench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            fail_setup("build failed: " + " ".join(cmd))
    if not BINARY.is_file():
        fail_setup("build produced no famsim_bench binary")


def describe():
    """Host/build descriptor: binary's own build facts plus the code."""
    desc = call(["describe"]) or {}
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    desc["git_commit"] = commit
    desc["source_sha256"] = digest.hexdigest()[:16]
    desc["comparable"] = (desc.get("build_type") == "Release"
                          and not desc.get("famsim_sanitize")
                          and desc.get("famsim_check", "OFF").upper()
                          in ("OFF", "0", "FALSE", ""))
    return desc


# ------------------------------------------------------------- driving

def call(args):
    """Run famsim_bench once; its last stdout line parsed, or None."""
    try:
        proc = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        note("timed out: famsim_bench " + " ".join(args))
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        note("failed (exit %d): famsim_bench %s %s" % (
            proc.returncode, " ".join(args), proc.stderr.strip()[-400:]))
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        note("unparsable output: famsim_bench " + " ".join(args))
        return None


class Digests:
    """Export digests per (workload, seed, kind, budget), kept in the
    build dir so every run in this checkout is compared with the first."""

    def __init__(self):
        try:
            self.known = json.loads(DIGESTS.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, key, digest):
        first = self.known.setdefault(key, digest)
        if first != digest:
            note("digest mismatch for %s: %s, first run %s" %
                 (key, digest, first))
            return False
        DIGESTS.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        return True


def export_ok(path, points):
    """The export parses, has all @points, and every core retired."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        note("export does not parse: " + str(path))
        return False
    exports = doc if isinstance(doc, list) else [doc]
    if len(exports) != points:
        note("export has %d points, expected %d" % (len(exports), points))
        return False
    for ex in exports:
        cfg = ex.get("config", {})
        cores = [v for k, v in ex.get("stats", {}).items()
                 if CORE_COUNTER.fullmatch(k)]
        if (len(cores) != cfg.get("nodes", 0) * cfg.get("cores_per_node", 0)
                or not all(0 < v <= cfg.get("instructions", 0)
                           for v in cores)):
            note("export of %s lacks retired instructions" %
                 ex.get("scenario"))
            return False
    return True


def steal_seconds():
    """Host steal time of this machine's CPUs so far (0 if unknown):
    time the hypervisor ran something else while a CPU wanted to run."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def disturbed(op):
    return op["steal_s"] > max(STEAL_FLOOR_S,
                               STEAL_SHARE * op["wall_s"] * CPUS)


def run_ops(workload, seed, seconds, digests, tally, min_ops=MIN_OPS):
    """Timed operations, each in a fresh process, for @seconds; returns
    the undisturbed ones, or the least-stolen half if too few are."""
    export = BUILD_DIR / ("export.%s.json" % workload)
    ops = []
    steal_before = steal_seconds()
    start = time.monotonic()

    def more():
        now = time.monotonic() - start
        clean = sum(not disturbed(o) for o in ops)
        return (len(ops) < min_ops or now < seconds
                or (clean < min_ops and now < seconds * OVERTIME))

    while more():
        tally["attempted"] += 1
        res = call(["op", workload, str(seed), str(export)])
        ok = (res is not None and export_ok(export, res["points"])
              and digests.check("%s:%d:op:%d" % (
                  workload, seed, res["instructions"]), res["digest"]))
        if ok:
            ops.append(res)
        else:
            tally["failed"] += 1
            if tally["failed"] > 3 and not ops:
                break
    clean = [o for o in ops if not disturbed(o)]
    note("timed operations: %d, %d disturbed by host steal; steal "
         "meanwhile: %.2f CPU-s" % (len(ops), len(ops) - len(clean),
                                    steal_seconds() - steal_before))
    if ops:
        note("digest %s seed=%d export=%s" % (workload, seed,
                                             ops[0]["digest"]))
    if len(clean) >= min_ops:
        return clean
    if ops:
        note("too few undisturbed operations: metrics use the "
             "least-stolen half")
    by_steal = sorted(ops, key=lambda o: o["steal_s"])
    return by_steal[:max(min_ops, len(ops) // 2)]


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * p)) - 1]


def end_to_end(ops):
    med = statistics.median
    return {
        "setup_s": med(o["setup_s"] for o in ops),
        "wall_s": med(o["wall_s"] for o in ops),
        "sim_minstr_per_s": med(o["instructions"] / o["run_s"] / 1e6
                                for o in ops),
        "peak_rss_mb": med(o["peak_rss_mb"] for o in ops),
    }


def per_layer(workload, seed, seconds, digests, tally):
    med = statistics.median
    metrics = {}
    # Enough sweep operations for a p90 of point times with ten beyond.
    min_ops = SWEEP_MIN_LAYER_OPS if workload.startswith("sweep") else MIN_OPS
    ops = run_ops(workload, seed, seconds * LAYER_OP_SHARE, digests, tally,
                  min_ops)
    if ops:
        if "point_s" in ops[0]:
            points = [s for o in ops for s in o["point_s"]]
            built = med(o["systems_built"] for o in ops)
            reused = med(o["systems_reused"] for o in ops)
            parallelism = med(sum(o["point_s"]) / o["wall_s"] for o in ops)
        else:
            points = [o["wall_s"] for o in ops]
            built, reused, parallelism = 1, 0, 1.0
        metrics.update({
            "executor.systems_built": built,
            "executor.systems_reused": reused,
            "executor.point_s.p50": med(points),
            "executor.point_s.p90": nearest_rank(points, 0.90),
            "executor.point_s.n": len(points),
            "executor.parallelism": parallelism,
            "host.cpu_s": med(o["cpu_s"] for o in ops),
            "host.sys_s": med(o["sys_s"] for o in ops),
        })

    constructs = {v: [] for v in VARIANTS}
    for _ in range(CONSTRUCT_REPS):
        for variant in VARIANTS:
            tally["attempted"] += 1
            res = call(["construct", workload, str(seed), variant])
            if res is None:
                tally["failed"] += 1
            else:
                constructs[variant].append(res)
    if all(constructs.values()):
        def m(variant, key):
            return med(r[key] for r in constructs[variant])
        metrics.update({
            "arch.construct_s": m("default", "construct_s"),
            "arch.construct_rss_mb": m("default", "construct_rss_mb"),
            "vm.prefault_s": (m("default", "construct_s")
                              - m("noprefault", "construct_s")),
            "fam.famtable_rss_mb": (m("default", "construct_rss_mb")
                                    - m("noscatter", "construct_rss_mb")),
        })

    export = BUILD_DIR / ("export.%s.layer.json" % workload)
    res = call(["layers", workload, str(seed), str(export)])
    if res is None:
        tally["attempted"] += 1
        tally["failed"] += 1
    else:
        tally["attempted"] += int(res.pop("attempted"))
        tally["failed"] += int(res.pop("failed"))
        if not (export_ok(export, 1) and digests.check(
                "%s:%d:layer:%d" % (workload, seed,
                                    res["trace.budget_instr"]),
                res["layer_digest"])):
            tally["failed"] += 1
        note("layer digest %s seed=%d export=%s" % (
            workload, seed, res["layer_digest"]))
        layer_budget = res["trace.budget_instr"]
        op_budget = res.pop("op_budget_instr")
        note("per-layer runs (traced run included) use %d instructions/"
             "core, timed operations %d%s" % (
                 layer_budget, op_budget,
                 ": shortened so the buffered trace fits in memory"
                 if layer_budget < op_budget else ""))
        metrics.update(res)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    desc = describe()
    note("famsim perfbench workload=%s seed=%d seconds=%g trace=%d" %
         (args.workload, args.seed, args.seconds, args.trace))
    note("host/build: " + json.dumps(desc, sort_keys=True))
    if not desc["comparable"]:
        note("WARNING: Debug, checker or sanitizer build; host timings "
             "are not comparable with Release runs")

    digests = Digests()
    tally = {"attempted": 0, "failed": 0}
    if args.trace:
        values = per_layer(args.workload, args.seed, args.seconds,
                           digests, tally)
        units = PER_LAYER
    else:
        ops = run_ops(args.workload, args.seed, args.seconds, digests,
                      tally)
        values = end_to_end(ops) if ops else {}
        units = END_TO_END

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    correct = tally["failed"] == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct,
                      "attempted": max(1, tally["attempted"]),
                      "failed": tally["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
