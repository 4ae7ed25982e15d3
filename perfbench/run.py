#!/usr/bin/env python3
"""The repository benchmark (see WORKLOADS.md next to this file).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-180 --seed 20080301 \\
        --seconds 15 --trace 0

Builds the library, npsim/npsnode and the npsbench runner from source
into .bench_build/perfbench, runs one workload for --seconds seconds,
checks every repetition against the correctness oracle, prints a
per-metric report and, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones from a
separate traced run. Exits non-zero when any repetition fails its
check or the benchmark cannot run.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNDIR = os.path.join(ROOT, ".bench_run")

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import stats  # noqa: E402

DEFAULT_SEED = 20080301
MIN_REPS = 3  # npsbench's kMinReps
WORKLOADS = ("paper-180", "fleet-10k", "serve-180")

# The correctness oracle for the default seed: the FNV-1a digest of the
# simulated MetricsSummary + VMC counts (npsbench's summaryDigest) of a
# serial batch run, and for the dist-lockstep probe the CRC32 of the
# `npsim --plan` recorder CSV. serve-180 is the paper-180 campaign fed over a
# socket, so it must reproduce paper-180's batch digest. Other seeds are
# checked against a serial batch (or --plan) reference computed before
# timing.
PINNED = {
    "paper-180": "ba1448a5e166eda6",
    "serve-180": "ba1448a5e166eda6",
    "fleet-10k": "d662efc4117ba069",
    "dist-lockstep": "ff72224d",
}

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ns_per_server_tick", "ns"),
    ("samples_per_s", "1/s"),
    ("tick_p50_us", "us"),
    ("tick_p99_us", "us"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("trace.gen_ms", "ms"),
    ("core.build_ms", "ms"),
    ("core.actors", "count"),
    ("tick.base_us", "us"),
    ("tick.sm_us", "us"),
    ("tick.em_us", "us"),
    ("tick.gm_us", "us"),
    ("tick.vmc_us", "us"),
    ("sim.evaluate_ns_per_server", "ns"),
    ("pool.fork_join_us", "us"),
    ("pool.speedup", "ratio"),
    ("stream.stage_us", "us"),
    ("stream.backlog_max", "ticks"),
    ("stream.decode_ns_per_sample", "ns"),
    ("stream.staged_frac", "frac"),
    ("stream.crc_errors", "count"),
    ("obs.publish_us", "us"),
    ("obs.export_us", "us"),
    ("obs.series", "count"),
    ("dist.barrier_wait_p50_us", "us"),
    ("dist.barrier_wait_p99_us", "us"),
    ("dist.lockstep_ratio", "ratio"),
    ("tick.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("gen.lag_p99_us", "us"),
    ("openloop.tick_p50_us", "us"),
    ("openloop.tick_p99_us", "us"),
]

# The dist-lockstep probe: the paper run as two processes, one npsnode
# child hosting every GM. [obs] arms the registry in both replicas so the
# supervisor exports its always-on tick-wall and barrier-wait
# histograms; metrics_every is past the horizon, so no mid-run metrics
# snapshot crosses the wire. Recording every 30th tick keeps the CSV
# that the correctness gate compares small.
DIST_PAIRS = 4
DIST_PLAN = """[dist]
transport = unix
socket = {socket}
timeout_ms = 30000

[run]
scenario = coordinated
machine = BladeA
mix = 180
budgets = 20-15-10
ticks = 2880
seed = {seed}
threads = 1
record_stride = 30

[node group]
levels = gm:*

[obs]
metrics_every = 100000
"""


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no source tree at {ROOT}: nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", BUILD, "-j", jobs], "build")


def run_checked(cmd, what):
    r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise BenchError(f"{what} failed: {' '.join(cmd)}")


# ---------------------------------------------------------------------
# In-process workloads (npsbench)


def run_npsbench(args, deadline):
    out = os.path.join(RUNDIR, f"{args.workload}-{os.getpid()}.json")
    cmd = [os.path.join(BUILD, "npsbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                           stderr=sys.stderr,
                           timeout=max(1.0, deadline - time.monotonic()
                                       - 15.0))
    except subprocess.TimeoutExpired:
        raise BenchError("npsbench timed out")
    if r.returncode != 0:
        raise BenchError(f"npsbench exited with {r.returncode}")
    with open(out) as f:
        data = json.load(f)
    os.remove(out)
    spans = []
    if args.trace:
        spans = read_spans(out + ".spans.csv")
        os.remove(out + ".spans.csv")
    return data, spans


def read_spans(path):
    spans = []
    with open(path) as f:
        next(f)
        for line in f:
            i, parent, name, rep, phase, tick, cls, start, end = (
                line.rstrip("\n").split(","))
            spans.append({"id": int(i), "parent": int(parent),
                          "name": name, "rep": int(rep), "phase": phase,
                          "tick": int(tick), "class": cls,
                          "start": int(start), "end": int(end)})
    return spans


def check_reps(reps, expected):
    failed = 0
    for r in reps:
        if r["check"]:
            r["failure"] = r["check"]
        elif r["digest"] != expected:
            r["failure"] = (f"digest {r['digest']} != expected "
                            f"{expected}")
        else:
            continue
        failed += 1
        log(f"FAILED repetition ({r['mode']} {r['phase']}): "
            f"{r['failure']}")
    return failed


def inprocess(args, deadline):
    data, spans = run_npsbench(args, deadline)
    expected = (PINNED[args.workload] if args.seed == DEFAULT_SEED
                else data["expected_digest"])
    reps = data["reps"]
    failed = check_reps(reps, expected)
    host = dict(data["host"], seed=args.seed)
    servers = data["servers"]
    primary = "closed" if args.workload == "serve-180" else "batch"

    untraced = [r for r in reps if r["mode"] == "untraced"]
    timed = [r for r in untraced if r["phase"] == primary]
    setups = [r["setup_s"] for r in untraced]
    runs = [r["run_s"] for r in timed]
    report = {
        "setup_s": stats.summarize(setups),
        "run_s": stats.summarize(runs),
        "ns_per_server_tick": stats.summarize(
            [r["run_s"] * 1e9 / (servers * r["ticks"]) for r in timed]),
        "samples_per_s": stats.summarize(
            [r["samples"] / r["run_s"] for r in timed], better="higher"),
    }
    notes = {}
    report.update(tick_percentiles(data["tick_us"], "tick_", notes))
    report["peak_rss_mb"] = {"fast": data["peak_rss_mb"], "n": 1,
                             "note": f"after the first {MIN_REPS} "
                                     "repetitions"}
    layers = {}
    if args.trace:
        layers, lnotes = inprocess_layers(args, data, spans, primary)
        notes.update(lnotes)
    if args.trace and args.workload == "paper-180":
        dreps, dfailed, dlayers, dnotes, dexpected = dist_probe(args.seed)
        reps += dreps
        failed += dfailed
        layers.update(dlayers)
        notes.update(dnotes)
        expected = {"digest": expected, "dist_recorder_crc": dexpected}
    return {"reps": reps, "failed": failed, "host": host,
            "e2e": report, "layers": layers, "notes": notes,
            "expected": expected}


def tick_percentiles(rows, prefix, notes):
    """p50 and p99 of each repetition's per-tick latencies, summarized
    (fast decile, median, quartiles, n) over the repetitions."""
    out = {}
    for p in (50, 99):
        name = f"{prefix}p{p}_us"
        per = [stats.guarded_percentile(t, p) for t in rows]
        if not per:
            continue
        out[name] = stats.summarize([g["value"] for g in per])
        out[name]["ticks_per_rep"] = per[0]["n"]
        subs = sorted({g["note"] for g in per if g["note"]})
        if subs:
            notes[name] = subs
    return out


def median_of(values):
    return statistics.median(values) if values else None


def inprocess_layers(args, data, spans, primary):
    notes = {}
    layers = dict(data["layers"])
    layers["core.actors"] = data["actors"]
    main = [s for s in spans if s["phase"] == primary]
    summaries = notes.setdefault("timed", {})

    def put(name, values):
        # Span-timed metrics: median, with quartiles and n in the notes.
        if values:
            summaries[name] = stats.summarize(values)
            layers[name] = summaries[name]["median"]

    def durations(name, scale=1e3, phase=primary, cls=None):
        return [(s["end"] - s["start"]) / scale for s in spans
                if s["phase"] == phase and s["name"] == name
                and (cls is None or (s["class"] == cls and s["tick"] != 0))]

    put("trace.gen_ms", durations("trace.gen", scale=1e6))
    put("core.build_ms", durations("core.build", scale=1e6))
    for cls in ("base", "sm", "em", "gm", "vmc"):
        put(f"tick.{cls}_us", durations("tick", cls=cls))
    if args.workload == "fleet-10k":
        serial = durations("tick", phase="serial", cls="base")
        if serial and layers.get("tick.base_us"):
            layers["pool.speedup"] = (median_of(serial) /
                                      layers["tick.base_us"])
    if args.workload == "serve-180":
        for name, summary in tick_percentiles(
                data["open_us"], "openloop.tick_", notes).items():
            summaries[name] = summary
            layers[name] = summary["median"]
        put("stream.stage_us", durations("stream.stage"))
        put("obs.publish_us", durations("obs.publish"))
        if data["gen_lag_us"]:
            g = stats.guarded_percentile(data["gen_lag_us"], 99)
            layers["gen.lag_p99_us"] = g["value"]
            if g["note"]:
                notes["gen.lag_p99_us"] = g["note"]
    rows, total = stats.attribute(main)
    layers["tick.unattributed_frac"] = (rows["unattributed"] / total
                                        if total else None)
    notes["tick.rows"] = {k: v / 1e9 for k, v in sorted(rows.items())}
    notes["tick.rows_total_s"] = total / 1e9
    notes["tick.rows_reps"] = sum(1 for s in main if s["name"] == "run")
    # Overhead: traced repetitions against the untraced ones interleaved
    # with them, not against the whole run, so host drift cancels.
    reps = data["reps"]
    last = max((i for i, r in enumerate(reps) if r["mode"] == "traced"),
               default=-1)

    def med_run(mode):
        return median_of([r["run_s"] for r in reps[:last + 1]
                          if r["mode"] == mode and r["phase"] == primary])

    if med_run("untraced") and med_run("traced"):
        layers["trace.overhead_frac"] = (med_run("traced") /
                                         med_run("untraced") - 1.0)
    return layers, notes


# ---------------------------------------------------------------------
# The dist-lockstep probe of paper-180's traced run (npsim --distributed
# against the npsim --plan oracle on the same plan).


def parse_histogram(path, family, ident):
    """Cumulative (bound, count) buckets and the sum of one histogram
    series of a Prometheus text export."""
    buckets, total = [], None
    prefix = f'{family}_bucket{{id="{ident}"'
    with open(path) as f:
        for line in f:
            if line.startswith(prefix):
                le = line.split('le="', 1)[1].split('"', 1)[0]
                bound = math.inf if le == "+Inf" else float(le)
                buckets.append((bound, int(float(line.rsplit(" ", 1)[1]))))
            elif line.startswith(f'{family}_sum{{id="{ident}"'):
                total = float(line.rsplit(" ", 1)[1])
    if not buckets or total is None:
        raise BenchError(f"{path}: no {family}{{id={ident}}} series")
    return sorted(buckets), total


def dist_rep(mode, plan, tag):
    """One `npsim --distributed` (mode "dist") or `npsim --plan` run."""
    npsim = os.path.join(BUILD, "tools", "npsim")
    rec = os.path.join(RUNDIR, f"{tag}.csv")
    prom = os.path.join(RUNDIR, f"{tag}.prom")
    flag = "--distributed" if mode == "dist" else "--plan"
    rep = {"mode": "traced", "phase": mode, "check": "", "digest": ""}
    try:
        r = subprocess.run([npsim, flag, plan, "--record", rec,
                            "--metrics", prom], cwd=ROOT,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        rep["check"] = f"npsim {flag} timed out"
        return rep
    if r.returncode != 0:
        rep["check"] = (f"npsim {flag} exited with {r.returncode}: "
                        + r.stderr.strip()[-200:])
        return rep
    with open(rec, "rb") as f:
        rep["digest"] = f"{zlib.crc32(f.read()):08x}"
    rep["tick_wall"] = parse_histogram(prom, "nps_rt_tick_wall_ms", "rank0")
    if mode == "dist":
        rep["barrier"] = parse_histogram(prom, "nps_rt_barrier_wait_ms",
                                         "rank0")
    os.remove(rec)
    os.remove(prom)
    return rep


def dist_probe(seed):
    """DIST_PAIRS alternating --distributed / --plan runs of the paper
    campaign. Returns (reps, failed, layers, notes, expected CRC)."""
    tag = f"dist-{os.getpid()}"
    plan = os.path.join(RUNDIR, f"{tag}.plan")
    with open(plan, "w") as f:
        f.write(DIST_PLAN.format(socket=os.path.join(".bench_run",
                                                     f"{tag}.sock"),
                                 seed=seed))
    try:
        if seed == DEFAULT_SEED:
            expected = PINNED["dist-lockstep"]
        else:
            ref = dist_rep("plan", plan, tag + "-ref")
            if ref["check"]:
                raise BenchError("--plan reference failed: " + ref["check"])
            expected = ref["digest"]
        reps = [dist_rep(mode, plan, f"{tag}-{n}-{mode}")
                for n in range(DIST_PAIRS) for mode in ("dist", "plan")]
    finally:
        os.remove(plan)
    failed = check_reps(reps, expected)
    ok = [r for r in reps if not r.get("failure")]
    layers, notes = {}, {}
    barrier = None
    for r in ok:
        if r["phase"] == "dist":
            b = r["barrier"][0]
            barrier = b if barrier is None else [
                (x[0], x[1] + y[1]) for x, y in zip(barrier, b)]
    if barrier:
        for name, p in (("dist.barrier_wait_p50_us", 50),
                        ("dist.barrier_wait_p99_us", 99)):
            g = stats.guarded_histogram_percentile(barrier, p)
            layers[name] = g["value"] * 1e3
            if g["note"]:
                notes[name] = g["note"]
        notes["dist.barrier_wait"] = (
            "supervisor nps_rt_barrier_wait_ms histogram pooled over "
            "runs, interpolated within its buckets")
    wall = {m: [r["tick_wall"][1] for r in ok if r["phase"] == m]
            for m in ("dist", "plan")}
    if wall["dist"] and wall["plan"]:
        layers["dist.lockstep_ratio"] = (median_of(wall["dist"]) /
                                         median_of(wall["plan"]))
    return reps, failed, layers, notes, expected


# ---------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    # Every invocation must end within 180 s once built.
    try:
        build()
        os.makedirs(RUNDIR, exist_ok=True)
        deadline = time.monotonic() + 165.0
        res = inprocess(args, deadline)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    wanted = PER_LAYER if args.trace else END_TO_END
    # End-to-end: the fast decile over repetitions (see WORKLOADS.md,
    # "Steadiness and bounds"); the median and quartiles are reported.
    source = res["layers"] if args.trace else {
        k: v["fast"] for k, v in res["e2e"].items()}
    metrics, absent = {}, []
    for name, unit in wanted:
        value = source.get(name)
        if value is None:
            # The layer does no work on this workload (see WORKLOADS.md).
            absent.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    if absent and not args.trace:
        log(f"perfbench: end-to-end metrics missing: {absent}")

    attempted = len(res["reps"])
    failed = res["failed"]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "host": res["host"],
        "expected_digest": res["expected"],
        "fail_frac": {"value": failed / attempted if attempted else 1.0,
                      "unit": "frac"},
        "timed": res["e2e"],
        "not_applicable": absent,
        "notes": res["notes"],
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    for name, unit in wanted:
        extra = ""
        if not args.trace and name in res["e2e"]:
            s = res["e2e"][name]
            if s.get("q1") is not None:
                extra = (f"  (fast decile of n={s['n']}; median "
                         f"{s['median']:.6g}, q1 {s['q1']:.6g}, "
                         f"q3 {s['q3']:.6g})")
            else:
                extra = f"  (n={s['n']})"
        print(f"{name:30s} {metrics[name]['value']:.6g} {unit}{extra}")
    print(f"{'fail_frac':30s} {report['fail_frac']['value']:.6g} frac  "
          f"({failed} of {attempted} repetitions failed)")
    correct = failed == 0 and attempted > 0 and not (
        absent and not args.trace)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
