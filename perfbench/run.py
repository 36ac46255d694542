#!/usr/bin/env python3
"""Simulator-speed benchmark: build, run, check, and report one workload.

    python3 perfbench/run.py --workload random_d --seed 1 --seconds 20 --trace 1

Run from the repository root.  The first run configures and builds the
simulator from src/ in Release mode under .bench_build/perfbench; later runs
only rebuild what changed.  The harness repeats a fixed amount of simulated
work from a fresh simulator until --seconds have elapsed and reports medians
over the repeats.  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer metrics (it alternates untraced and traced repeats so
the tracing overhead is measured too).  Every metric is printed by name with
its unit; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A full record of each run (host,
build, git revision, every repeat) and the traced run's spans are written
under .bench_build/perfbench/results.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(BUILD, "results")
BINARY = os.path.join(BUILD, "perfbench_hmcsim")
OPTIMISED_BUILD_TYPES = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_hmcsim"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=840).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step {cmd[:2]} failed: {e}")
        if rc != 0:
            die(f"build step {' '.join(cmd[:2])} exited {rc}")


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def git_rev():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def median(values):
    return statistics.median(values) if values else float("nan")


def upper_quartile(values):
    """Upper quartile of a run's timing samples.

    Hosts shared with other tenants can run for seconds at a time in a
    state some 30% faster than usual.  The upper quartile ignores such
    phases unless they cover three quarters of the run, which about halved
    the run-to-run spread against the median on such a host.
    """
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def repeat_time(run):
    return upper_quartile([r["run_s"] for r in run["untraced"]])


def per_req(rep, key):
    return rep[key] / rep["completed"]


def per_cycle(rep, ns):
    return ns / rep["cycles"]


def stage(rep, *indices):
    return sum(rep["stage_ns"][i] for i in indices)


def driver_self_ns(rep):
    return rep["step_ns"] - rep["step_clock_ns"] - rep["gen_ns"]


def attributed_pct(rep):
    # Clock stages (inside steps and idle clocking) plus generator and
    # driver self time, as a share of the drive loop's wall time.
    layers = sum(rep["stage_ns"]) + rep["gen_ns"] + driver_self_ns(rep)
    return 100.0 * layers / (rep["run_s"] * 1e9)


# Each metric: (source, function of one repeat or of the whole run).
# "untraced" and "traced" take the median over those repeats, "codec" the
# median over codec passes, and "setup" the upper quartile of the
# set-up-only samples; "run" is computed once per run.
METRICS = {
    # End to end (untraced repeats; every repeat does identical work).
    "req_per_s": ("run", lambda run: (run["untraced"][0]["completed"] /
                                      repeat_time(run))),
    "ns_per_cycle": ("run", lambda run: (repeat_time(run) * 1e9 /
                                         run["untraced"][0]["cycles"])),
    "setup_s": ("setup", None),
    "peak_rss_mb": ("run", lambda run: run["done"]["peak_rss_mb"]),
    # Host-side layers (traced repeats).
    "workload.gen_ns_per_req": ("traced", lambda r: per_req(r, "gen_ns")),
    "workload.driver_self_ns_per_req":
        ("traced", lambda r: driver_self_ns(r) / r["completed"]),
    "workload.send_attempts_per_req":
        ("traced", lambda r: (r["sent"] + r["send_stalls"]) / r["sent"]),
    "packet.encode_ns": ("codec", lambda c: c["encode_ns"]),
    "packet.validate_ns": ("codec", lambda c: c["validate_ns"]),
    "packet.crc_ns_per_flit": ("codec", lambda c: c["crc_ns_per_flit"]),
    # Clock-engine stages from the profiler, per simulated cycle.
    "core.clock_ns_per_cycle":
        ("traced", lambda r: per_cycle(r, sum(r["stage_ns"]))),
    "core.xbar_ns_per_cycle":
        ("traced", lambda r: per_cycle(r, stage(r, 0, 1))),
    "core.vault_ns_per_cycle": ("traced", lambda r: per_cycle(r, stage(r, 2))),
    "core.response_ns_per_cycle":
        ("traced", lambda r: per_cycle(r, stage(r, 3))),
    "core.clock_update_ns_per_cycle":
        ("traced", lambda r: per_cycle(r, stage(r, 4))),
    "core.ff_ns_per_cycle": ("traced", lambda r: per_cycle(r, stage(r, 5))),
    # Telemetry bounds fast-forward spans, so skipping is read untraced.
    "core.ff_skip_frac": ("untraced", lambda r: r["skipped"] / r["cycles"]),
    # Modelled-cube counters (simulated time; identical across repeats).
    "core.bank_conflicts_per_req":
        ("traced", lambda r: per_req(r, "bank_conflicts")),
    "core.xbar_rqst_stalls_per_req":
        ("traced", lambda r: per_req(r, "xbar_rqst_stalls")),
    "core.latency_penalties_per_req":
        ("traced", lambda r: per_req(r, "latency_penalties")),
    "core.link_token_stalls_per_req":
        ("traced", lambda r: per_req(r, "link_token_stalls")),
    "core.latency_p50_cycles": ("traced", lambda r: r["latency_p50"]),
    "core.latency_p99_cycles": ("traced", lambda r: r["latency_p99"]),
    "core.vault_rqst_occupancy_mean": ("traced", lambda r: r["vault_rqst_occ"]),
    "core.xbar_rqst_occupancy_mean": ("traced", lambda r: r["xbar_rqst_occ"]),
    # Benchmark self-accounting.
    "bench.trace_overhead_pct": ("run", lambda run: 100.0 * (
        median([r["run_s"] for r in run["traced"]]) /
        median([r["run_s"] for r in run["untraced"]]) - 1.0)),
    "bench.attributed_pct": ("traced", attributed_pct),
}


def metric_value(name, run):
    if name not in METRICS:
        die(f"BENCHMARK.json names metric {name!r} that run.py cannot compute")
    source, fn = METRICS[name]
    if source == "run":
        return fn(run)
    if source == "setup":
        return upper_quartile(run["setup_s"])
    return median([fn(x) for x in run[source]])


def run_harness(args):
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(
        RESULTS, f"spans-{args.workload}-seed{args.seed}.csv")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"harness failed: {e}")
    run = {"host": {}, "untraced": [], "traced": [], "codec": [],
           "setup_s": [], "done": None,
           "spans": spans if args.trace else None}
    for line in proc.stdout.splitlines():
        rec = json.loads(line)
        if "host" in rec:
            run["host"] = rec["host"]
        elif "setup_only" in rec:
            run["setup_s"].append(rec["setup_s"])
        elif "repeat" in rec:
            run["traced" if rec["traced"] else "untraced"].append(rec)
        elif "codec_pass" in rec:
            run["codec"].append(rec)
        elif "done" in rec:
            run["done"] = rec
    if proc.returncode != 0 or run["done"] is None:
        die(f"harness exited {proc.returncode}")
    return run


def check(run, args):
    """Correctness checks; returns (ok, failed request count, messages)."""
    msgs = []
    ok = run["done"]["done"] is True
    repeats = run["untraced"] + run["traced"]
    failed = sum(r["requests"] - r["completed"] + r["errors"] + r["abandoned"]
                 for r in repeats)
    if failed:
        ok = False
        msgs.append(f"FAIL: {failed} requests never completed, returned "
                    "ERROR, or were abandoned")
    digests = {r["digest"] for r in repeats}
    if len(digests) != 1:
        ok = False
        msgs.append(f"FAIL: simulated-statistics digest differs across "
                    f"repeats: {sorted(digests)}")
    else:
        digest = digests.pop()
        msgs.append(f"digest {digest} identical across {len(repeats)} "
                    f"repeats ({len(run['traced'])} traced)")
        with open(os.path.join(HERE, "digests.json")) as f:
            recorded = json.load(f)
        if args.seed == recorded["seed"]:
            want = recorded["digests"].get(args.workload)
            if digest != want:
                ok = False
                msgs.append(f"FAIL: digest {digest} != recorded {want} for "
                            f"seed {args.seed}")
            else:
                msgs.append(f"digest matches the recorded seed-"
                            f"{args.seed} value")
    bad = sum(c["bad"] for c in run["codec"])
    if bad:
        ok = False
        msgs.append(f"FAIL: {bad} codec-pass packets failed to build or "
                    "validate")
    return ok, failed, msgs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; expected one of {names}")
    build()
    run = run_harness(args)
    if not run["host"].get("optimized") or \
            run["host"].get("build_type") not in OPTIMISED_BUILD_TYPES:
        die(f"refusing to report numbers from a non-optimised build: "
            f"{run['host']}")
    ok, failed, msgs = check(run, args)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": metric_value(m["name"], run),
                           "unit": m["unit"]} for m in contract[section]}
    attempted = sum(r["requests"] for r in run["untraced"] + run["traced"])

    host = dict(run["host"], git_rev=git_rev(),
                cxx=cmake_cache("CMAKE_CXX_COMPILER"))
    print(f"host: {host['cpus']} CPUs, {host['cxx']} {host['compiler']}, "
          f"{host['build_type']} build, rev {host['git_rev']}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(run['untraced'])} untraced + {len(run['traced'])} traced "
          f"repeats of {run['untraced'][0]['requests']} requests")
    print(f"failed_frac {failed / attempted:g} ({failed} of {attempted})")
    for m in contract[section]:
        print(f"  {m['name']:34s} {metrics[m['name']]['value']:14.6g} "
              f"{m['unit']:10s} ({m['better']} is better)")
    for msg in msgs:
        print(msg)
    if run["spans"]:
        print(f"spans: {os.path.relpath(run['spans'], ROOT)}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "correct": ok, "metrics": metrics, "checks": msgs,
              "repeats": run["untraced"] + run["traced"],
              "codec": run["codec"], "setup_s": run["setup_s"]}
    out = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-"
                                f"trace{args.trace}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    print(f"record: {os.path.relpath(out, ROOT)}")

    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
