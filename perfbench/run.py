#!/usr/bin/env python3
"""The repo benchmark: two serving workloads, measured end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. On first use it builds the harness
(perfbench/CMakeLists.txt, which compiles the repo's library from src/)
into .bench_build/perfbench. It then writes the workload's job files,
generated from --seed, into .bench_work/, runs the harness in a process of
its own, reduces the raw measurements to metrics, and prints a table
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of one untraced window.
--trace 1 runs a traced window (library tracing on, then per-layer
probes) between two untraced ones and reports the per-layer metrics.

Workloads (see perfbench/LAYERS.md for the metric -> layer table):
  batch-sweep  in-process BatchServer, 2 workers, no cache: one serve()
               of a ~32M-message batch per pass
  serve-warm   in-process SocketServer on a Unix socket, 2 lanes, cache
               prefilled; 2 closed-loop clients cycle an 8-file pool

Every output is checked (see harness.cpp); a mismatch makes
"correct" false and the exit code 1.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

WORKLOADS = ("batch-sweep", "serve-warm")
BUILD_DIR = Path(".bench_build") / "perfbench"
WORK_DIR = Path(".bench_work")
HARNESS = BUILD_DIR / "perfbench_harness"
DEADLINE_S = 170  # the whole command, build excluded

# Set-ups per window: setup_s is their median.
SETUPS = {"batch-sweep": 3, "serve-warm": 7}
WARM_POOL_FILES = 8

END_TO_END = (
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("sim_msgs_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("cpu_ms_per_run", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "frac"),
)

PER_LAYER = (
    "graph.gen_ms", "service.parse_ms", "service.resolve_ms",
    "service.serve_ms", "service.render_ms", "service.queue_wait_ms",
    "sim.run_ms.luby", "sim.run_ms.maxis-alg2", "sim.run_ms.nmis",
    "sim.run_ms.mwm-2eps", "sim.ns_per_msg", "sim.ns_per_round",
    "sim.rounds", "sim.messages", "sim.bits", "sim.max_edge_bits",
    "cache.lookup_us", "cache.hit_ratio", "cache.store_us",
    "cache.evictions_per_run", "support.fsyncs_per_run",
    "changelog.append_us", "net.ping_us", "net.codec_us", "net.response_kb",
    "client.request_ms_p90", "client.request_ms_p99", "trace.overhead_frac",
)


class BenchError(Exception):
    pass


# ---- inputs -------------------------------------------------------------

def batch_sweep_files(rng):
    """The batch one pass serves, and a one-seed-per-job copy of it."""
    g_gnp, g_reg = rng.randrange(1, 1 << 31), rng.randrange(1, 1 << 31)
    jobs = [
        ("gnp:50000:0.00016", "luby", 24, f"gseed={g_gnp}", "gnp-luby"),
        ("gnp:50000:0.00016", "maxis-alg2", 12, f"maxw=1024 gseed={g_gnp}",
         "gnp-maxis"),
        ("regular:20000:8", "nmis", 8, f"gseed={g_reg}", "reg-nmis"),
        ("regular:20000:8", "mwm-2eps", 6, f"gseed={g_reg}", "reg-mwm"),
    ]

    def render(count_of):
        lines = []
        for gen, algo, count, extra, name in jobs:
            first = rng.randrange(1, 1 << 30)
            lines.append(f"gen={gen} algo={algo} "
                         f"seeds={first}:{count_of(count)} {extra} name={name}")
        return "\n".join(lines) + "\n"

    return {"batch.job": render(lambda c: c), "probe.job": render(lambda c: 1)}


# The examples/jobs_mixed.txt families at n ~ 256-400, with the four
# algorithms the per-layer run times directly; 46 runs per file.
SERVE_JOBS = (
    ("gnp:300:0.03", "luby", 12, ""),
    ("regular:256:6", "maxis-alg2", 8, "maxw=1024"),
    ("grid:16:16", "mcm-2eps", 4, "eps=0.25"),
    ("tree:400", "mwm-lr", 6, "maxw=64"),
    ("bipartite:150:150:0.04", "proposal", 6, "eps=0.2"),
    ("regular:256:6", "nmis", 6, ""),
    ("gnp:300:0.03", "mwm-2eps", 4, ""),
)


def serve_files(rng, count):
    """Job files that differ only in their run seeds: every file resolves
    the same graphs, so requests cost the same and the latency tail
    reflects the server rather than which file came up."""
    gseeds = [rng.randrange(1, 1 << 31) for _ in SERVE_JOBS]
    files = {}
    for k in range(count):
        lines = []
        for j, (gen, algo, count_j, extra) in enumerate(SERVE_JOBS):
            first = rng.randrange(1, 1 << 30)
            lines.append(f"gen={gen} algo={algo} seeds={first}:{count_j} "
                         f"gseed={gseeds[j]} {extra}".rstrip())
        files[f"pool/{k:05d}.job"] = "\n".join(lines) + "\n"
    return files


def write_inputs(workload, seed, work):
    rng = random.Random(f"{workload}/{seed}")
    if workload == "batch-sweep":
        files = batch_sweep_files(rng)
    else:
        files = serve_files(rng, WARM_POOL_FILES)
    for rel, text in files.items():
        path = work / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


# ---- build and run -------------------------------------------------------

def build():
    if not (Path("src").is_dir() and Path("CMakeLists.txt").is_file()):
        raise BenchError("run from the root of a checkout: src/ and "
                         "CMakeLists.txt are missing")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", "4"],
                   check=True, stdout=sys.stderr)


def run_harness(workload, work, seconds, deadline, traced=False,
                trace_out=None):
    cmd = [str(HARNESS.resolve()), workload, "--dir", str(work),
           "--seconds", str(seconds), "--setups", str(SETUPS[workload])]
    if workload != "batch-sweep":
        cmd += ["--min-requests", str(stats.samples_needed(0.9))]
    if traced:
        cmd += ["--traced", "--trace-out", str(trace_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the harness")
    # subprocess.run kills the child on timeout and waits for it.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                          text=True)
    if proc.returncode != 0:
        raise BenchError(f"harness exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---- reduction -----------------------------------------------------------

def end_to_end(raw):
    """Metric name -> (value, note) for an untraced window."""
    window, requests = raw["window_s"], raw["requests"]
    runs = max(1, raw["runs"])  # 0 only when every request failed
    ok = raw["attempted"] - raw["failed"]
    p50, beyond50 = stats.percentile(raw["latency_ms"], 0.5)
    n = len(raw["latency_ms"])
    return {
        "setup_s": (statistics.median(raw["setup_s"]),
                    f"median of {len(raw['setup_s'])} set-ups, quartile "
                    f"spread {stats.quartile_spread(raw['setup_s']):.3f}"),
        "runs_per_s": (runs / window, f"{runs} runs in {window:.3f} s"),
        "sim_msgs_per_s": (raw["messages"] / window,
                           f"{raw['computed_runs']} of {runs} runs computed"),
        "requests_per_s": (requests / window, f"{requests} requests"),
        "request_ms_p50": (p50, f"n={n}, {beyond50} beyond"),
        "cpu_ms_per_run": (raw["cpu_s"] * 1e3 / runs,
                           f"{raw['cpu_s']:.3f} cpu-s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "ru_maxrss"),
        "success_frac": (ok / raw["attempted"], f"{ok}/{raw['attempted']}"),
    }


def per_layer(raw, untraced):
    """Metric name -> (value, unit, note) for a traced window; `untraced`
    are the plain windows run around it."""
    out = {}
    for name, entry in raw["layers"].items():
        if "samples" in entry:
            samples = entry["samples"]
            value = statistics.median(samples) if samples else 0.0
            out[name] = (value, entry["unit"], f"median, n={len(samples)}")
        else:
            out[name] = (entry["value"], entry["unit"], "exact")
    for q in (0.9, 0.99):
        value, beyond = stats.percentile(raw["latency_ms"], q)
        out[f"client.request_ms_p{round(q * 100)}"] = (
            value, "ms", f"n={len(raw['latency_ms'])}, {beyond} beyond")
    traced_per_run = raw["window_s"] / raw["runs"]
    plain_per_run = statistics.median([u["window_s"] / u["runs"] for u in untraced])
    out["trace.overhead_frac"] = (traced_per_run / plain_per_run - 1, "frac",
                                  "traced / untraced wall per run - 1")
    missing = [m for m in PER_LAYER if m not in out]
    if missing:
        raise BenchError(f"per-layer metrics missing: {missing}")
    return out


def print_table(rows):
    for name, value, unit, note in rows:
        print(f"  {name:<26} {value:>16.6g} {unit:<6} {note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, BenchError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    deadline = time.monotonic() + DEADLINE_S

    name = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = fresh_dir(WORK_DIR / name)
    try:
        write_inputs(args.workload, args.seed, work)
        raw = run_harness(args.workload, work, args.seconds, deadline)
        if args.trace:
            # Untraced, traced, untraced again: the overhead estimate
            # compares the traced window with both neighbours, so a drift
            # in machine speed during the run cancels to first order.
            traces = WORK_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            fresh_dir(work)
            write_inputs(args.workload, args.seed, work)
            trace_out = traces / f"{args.workload}-{args.seed}.txt"
            traced = run_harness(args.workload, work, args.seconds,
                                 deadline, traced=True, trace_out=trace_out)
            fresh_dir(work)
            write_inputs(args.workload, args.seed, work)
            after = run_harness(args.workload, work, args.seconds, deadline)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs_out = [raw] + ([traced, after] if args.trace else [])
    attempted = sum(int(r["attempted"]) for r in runs_out)
    failed = sum(int(r["failed"]) for r in runs_out)
    for r in runs_out:
        for err in r["errors"]:
            print(f"perfbench: check failed: {err}", file=sys.stderr)

    d = raw["digest"]
    print(f"{args.workload} seed={args.seed}: {raw['requests']} requests, "
          f"{raw['runs']} runs in {raw['window_s']:.3f} s")
    print(f"  digest: runs={d['runs']} rounds={d['rounds']} "
          f"messages={d['messages']} bits={d['bits']} "
          f"max_edge_bits={d['max_edge_bits']} objective={d['objective']} "
          f"runs_csv={d['runs_csv']}")
    metrics = {}
    if args.trace:
        layers = per_layer(traced, [raw, after])
        print_table([(m, *layers[m]) for m in PER_LAYER])
        for m in PER_LAYER:
            metrics[m] = {"value": layers[m][0], "unit": layers[m][1]}
    else:
        e2e = end_to_end(raw)
        print_table([(m, e2e[m][0], unit, e2e[m][1]) for m, unit in END_TO_END])
        for m, unit in END_TO_END:
            metrics[m] = {"value": e2e[m][0], "unit": unit}

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
