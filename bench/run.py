"""Benchmark for tmp3: cold and warm solve, certificates and the CLI.

    python3 bench/run.py --workload cold_solve --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --short

Run from the repository root; nothing needs installing. The inputs for the
seed are prepared first, in a process of their own and outside every clock
(cached under bench/.work). The workload then runs in child processes with
an explicit environment. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
See bench/README.md for the workloads, the checks and the reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("cold_solve", "warm_solve", "certify")
KINDS = {"cold_solve": ["genuine", "problems"], "warm_solve": ["genuine", "refuted"],
         "certify": ["cert"]}
# each operation's time is taken over at least this many untraced passes
MIN_PASSES = 5
TRACED_SECONDS = 15.0  # a traced run measures at most this long
SETUPS = 3  # set-up is measured this many times per run; its median is reported
TIMEOUT = 170.0


class BenchError(RuntimeError):
    pass


def child_env():
    """The whole environment of every child: no variable is inherited but PATH."""
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": os.path.join(WORK, "pycache"),
    }
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def source_digest():
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src", "tmp3"), HERE):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                with open(os.path.join(top, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:12]


def worker(args, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + [str(a) for a in args]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=left)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:3]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare(workload, seed, deadline):
    out = os.path.join(WORK, "inputs", source_digest(), f"s{seed}")
    worker(["prepare", "--seed", seed, "--out", out, "--kinds"] + KINDS[workload], deadline)
    return out


def run_workload(workload, inputs, seconds, trace, short, deadline):
    """Worker results of one run: (list of result dicts, set-up samples)."""
    spans = os.path.join(WORK, "trace", f"{workload}.tsv")
    if trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        if os.path.exists(spans):
            os.remove(spans)

    def run(extra, mode="off"):
        args = ["run", "--workload", workload, "--inputs", inputs,
                "--spawned-at", repr(time.monotonic()), "--trace", mode] + extra
        if mode != "off":
            args += ["--spans", spans]
        return worker(args, deadline)

    results = []
    passes = 1 if short or trace else MIN_PASSES  # traced runs give no end-to-end figures
    if trace:
        seconds = min(seconds, TRACED_SECONDS)
    if workload == "cold_solve":
        # one fresh interpreter per pass
        t0 = time.monotonic()
        while True:
            mode = "all" if trace and len(results) % 2 == 1 else "off"
            results.append(run(["--seconds", 0], mode))
            plain = sum(r["lat_s"] != [] for r in results)
            if (plain >= passes and (short or time.monotonic() - t0 >= seconds)
                    and (not trace or len(results) % 2 == 0)):
                break
        return results, [r["setup_s"] for r in results]
    extra = ["--seconds", 0 if short else seconds, "--min-passes", passes]
    setups = []
    if not short and not trace:
        setups = [run(["--seconds", 0, "--setup-only"]) for _ in range(SETUPS - 1)]
    results.append(run(extra, "alternate" if trace else "off"))
    return results, [r["setup_s"] for r in setups + results]


def op_times(results):
    """Each operation's time: the upper quartile of its wall times over the
    run's untraced passes.

    Every pass runs the same operations in the same order. On a shared host
    a process runs at its usual speed most of the time and in bursts of a
    few seconds up to 1.5x faster, when its core is less contended. The
    upper quartile keeps those bursts out of every operation's figure; in
    probes it spread least over runs of the same code, less than the mean,
    the median or the minimum of each operation's times."""
    passes = [lat for r in results for lat in r["lat_s"]]
    return [statistics.quantiles(times, n=4, method="inclusive")[2] if len(times) > 1
            else times[0] for times in zip(*passes)]


def end_to_end(results, setups):
    lat = op_times(results)
    return {
        "ops_per_s": (len(lat) / math.fsum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3,
                           "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in results) / 1024.0, "MB"),
        "decided_per_pass": (statistics.median(d for r in results for d in r["decided"]),
                             "count"),
    }


def per_layer(results):
    from spans import NAMES, layer_metrics

    totals, lapack, ops = {}, 0, 0
    for r in results:
        if "totals" not in r:
            continue
        for name, (calls, ns) in r["totals"].items():
            acc = totals.setdefault(name, [0, 0])
            acc[0] += calls
            acc[1] += ns
        lapack += r["lapack"]
        ops += r["traced_ops"]
    out = layer_metrics(totals, lapack, ops)
    # the import of tmp3.cli in each traced fresh process (cold_solve only)
    imports = [r["import_ms"] for r in results if "totals" in r and "import_ms" in r]
    out["cli.import_ms"] = statistics.median(imports) if imports else 0.0
    traced = [s for r in results for s in r.get("traced_pass_s", [])]
    plain = [s for r in results for s in r["pass_s"]]
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return {n: (out[n], "ms" if n.endswith("_ms") else "ratio" if n.endswith("_ratio")
                else "count") for n in NAMES}


def one_run(workload, seed, seconds, trace, short=False):
    deadline = time.monotonic() + TIMEOUT
    inputs = prepare(workload, seed, deadline)
    results, setups = run_workload(workload, inputs, seconds, trace, short, deadline)
    faults = {}
    for r in results:
        for name, n in r["faults"].items():
            faults[name] = faults.get(name, 0) + n
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    unknown = sorted({f for r in results for f in r["unknown_faults"]})
    metrics = per_layer(results) if trace else end_to_end(results, setups)
    print(f"{workload} seed={seed} trace={int(trace)}: attempted={attempted} "
          f"failed={failed} passes={sum(len(r['decided']) for r in results)}")
    print("  failures per fault: " + json.dumps(dict(sorted(faults.items()))))
    if unknown:
        print("  faults outside the three known ones: " + ", ".join(unknown))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    return {"correct": not unknown, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="one brief pass of every workload, with all its checks")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tmp3", "__init__.py")):
        print(f"error: no tmp3 sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.short:
            ok = True
            for wl in WORKLOADS:
                for trace in (0, 1):
                    res = one_run(wl, args.seed, 0, trace, short=True)
                    ok = ok and res["correct"]
            print(json.dumps({"correct": ok}))
            return 0 if ok else 1
        if args.workload is None:
            ap.error("--workload is required unless --short is given")
        res = one_run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
