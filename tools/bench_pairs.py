"""Alternating runs of the benchmark on a parent revision and on a change.

    python3 tools/bench_pairs.py --parent HEAD --pairs 10 --seed 901 \\
        --claim warm_solve:ops_per_s --out BENCH_9.json

The parent revision is exported with ``git archive`` into a temporary
directory, so it runs its committed files; the change is this working tree.
For every workload of BENCHMARK.json, pair i runs its command once on each
side with ``--workload W --seed S --seconds <run_seconds> --trace 0``, both
sides on the same seed S = --seed + i - 1: odd pairs run the parent first,
even pairs the change first. The result file (``description``, ``host``,
``claim`` and ``workloads.<w>.pairs[]``) is rewritten after every pair; a
summary of each end-to-end metric (median and quartiles per side, pairs the
change won) is printed at the end. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True).stdout


def export(rev, dest):
    """The committed files of rev, unpacked under dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")
    return dest


def host():
    return (f"{platform.system()} {platform.machine()}, {os.cpu_count()} cores, "
            f"Python {platform.python_version()}, numpy {metadata.version('numpy')}")


def run_once(checkout, command, workload, seed, seconds):
    """Metric values and failure counts of one untraced benchmark run in checkout."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
            "--trace", "0"]
    proc = subprocess.run(command + args, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command + args)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {name: m["value"] for name, m in res["metrics"].items()}
    out.update(failed=res["failed"], attempted=res["attempted"], correct=res["correct"])
    return out


def summary(doc, spec):
    """Per workload and end-to-end metric: each side's median [q1, q3] and the wins."""
    lines = []
    for workload, entry in doc["workloads"].items():
        pairs = entry["pairs"]
        lines.append(f"{workload} ({len(pairs)} pairs)")
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            sides = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
            won = sum((c > p) if higher else (c < p)
                      for p, c in zip(sides["parent"], sides["change"]))
            text = []
            for side, vals in sides.items():
                q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
                text.append(f"{side} {statistics.median(vals):.4g} [{q[0]:.4g}, {q[2]:.4g}]")
            lines.append(f"  {name:18s} {'  '.join(text)}  change won {won}/{len(pairs)}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                    help="the gain the change claims, recorded in the file")
    ap.add_argument("--note", default="", help="appended to the description")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        claim = {"workload": workload, "metric": metric}
    command, seconds = spec["command"], spec["run_seconds"]
    parent_id = git("rev-parse", "--short", args.parent).decode().strip()
    doc = {
        "description": (f"Parent ({parent_id}) against this change, "
                        f"alternating {seconds:g} s runs of `{' '.join(command)} --workload W "
                        f"--seed S --seconds {seconds:g} --trace 0`; odd pairs ran the parent "
                        f"first, even pairs the change first. {args.note}").strip(),
        "host": host(),
        "claim": claim,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": export(args.parent, os.path.join(tmp, "parent")), "change": ROOT}
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = doc["workloads"].setdefault(workload, {"pairs": []})["pairs"]
            for i in range(1, args.pairs + 1):
                seed = args.seed + i - 1
                order = ("parent", "change") if i % 2 else ("change", "parent")
                pair = {"seed": seed, "order": f"{order[0]} first"}
                for side in order:
                    pair[side] = run_once(sides[side], command, workload, seed, seconds)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{json.dumps(pair[side])}", file=sys.stderr, flush=True)
                pairs.append({k: pair[k] for k in ("seed", "order", "parent", "change")})
                with open(args.out, "w") as fh:
                    json.dump(doc, fh, indent=1)
                    fh.write("\n")
    print(summary(doc, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
