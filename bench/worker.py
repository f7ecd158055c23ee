"""One benchmark process; prints one JSON line for run.py.

    worker.py prepare --seed S --out DIR --kinds genuine refuted cert problems
    worker.py run --workload W --inputs DIR --seconds S --spawned-at T
                  [--setup-only] [--trace off|alternate|all] [--min-passes N]
                  [--spans FILE]

``run`` imports tmp3 (``tmp3.cli`` for cold_solve), loads the inputs and,
for warm_solve and certify, touches every (case, k) once; the time from
``--spawned-at`` (the parent's monotonic clock) to that point is the set-up
time. It then runs whole passes over the corpus until the passes have taken
``--seconds`` and at least ``--min-passes`` untraced passes were run. Each
pass's outputs are checked before the next pass starts, outside the clock.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import time

import corpus
from checks import (KNOWN_FAULTS, beta_of, cert_poly, check_certificate, check_cli,
                    check_solve)


def cmd_prepare(args):
    corpus.prepare(args.seed, [k for k in args.kinds if k != "problems"], args.out)
    index_path = os.path.join(args.out, "problems.json")
    if "problems" in args.kinds and not os.path.exists(index_path):
        # the genuine instances as problem files for ``tmp3 solve``
        prob_dir = os.path.join(args.out, "problems")
        os.makedirs(prob_dir, exist_ok=True)
        with open(corpus.input_path(args.out, "genuine")) as fh:
            recs = json.load(fh)
        index = []
        for rec in recs:
            problem = {"case": rec["case"], "params": rec["params"], "k": rec["k"],
                       "moments": [{"i": i, "j": j, "v": v} for i, j, v in rec["moments"]]}
            name = rec["id"].replace("/", "_").replace("+", "p") + ".json"
            with open(os.path.join(prob_dir, name), "w") as out:
                json.dump(problem, out)
            index.append({"record": rec, "file": os.path.join("problems", name)})
        with open(index_path + ".tmp", "w") as fh:
            json.dump(index, fh)
        os.replace(index_path + ".tmp", index_path)
    points = corpus.input_path(args.out, "points")
    if not os.path.exists(points):
        data = {}
        for label, cid, params in corpus.CASES:
            X, Y = corpus.curve_points(cid, params)
            data[label] = [X.tolist(), Y.tolist()]
        with open(points + ".tmp", "w") as fh:
            json.dump(data, fh)
        os.replace(points + ".tmp", points)
    print(json.dumps({"ok": True}))


# ---------------------------------------------------------------------------
# Operations


class Solve:
    """decide, then extract (constructive, passed) or witness (refuted)."""

    def __init__(self, api, recs):
        self.api = api
        self.items = []
        for rec in recs:
            case = api.make_case(rec["case"], rec["params"])
            L = api.MomentSequence(case, rec["k"], beta_of(rec))
            self.items.append((rec, L, case.is_constructive()))

    def op(self, item):
        rec, L, constructive = item
        api = self.api
        out = {}
        dec = api.decide(L)
        out["verdict"] = dec.verdict
        if rec["kind"] == "genuine":
            if constructive and dec.passed():
                try:
                    out["measure"] = api.extract(L, decision=dec)
                except api.ExtractionFailed as exc:
                    out["extract_error"] = str(exc)
        elif dec.verdict == "NotMomentFunctional" and dec.witness_available:
            try:
                out["witness"] = api.witness(L, decision=dec)
            except api.NoWitness as exc:
                out["witness_error"] = str(exc)
        return out

    def check(self, item, out, points):
        rec = item[0]
        atoms = None
        if "measure" in out:
            atoms = [(a.x, a.y, a.w) for a in out["measure"].atoms]
        witness = dict(out["witness"].coeffs) if "witness" in out else None
        return check_solve(rec, beta_of(rec), points[rec["label"]], out["verdict"],
                           atoms=atoms, extract_error=out.get("extract_error"),
                           witness=witness, witness_error=out.get("witness_error"))


class Certify:
    """verify_certificate on a valid certificate, or on it paired with p + 1."""

    def __init__(self, api, recs):
        self.api = api
        self.items = []
        self.first = []
        for rec in recs:
            case = api.make_case(rec["case"], rec["params"])

            def form(key, labels):
                return None if rec[key] is None else api.SymmetricForm(labels, rec[key])

            grams = [form("gram0", rec["labels0"]), form("gram1", rec["labels1"]),
                     form("gram2", rec["labels1"])]
            cert = api.Certificate(rec["form"], *grams)
            for shift in (0.0, 1.0):
                p = api.BivarPoly(cert_poly(rec, shift))
                self.items.append((rec, p, cert, case, shift == 0.0))
            self.first.append(self.items[-2])

    def op(self, item):
        _, p, cert, case, _ = item
        return {"accepted": self.api.verify_certificate(p, cert, case, item[0]["k"]).ok()}

    def check(self, item, out, points):
        return check_certificate(item[4], out["accepted"]), out["accepted"] == item[4]


class CliSolve:
    """``tmp3 solve --input F --extract``, run in-process through ``tmp3.cli.run``."""

    def __init__(self, cli, inputs):
        self.cli = cli
        with open(os.path.join(inputs, "problems.json")) as fh:
            self.items = [(e["record"], os.path.join(inputs, e["file"])) for e in json.load(fh)]

    def op(self, item):
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            code = self.cli.run(["solve", "--input", item[1], "--extract"])
        return {"code": code, "stdout": report.getvalue()}

    def check(self, item, out, points):
        rec = item[0]
        try:
            report = json.loads(out["stdout"])
        except ValueError:
            return ["cli_unreadable_report"], False
        return check_cli(rec, beta_of(rec), points[rec["label"]], out["code"], report)


# ---------------------------------------------------------------------------
# Passes


def run_pass(work, tracer=None):
    outs, lat = [], []
    t_start = time.perf_counter()
    for n, item in enumerate(work.items):
        if tracer is not None:
            tracer.op = n
        t0 = time.perf_counter()
        try:
            out = work.op(item)
        except Exception as exc:  # a raising operation is a counted failure
            out = {"error": type(exc).__name__}
        lat.append(time.perf_counter() - t0)
        outs.append(out)
    return outs, lat, time.perf_counter() - t_start


def cmd_run(args):
    wl = args.workload
    inputs = args.inputs

    def load(kind):
        with open(corpus.input_path(inputs, kind)) as fh:
            return json.load(fh)

    result = {}
    if wl == "cold_solve":
        t0 = time.perf_counter()
        import tmp3.cli

        result["import_ms"] = (time.perf_counter() - t0) * 1e3
        work = CliSolve(tmp3.cli, inputs)
    else:
        import tmp3 as api

        if wl == "warm_solve":
            work = Solve(api, load("genuine") + load("refuted"))
        else:
            work = Certify(api, load("cert"))
        for item in getattr(work, "first", work.items):
            try:
                work.op(item)
            except Exception:  # failures are counted in the timed passes
                pass
    result["setup_s"] = time.monotonic() - args.spawned_at
    if args.setup_only:
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(result))
        return

    # --trace all: every pass is traced; alternate: every second pass, so the
    # untraced passes in between give the tracing overhead
    tracer = None
    if args.trace != "off":
        from spans import Tracer

        tracer = Tracer()
    with open(corpus.input_path(inputs, "points")) as fh:
        points = json.load(fh)
    passes = []  # (latencies, seconds, traced)
    faults = {}
    failed = attempted = 0
    decided = []
    while True:
        traced = args.trace == "all" or (args.trace == "alternate" and len(passes) % 2 == 1)
        if traced:
            tracer.install()
        outs, lat, secs = run_pass(work, tracer if traced else None)
        if traced:
            tracer.uninstall()
        passes.append((lat, secs, traced))
        # check this pass before the next one, outside the clock
        n_decided = 0
        for item, out in zip(work.items, outs):
            attempted += 1
            if "error" in out:
                found, ok = [f"error:{out['error']}"], False
            else:
                found, ok = work.check(item, out, points)
            n_decided += bool(ok)
            if found:
                failed += 1
                for name in found:
                    faults[name] = faults.get(name, 0) + 1
        decided.append(n_decided)
        # a fully traced process counts its traced passes
        counted = sum(args.trace == "all" or not p[2] for p in passes)
        done = sum(p[1] for p in passes) >= args.seconds and counted >= args.min_passes
        if done and (args.trace != "alternate" or len(passes) % 2 == 0):
            break

    result.update({
        "pass_s": [p[1] for p in passes if not p[2]],
        "lat_s": [p[0] for p in passes if not p[2]],
        "attempted": attempted, "failed": failed, "faults": faults,
        "unknown_faults": sorted(set(faults) - set(KNOWN_FAULTS)),
        "decided": decided,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    })
    if tracer is not None:
        traced_passes = [p for p in passes if p[2]]
        result["traced_pass_s"] = [p[1] for p in traced_passes]
        result["traced_ops"] = sum(len(p[0]) for p in traced_passes)
        result.update(totals=tracer.totals(), lapack=len(tracer.lapack))
        if args.spans:
            tracer.write(args.spans, mode="a")
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(prog="worker.py")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("prepare")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kinds", nargs="+", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True,
                   choices=("cold_solve", "warm_solve", "certify"))
    r.add_argument("--inputs", required=True)
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--spawned-at", type=float, required=True)
    r.add_argument("--setup-only", action="store_true")
    r.add_argument("--trace", choices=("off", "alternate", "all"), default="off")
    r.add_argument("--min-passes", type=int, default=1)
    r.add_argument("--spans", default=None)
    args = ap.parse_args(argv)
    if args.cmd == "prepare":
        cmd_prepare(args)
    else:
        cmd_run(args)


if __name__ == "__main__":
    main()
