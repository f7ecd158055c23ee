"""CPU time of the cold symbolic table build, split into lstsq, rewrite and the rest.

    PYTHONPATH=src python3 tools/cold_tables.py

The seed-1 ``cold_solve`` corpus of ``bench/corpus.py`` (the genuine
instances) is first solved once with ``tmp3 solve --extract``, in-process,
to record every compiled form (``moment._form``) the solves ask for. Then
every functools cache of the tmp3 modules is cleared and those forms are
built again, cold, label-major and k ascending. During that build every
``numpy.linalg.lstsq`` call, every ``poly.rewrite`` call and every call of
a case record's ``bk`` hook are counted, and the CPU time of the first two
is measured; the rest is the build's CPU time outside them. These layers
run inside the forms' compilation, where the span tracer of
``bench/spans.py`` does not see them. After the build, one line per
functools cache of the tmp3 modules gives its size, hits and misses: the
traffic of each table during the build. Only the standard library and numpy
are used, and ``bench/corpus.py`` is only imported.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))

import corpus  # noqa: E402

from tmp3 import cli, curves, moment, poly  # noqa: E402

SEED = 1


def problem_files(dest, keys):
    """The seed-1 genuine instances of the corpus keys as ``tmp3 solve`` problem files."""
    out = []
    for n, key in enumerate(keys):
        rec = corpus.make_genuine(SEED, *key)
        path = os.path.join(dest, f"{n}.json")
        with open(path, "w") as fh:
            json.dump({"case": rec["case"], "params": rec["params"], "k": rec["k"],
                       "moments": [{"i": i, "j": j, "v": v} for i, j, v in rec["moments"]]},
                      fh)
        out.append((rec["label"], path))
    return out


def solved_forms(problems):
    """(case, k, which) of every form the solves compile, label-major, then k
    ascending, then in the order the solves first asked for them."""
    seen = {}  # (case, k, which) -> label of the first solve that asked for it
    label = None
    real = moment._form

    def recording(case, k, which):
        seen.setdefault((case, k, which), label)
        return real(case, k, which)

    moment._form = recording
    try:
        for label, path in problems:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run(["solve", "--input", path, "--extract"])
    finally:
        moment._form = real
    labels = [lbl for lbl, _, _ in corpus.CASES]
    keys = [(labels.index(lbl), k, n, which, case)
            for n, ((case, k, which), lbl) in enumerate(seen.items())]
    return [(case, k, which) for _, k, _, which, case in sorted(keys)]


def caches():
    """{"module.name": cached function} of every functools cache of the tmp3
    modules, class attributes included, each once under its own module."""
    out = {}
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("tmp3"):
            continue
        for obj in list(vars(mod).values()):
            members = vars(obj).values() if inspect.isclass(obj) else (obj,)
            for fn in members:
                fn = getattr(fn, "__func__", fn)
                if hasattr(fn, "cache_clear"):
                    out[f"{fn.__module__.removeprefix('tmp3.')}.{fn.__qualname__}"] = fn
    return dict(sorted(out.items()))


def clear_caches():
    """Clear every functools cache of the tmp3 modules."""
    for fn in caches().values():
        fn.cache_clear()


def timed(stats, fn):
    """fn, counting its calls and their CPU seconds in stats = [calls, seconds]."""
    def wrapper(*args, **kwargs):
        t0 = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            stats[0] += 1
            stats[1] += time.process_time() - t0

    return wrapper


def cold_build(forms):
    """(CPU seconds, {"lstsq": [calls, seconds], "rewrite": [calls, seconds]},
    the (case, k) of every call of a record's bk hook, {cache name: its
    cache_info() after the build}) of building the forms from cleared caches."""
    stats = {"lstsq": [0, 0.0], "rewrite": [0, 0.0]}
    bk_calls = []
    records = dict(curves._CATALOG)
    lstsq, rewrite = np.linalg.lstsq, poly.rewrite

    def counting(bk):
        def wrapper(case, k):
            bk_calls.append((case, k))
            return bk(case, k)

        return wrapper

    for cid, rec in records.items():
        curves._CATALOG[cid] = dataclasses.replace(rec, bk=counting(rec.bk))
    np.linalg.lstsq = timed(stats["lstsq"], lstsq)
    poly.rewrite = timed(stats["rewrite"], rewrite)
    clear_caches()
    try:
        t0 = time.process_time()
        for case, k, which in forms:
            moment._form(case, k, which)
        total = time.process_time() - t0
        traffic = {name: fn.cache_info() for name, fn in caches().items()}
    finally:
        np.linalg.lstsq, poly.rewrite = lstsq, rewrite
        curves._CATALOG.update(records)
        clear_caches()
    return total, stats, bk_calls, traffic


def print_report(forms, total, stats, bk_calls, traffic):
    """The report of main, from the build's counts (cold_build)."""
    (n_lstsq, t_lstsq), (n_rewrite, t_rewrite) = stats["lstsq"], stats["rewrite"]
    print(f"forms    {len(forms):6d}  built cold, cpu {total:.3f} s")
    print(f"lstsq    {n_lstsq:6d}  calls, cpu {t_lstsq:.3f} s")
    print(f"rewrite  {n_rewrite:6d}  calls, cpu {t_rewrite:.3f} s")
    print(f"rest             cpu {total - t_lstsq - t_rewrite:.3f} s")
    print(f"bk       {len(bk_calls):6d}  calls over {len(set(bk_calls))} (case, k)")
    for name, info in traffic.items():
        print(f"cache    {name:36s} size {info.currsize:6d}  hits {info.hits:7d}"
              f"  misses {info.misses:6d}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        forms = solved_forms(problem_files(tmp, corpus.corpus_keys()))
    print_report(forms, *cold_build(forms))


if __name__ == "__main__":
    main()
