"""Atom counts of the extracted measures against the Caratheodory bound 3k.

    PYTHONPATH=src python3 tools/atom_census.py

For the constructive labels of ``bench/corpus.py`` (P3, P4, P5, the three P6
variants, P12, P13), k = 2..6, seeds 1 and 2, and genuine measures with
n in {k, 2k, 3k-3, 3k-1, 3k, 3k+1} atoms (``generate_measure`` with the
integer-list seed [seed, label index, k, n]), each functional is decided and,
when it passes, extracted with the default options. One line per (label, k)
gives the instances, those decided (a passing verdict), those extracted (a
measure that reproduces the moments to 1e-6), the largest atom count against
3k, and the extracted measures with more than 3k atoms (P5's point mass at
its isolated origin not counted); a last line gives the totals. Only the
standard library and numpy are used, and ``bench/corpus.py`` is only imported.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))

import corpus  # noqa: E402

from tmp3 import (ExtractionFailed, MomentSequence, decide, extract,  # noqa: E402
                  generate_measure, make_case, verify)

SEEDS = (1, 2)
KS = (2, 3, 4, 5, 6)


def atom_counts(k):
    """The atom counts n of the grid at k."""
    return sorted({k, 2 * k, 3 * k - 3, 3 * k - 1, 3 * k, 3 * k + 1})


def census(labels=None, ks=KS, seeds=SEEDS):
    """{(label, k): [instances, decided, extracted, largest atom count,
    measures with more than 3k atoms]}."""
    names = [label for label, _, _ in corpus.CASES]
    out = {}
    for label, cid, params in corpus.CASES:
        if cid not in corpus.CONSTRUCTIVE or (labels is not None and label not in labels):
            continue
        case = make_case(cid, params)
        for k in ks:
            row = out.setdefault((label, k), [0, 0, 0, 0, 0])
            for seed in seeds:
                for n in atom_counts(k):
                    mu = generate_measure(case, n, k, seed=[seed, names.index(label), k, n])
                    L = MomentSequence(case, k, mu.moments(k))
                    row[0] += 1
                    dec = decide(L)
                    if not dec.passed():
                        continue
                    row[1] += 1
                    try:
                        got = extract(L, decision=dec)
                    except ExtractionFailed:
                        continue
                    if verify(got, L) < 1e-6:
                        atoms = len(got) - (dec.o_weight > 0)
                        row[2] += 1
                        row[3] = max(row[3], atoms)
                        row[4] += atoms > 3 * k
    return out


def print_table(rows):
    head = ("label", "k", "inst", "decided", "extracted", "max atoms", "3k", "> 3k")
    print("{:6} {:>2} {:>5} {:>8} {:>10} {:>10} {:>3} {:>5}".format(*head))
    total = [0] * 5
    for (label, k), row in rows.items():
        print("{:6} {:>2} {:>5} {:>8} {:>10} {:>10} {:>3} {:>5}".format(
            label, k, *row[:4], 3 * k, row[4]))
        total = [t + r for t, r in zip(total, row)]
    print(f"total: {total[0]} instances, {total[1]} decided, {total[2]} extracted, "
          f"{total[1] - total[2]} decided but not extracted, "
          f"{total[4]} measures with more than 3k atoms")


def main():
    print_table(census())


if __name__ == "__main__":
    main()
