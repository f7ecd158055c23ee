"""Soundness of refutations: ``decide`` returns NotMomentFunctional exactly
when it carries a witness p whose value L(p) it has confirmed below the
rounding bound n * u * sum |p_m beta_m|.  Data from a real measure is never
refuted, and every instance of ``bench/corpus.make_refuted`` is, with its
witness.  The seeding is that of ``tools/atom_census.py``:
``generate_measure(case, n, k, seed=[seed, label index, k, n])``."""

import re

import pytest

from conftest import bench_corpus, rounding_bound
from tmp3 import make_case
from tmp3.measure import NoWitness, generate_measure, witness
from tmp3.moment import MomentSequence, decide

CASES = bench_corpus().CASES
LABELS = [label for label, _, _ in CASES]
KS = (2, 3, 4)
SEEDS = (1, 2)


def _genuine(label, k, n, seed):
    _, cid, params = CASES[LABELS.index(label)]
    case = make_case(cid, params)
    mu = generate_measure(case, n, k, seed=[seed, LABELS.index(label), k, n])
    return MomentSequence(case, k, mu.moments(k))


def _assert_invariant(dec):
    assert (dec.verdict == "NotMomentFunctional") == (dec.witness is not None), dec.note


@pytest.mark.parametrize("label", LABELS)
def test_genuine_data_is_never_refuted(label):
    for k in KS:
        for n in (2 * k, 3 * k + 1):
            for seed in SEEDS:
                dec = decide(_genuine(label, k, n, seed))
                _assert_invariant(dec)
                assert dec.verdict != "NotMomentFunctional", (k, n, seed, dec.details)


@pytest.mark.parametrize("label", LABELS)
def test_refuted_data_is_refuted_with_a_confirmed_witness(label):
    _, cid, params = CASES[LABELS.index(label)]
    case = make_case(cid, params)
    for k in KS:
        for seed in SEEDS:
            rec = bench_corpus().make_refuted(seed, label, cid, params, k)
            L = MomentSequence(case, k, {(i, j): v for i, j, v in rec["moments"]})
            dec = decide(L)
            _assert_invariant(dec)
            assert dec.verdict == "NotMomentFunctional", (k, seed, dec.note)
            p = witness(L, decision=dec)
            assert L.value(p) < -rounding_bound(p, L), (k, seed)


def test_failed_extension_positivity_is_inconclusive():
    """P1 data of 2 atoms whose unique extension to level 3 fails the psd test
    by -3.5e-10: the extension has no witness to show, so it does not refute."""
    dec = decide(_genuine("P1", 2, 2, 1))
    _assert_invariant(dec)
    assert dec.verdict == "Inconclusive"
    check = next(c for c in dec.details if c.name == "extension_moment_psd")
    assert not check.passed and check.margin == pytest.approx(-3.5e-10, rel=0.05)
    assert "the unique extension fails positivity" in dec.note
    assert f"extension_moment_psd margin {check.margin:.3g}" in dec.note
    with pytest.raises(NoWitness):
        witness(_genuine("P1", 2, 2, 1), decision=dec)


def test_unconfirmed_witness_is_inconclusive():
    """P24 data of 5 atoms at k = 5: the chi2 factor form fails its psd test,
    but the witness value -1.75e-10 does not clear the rounding bound 5.95e-9
    of its terms, so the failed check is reported and nothing is refuted."""
    L = _genuine("P24", 5, 5, 2)
    dec = decide(L)
    _assert_invariant(dec)
    assert dec.verdict == "Inconclusive"
    check = next(c for c in dec.details if c.name == "localizing_chi2_pd")
    assert not check.passed
    assert f"localizing_chi2_pd margin {check.margin:.3g}" in dec.note
    val, bound = map(float, re.search(
        r"witness value (\S+) is not below the rounding bound -(\S+) ", dec.note).groups())
    assert val == pytest.approx(-1.75e-10, rel=0.05) and bound == pytest.approx(5.95e-9, rel=0.05)
