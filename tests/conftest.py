import functools
import importlib.util
import pathlib

import pytest

from tmp3 import make_case

#: representative parameters for every canonical case
CASE_PARAMS = {
    "P1": dict(a=1.0, b=2.0),
    "P2": dict(c=1.0),
    "P3": {},
    "P4": {},
    "P5": {},
    "P6": dict(a=1.0, d=-1.0, e=2.0),
    "P7": dict(a=1.0, d=-1.0, e=2.0),
    "P8": dict(c=0.5, d=-1.0, e=2.0),
    "P9": dict(c=0.5, d=-1.0, e=2.0),
    "P10": dict(a=1.0, c=0.5, d=-1.0, e=2.0),
    "P11": dict(a=1.0, c=0.5, d=-1.0, e=2.0),
    "P12": dict(c2=0.5, c1=-1.0, c0=2.0),
    "P13": {},
    "P14": dict(a=-2.0),
    "P15": dict(a=-3.0),
    "P16": dict(a=1.0),
    "P17": {},
    "P18": {},
    "P19": {},
    "P20": {},
    "P21": {},
    "P22": dict(a=1.0),
    "P23": dict(a=1.0),
    "P24": dict(a=-1.0),
    "P25": dict(a=1.0),
    "P26": dict(a=1.0, b=2.0),
    "P27": {},
    "P28": {},
    "P29": {},
}

#: extra parameter sets exercising the sign branches of the P6 theory
P6_VARIANTS = [
    dict(a=1.0, d=-1.0, e=2.0),
    dict(a=1.0, d=0.0, e=2.0),
    dict(a=0.5, d=1.0, e=3.0),
]

CONSTRUCTIVE = [
    ("P3", {}),
    ("P4", {}),
    ("P5", {}),
    ("P6", P6_VARIANTS[0]),
    ("P6", P6_VARIANTS[1]),
    ("P6", P6_VARIANTS[2]),
    ("P12", CASE_PARAMS["P12"]),
    ("P13", {}),
]


@functools.lru_cache(maxsize=1)
def bench_corpus():
    """bench/corpus.py, which is imported, not edited."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def every_case():
    return [make_case(cid, params) for cid, params in CASE_PARAMS.items()]


@pytest.fixture(scope="session")
def all_cases():
    return every_case()


def rel_err(a, b):
    return abs(a - b) / (1.0 + abs(b))
