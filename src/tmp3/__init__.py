"""Truncated moment problems on plane cubic curves.

Decide whether moment data on one of the 29 canonical cubics comes from
a measure on the curve, extract atomic representing measures in the
constructively solved cases, and verify the attached positivity
certificates.
"""

from .bases import Basis, BasisElement, KTooSmall, basis_Bk, basis_Rk1, basis_Vk
from .certify import Certificate, sos_from_gram, verify_certificate
from .curves import (
    CASE_IDS,
    AffineMap,
    CurveCase,
    InvalidParams,
    Multiplier,
    NotApplicable,
    Parametrization,
    Unsupported,
    chi_flags,
    make_case,
    multiplier,
    normalize,
    parametrization,
    sample_points,
)
from .linalg import (
    Completion,
    Interval,
    SymmetricForm,
    Tolerances,
    completion_interval,
    kernel_basis,
    numeric_rank,
)
from .measure import (
    Atom,
    AtomicMeasure,
    ExtractionFailed,
    ExtractOptions,
    NoWitness,
    extract,
    generate,
    generate_measure,
    verify,
    witness,
)
from .moment import (
    DecideOptions,
    Decision,
    IdealViolation,
    MomentSequence,
    check_ideal_vanishing,
    decide,
    lift_matrix,
    localizing_matrices_v2,
    localizing_matrix,
    moment_matrix,
)
from .poly import (
    BivarPoly,
    DegenerateInput,
    PoleError,
    RationalElem,
    UnivarPoly,
    UnsupportedCase,
    cubic_real_roots,
    eval_pullback,
    product_on_curve,
    reduce_on_curve,
)

__version__ = "0.1.0"
