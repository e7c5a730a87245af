"""Exact noncommutative rewriting over Laurent coefficient rings,
specialized to rank-one double affine Hecke algebras.

The package verifies algebraic identities mechanically: every claimed
equality reduces to a zero residual through a truncated-completion
rewrite system, and every reduction emits a replayable certificate.
"""

from .algebras import (
    PRESET_NAMES,
    AlgebraPresentation,
    SemilinearMap,
    aw_form_extract,
    aw_rhs,
    braid_b_map,
    braid_c_map,
    build_xyz,
    compose_maps,
    conjugation_map,
    four_cycle,
    from_presentation,
    identity_map,
    map_power,
    preset,
    presentation_spec,
    semilinear_apply,
    specialize_presentation,
    verify_map,
)
from .braid import (
    BraidWord,
    b3_act,
    b3_normal_form,
    b3_to_map,
)
from .certificates import (
    certificate_from_json,
    certificate_to_json,
    read_certificate,
    replay,
    write_json,
)
from .coeffring import (
    RATIONALS,
    BaseRing,
    LaurentPoly,
    ParamRing,
    divide_exact,
    monomial_inverse,
    specialize,
)
from .errors import (
    AlphabetMismatchError,
    CertificateError,
    DahaError,
    ExactDivisionError,
    ExponentRangeError,
    IncompatibleRingError,
    InsufficientCompletionError,
    NotAUnitError,
    OrientationError,
    ParseError,
    PresentationError,
    UnitViolationError,
    UnsupportedPresetError,
    ZeroPolynomialError,
)
from .exprs import load_presentation, parse_expr
from .ncpoly import Alphabet, NCPoly, TermOrder, fnv1a64
from .rewrite import (
    ReductionStep,
    RewriteSystem,
    make_rule,
)
from .suites import SUITE_NAMES, Workspace, run_suite

__version__ = "0.1.0"
