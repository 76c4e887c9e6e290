"""Exact Laurent-polynomial syzygy calculus on weight lattices and the
degree-3 invariant groups Q, Dec, Sdec of semisimple group quotients."""

from .laurent import (
    EXPONENT_LIMIT,
    DivisionPreconditionError,
    ExponentRangeError,
    Grading,
    LaurentPoly,
    RankMismatchError,
    RingMismatchError,
    ZeroPolynomialError,
    augmentation,
    bounded_divide,
    degrees,
    dot,
    from_text,
    graded_components,
    homogeneous_component,
    is_divisor,
    lift_coefficients,
    reduce_coefficients,
    to_text,
)
from .rootdata import (
    GroupSpec,
    LatticeModel,
    SimpleFactor,
    compile_spec,
    fundamental_orbit_sums,
    orbit_poly,
    orbit_size,
    weyl_orbit,
)
from .syzygy import (
    FlatnessError,
    NotASyzygyError,
    SyzygyCertificate,
    TransformMatrix,
    check_flatness,
    lift_syzygy,
    newton_transform,
    normalize_coefficients,
    trivialize_generalized,
    trivialize_syzygy,
)
from .generators import (
    GcdChain,
    GeneratorSet,
    build_generators,
    expand_combination,
    gcd_chain,
    reduce_to_generators,
)
from .invariants import (
    FactorGroup,
    InvariantLattice,
    QuotientRing,
    TruncatedForm,
    c2,
    compute_Dec,
    compute_Q,
    compute_Sdec,
    factor_group,
    invariants_of,
    pgo8_parity_check,
)
from .spec import parse_spec, spec_to_text
# Loaded with the package, where weylbench's tracer looks for it.  It is a
# package, so `python -m weylinv.cli` runs its `__main__` without runpy's
# double-import warning.
from . import cli  # noqa: F401

__all__ = [name for name in dir() if not name.startswith("_")]
