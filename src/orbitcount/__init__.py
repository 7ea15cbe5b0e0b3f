"""Exact orbit counting for degree-bounded matrices over polynomial rings,
with an integer-matrix companion.

The core objects are finite fields (:class:`GF`), polynomials (:class:`Poly`),
and polynomial matrices (:class:`PolyMatrix`) with a Hermite canonical form.
Closed-form counts live in :mod:`orbitcount.counting`, exhaustive oracles in
:mod:`orbitcount.oracle`, proof-step transformations in
:mod:`orbitcount.moves`, and the 2x2 integer case in
:mod:`orbitcount.integer_orbits`.

Polynomial arithmetic runs through three coefficient-list kernels in
:mod:`orbitcount.poly`: ``_trim``, ``_submul`` (a - c·b, for ``Poly`` and the
Hermite row steps) and ``_divmod_coeffs`` (for ``Poly`` and the Hermite
reduction); their callers are named there.
"""

from .errors import OrbitCountError
from .fields import GF, field_of_order, field_spec
from .poly import NEG_INF, Poly, poly_gcd, poly_xgcd, truncate_low
from .polymat import HermiteForm, PolyMatrix, det, hnf, same_orbit
from .counting import (
    CountReport,
    c_nt,
    clear_caches,
    gl_count,
    orbit_count_formula,
    p_count_formula,
    p_count_recursive,
    q_count_recursive,
    r_count_recursive,
    total_count_formula,
)
from .oracle import (
    EnumerationBudget,
    census_by_det_degree,
    count_orbit_bruteforce,
    count_orbit_members,
    count_P_bruteforce,
    count_QR_bruteforce,
    enumerate_hnf_reps,
    orbit_census,
)
from .moves import (
    MoveRecord,
    check_S_conditions,
    conjugate_const,
    diag_truncate_move,
    reduce_above,
    triangularize,
    truncation_move,
    verify_count_preservation,
)
from .integer_orbits import (
    RatioReport,
    drs_constant,
    enumerate_det_norm,
    hnf_classes_for_det,
    hnf_int,
    orbit_ratio_experiment,
    snf_int,
)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "field_of_order",
    "field_spec",
    "NEG_INF",
    "Poly",
    "poly_gcd",
    "poly_xgcd",
    "truncate_low",
    "HermiteForm",
    "PolyMatrix",
    "det",
    "hnf",
    "same_orbit",
    "CountReport",
    "c_nt",
    "clear_caches",
    "gl_count",
    "orbit_count_formula",
    "p_count_formula",
    "p_count_recursive",
    "q_count_recursive",
    "r_count_recursive",
    "total_count_formula",
    "EnumerationBudget",
    "census_by_det_degree",
    "count_orbit_bruteforce",
    "count_orbit_members",
    "count_P_bruteforce",
    "count_QR_bruteforce",
    "enumerate_hnf_reps",
    "orbit_census",
    "MoveRecord",
    "check_S_conditions",
    "conjugate_const",
    "diag_truncate_move",
    "reduce_above",
    "triangularize",
    "truncation_move",
    "verify_count_preservation",
    "RatioReport",
    "drs_constant",
    "enumerate_det_norm",
    "hnf_classes_for_det",
    "hnf_int",
    "orbit_ratio_experiment",
    "snf_int",
    "OrbitCountError",
]
