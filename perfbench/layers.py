"""Which orbitcount functions the traced run wraps, and how the per-layer
metrics are derived from the trace.

Every function is patched under each name its callers look up at call time:
``oracle`` and ``moves`` import ``det``/``hnf`` into their own namespace, so
wrapping ``polymat.hnf`` alone would miss the scans.
"""

from __future__ import annotations

from orbitcount import cli, counting, integer_orbits, linalg, moves, oracle, polymat
from orbitcount.fields import GF, field_of_order
from orbitcount.poly import Poly

from tracer import Tracer

FORMULAS = ("orbit_count_formula", "total_count_formula", "c_nt", "p_count_formula")
RECURSIONS = ("p_count_recursive", "q_count_recursive", "r_count_recursive")
RECURSION_CACHES = ("_p_recursive", "_q_recursive", "_r_recursive")


def install(tracer: Tracer) -> None:
    t = tracer
    t.span("polymat.hnf", (polymat, oracle, moves, cli), "hnf")
    t.span("polymat.det", (polymat, oracle, moves), "det")
    t.span("linalg.solve_affine", (linalg, oracle), "solve_affine", post=_inconsistent(t))
    t.span("linalg.rank", (linalg, oracle), "rank")
    t.span("linalg.iter_affine_space", (linalg, oracle), "iter_affine_space", generator=True)
    t.span("oracle.iter_matrices", (oracle,), "iter_matrices", generator=True)
    t.span("oracle.orbit_census", (oracle,), "orbit_census", post=_singular(t))
    for name in ("census_by_det_degree", "enumerate_hnf_reps", "count_orbit_members",
                 "count_P_bruteforce", "count_QR_bruteforce"):
        t.span(f"oracle.{name}", (oracle,), name)
    t.span("oracle.p_members", (oracle,), "p_members", post=_p_scan(t))
    for name in FORMULAS:
        t.span("counting.formula", (counting,), name)
    for name in RECURSIONS:
        t.span("counting.recursion", (counting,), name)
    t.span("moves.verify_count_preservation", (moves,), "verify_count_preservation")
    t.span("moves.truncation_move", (moves,), "truncation_move")
    t.span("integer_orbits.enumerate_det_norm", (integer_orbits,), "enumerate_det_norm",
           generator=True)
    for name in ("snf_int", "hnf_int", "count_det_norm"):
        t.span(f"integer_orbits.{name}", (integer_orbits,), name)
    t.span("cli.main", (cli,), "main")
    t.count("poly.Poly.mul", Poly, "__mul__", timed=True)
    for attr, name in (("__divmod__", "divmod"), ("__add__", "add"), ("__sub__", "sub"),
                       ("__init__", "init")):
        t.count(f"poly.Poly.{name}", Poly, attr)
    for attr, name in (("__eq__", "eq"), ("add", "add"), ("sub", "sub"), ("mul", "mul"),
                       ("inv", "inv")):
        t.count(f"fields.GF.{name}", GF, attr)


def _inconsistent(t):
    def post(args, out):
        if out is None:
            t.bump("linalg.solve_affine.inconsistent")
    return post


def _singular(t):
    def post(args, out):
        buckets, singular = out
        t.bump("oracle.scan.singular", singular)
        t.bump("oracle.scan.scanned", singular + sum(buckets.values()))
    return post


def _p_scan(t):
    """On each cache miss of the P-family member table, add the candidate
    space the scan walks and the int64 bytes the vectorized path allocates for
    it (coefficient tensor plus index vector), computed from the shapes.
    Install after the memo tables are cleared."""
    seen = {"misses": 0}

    def post(args, out):
        misses = oracle._p_members_cached.cache_info().misses
        if misses == seen["misses"]:
            return
        seen["misses"] = misses
        bounds, q = tuple(args[0]), args[1]
        fld = q if isinstance(q, GF) else field_of_order(q)
        n = len(bounds)
        candidates = fld.q ** (n * sum(bounds))
        t.bump("oracle.p_scan.candidates", candidates)
        if fld.e == 1 and n <= 3:
            t.bump("oracle.p_scan.bytes_computed", candidates * (n * n * (max(bounds) + 1) + 1) * 8)
    return post


def _frac(num, den):
    return num / den if den else 0.0


def _cache_hit_frac(*caches):
    hits = sum(c.cache_info().hits for c in caches)
    misses = sum(c.cache_info().misses for c in caches)
    return _frac(hits, hits + misses)


def metrics(t: Tracer) -> dict:
    """The per-layer metrics of one traced battery, by BENCHMARK.json name.
    Call before the memo tables are cleared for the next battery."""
    s = t.summary()
    x = t.extra.get
    out = {}
    for name in ("polymat.hnf", "polymat.det", "linalg.solve_affine"):
        out[f"{name}.calls"] = s[name]["calls"]
        out[f"{name}.busy_s"] = s[name]["busy_s"]
        out[f"{name}.us_per_call"] = _frac(s[name]["busy_s"] * 1e6, s[name]["calls"])
    out["oracle.iter_matrices.items"] = s["oracle.iter_matrices"]["items"]
    out["oracle.iter_matrices.busy_s"] = s["oracle.iter_matrices"]["busy_s"]
    out["oracle.scan.singular_frac"] = _frac(x("oracle.scan.singular", 0),
                                             x("oracle.scan.scanned", 0))
    out["oracle.orbit_census.busy_s"] = s["oracle.orbit_census"]["busy_s"]
    out["oracle.orbit_census.self_s"] = s["oracle.orbit_census"]["self_s"]
    out["oracle.census_by_det_degree.busy_s"] = s["oracle.census_by_det_degree"]["busy_s"]
    out["oracle.enumerate_hnf_reps.busy_s"] = s["oracle.enumerate_hnf_reps"]["busy_s"]
    for op in ("mul", "divmod", "add", "sub", "init"):
        out[f"poly.Poly.{op}.calls"] = s[f"poly.Poly.{op}"]["calls"]
    out["poly.Poly.mul.busy_s"] = s["poly.Poly.mul"]["busy_s"]
    for op in ("eq", "add", "sub", "mul", "inv"):
        out[f"fields.GF.{op}.calls"] = s[f"fields.GF.{op}"]["calls"]
    out["linalg.solve_affine.inconsistent_frac"] = _frac(
        x("linalg.solve_affine.inconsistent", 0), s["linalg.solve_affine"]["calls"])
    out["linalg.rank.calls"] = s["linalg.rank"]["calls"]
    out["linalg.rank.busy_s"] = s["linalg.rank"]["busy_s"]
    out["linalg.iter_affine_space.items"] = s["linalg.iter_affine_space"]["items"]
    com = s["oracle.count_orbit_members"]
    out["oracle.count_orbit_members.calls"] = com["calls"]
    out["oracle.count_orbit_members.busy_s"] = com["busy_s"]
    out["oracle.count_orbit_members.self_s"] = com["self_s"]
    out["moves.verify_count_preservation.calls"] = s["moves.verify_count_preservation"]["calls"]
    out["moves.truncation_move.busy_s"] = s["moves.truncation_move"]["busy_s"]
    out["oracle.p_members.calls"] = s["oracle.p_members"]["calls"]
    out["oracle.p_members.busy_s"] = s["oracle.p_members"]["busy_s"]
    out["oracle.p_members.cache_hit_frac"] = _cache_hit_frac(oracle._p_members_cached)
    out["oracle.count_P_bruteforce.busy_s"] = s["oracle.count_P_bruteforce"]["busy_s"]
    out["oracle.count_QR_bruteforce.busy_s"] = s["oracle.count_QR_bruteforce"]["busy_s"]
    out["oracle.p_scan.candidates"] = x("oracle.p_scan.candidates", 0)
    out["oracle.p_scan.bytes_computed"] = x("oracle.p_scan.bytes_computed", 0)
    out["counting.formula.busy_s"] = s["counting.formula"]["busy_s"]
    out["counting.recursion.busy_s"] = s["counting.recursion"]["busy_s"]
    out["counting.recursion.cache_hit_frac"] = _cache_hit_frac(
        *(getattr(counting, c) for c in RECURSION_CACHES))
    edn = s["integer_orbits.enumerate_det_norm"]
    out["integer_orbits.enumerate_det_norm.items"] = edn["items"]
    out["integer_orbits.enumerate_det_norm.busy_s"] = edn["busy_s"]
    for name in ("snf_int", "hnf_int"):
        out[f"integer_orbits.{name}.calls"] = s[f"integer_orbits.{name}"]["calls"]
        out[f"integer_orbits.{name}.busy_s"] = s[f"integer_orbits.{name}"]["busy_s"]
    out["integer_orbits.count_det_norm.busy_s"] = s["integer_orbits.count_det_norm"]["busy_s"]
    out["cli.main.calls"] = s["cli.main"]["calls"]
    out["cli.main.busy_s"] = s["cli.main"]["busy_s"]
    return out
