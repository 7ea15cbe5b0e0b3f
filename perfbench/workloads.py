"""The four benchmark workloads.

Each workload is built once per process (its set-up: fields, fixtures and
seeded inputs) and is then a fixed list of ops.  An op is one public call
into orbitcount followed by the checks of its output against the closed
forms; ops run one at a time (closed loop), in list order, and a battery is
one pass over the list.  The batteries are scaled-down versions of the
roadmap's full-size routes: each op stays under about 1.5 s so that a run can
repeat every op several times (see ``run.py`` for why that matters).

Why each workload exists, and which layer metrics a change should or should
not move on it, is recorded in ``EXPECTED``; the one-line reasons are the
``why`` fields of BENCHMARK.json.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from itertools import product

from orbitcount import cli, counting, integer_orbits, moves, oracle
from orbitcount.errors import PreconditionViolation
from orbitcount.fields import field_of_order
from orbitcount.poly import Poly
from orbitcount.polymat import PolyMatrix

EXPECTED = {
    "census_prime": {
        "moves": ["polymat.hnf.*", "polymat.det.*", "oracle.iter_matrices.*",
                  "oracle.orbit_census.*", "oracle.census_by_det_degree.busy_s",
                  "poly.Poly.*", "fields.GF.eq.calls"],
        "flat": ["linalg.*", "oracle.count_orbit_members.*", "oracle.p_members.*",
                 "integer_orbits.*"],
    },
    "census_ext": {
        "moves": ["polymat.hnf.*", "polymat.det.*", "oracle.iter_matrices.*",
                  "oracle.orbit_census.*", "poly.Poly.*", "fields.GF.eq.calls",
                  "fields.GF.add.calls", "fields.GF.mul.calls"],
        "flat": ["linalg.*", "integer_orbits.*",
                 "wall_s under a prime-only fast path"],
    },
    "orbit_side": {
        "moves": ["linalg.solve_affine.*", "linalg.rank.*", "linalg.iter_affine_space.items",
                  "oracle.count_orbit_members.*", "moves.*", "oracle.p_members.*",
                  "oracle.count_P_bruteforce.busy_s", "oracle.count_QR_bruteforce.busy_s",
                  "oracle.p_scan.*", "fields.GF.sub.calls", "fields.GF.mul.calls",
                  "poly.Poly.*", "peak_rss_mb"],
        "flat": ["oracle.orbit_census.*", "oracle.iter_matrices.*", "integer_orbits.*",
                 "polymat.hnf.* (one hnf per count)"],
    },
    "zcase_ball": {
        "moves": ["integer_orbits.*", "cli.main.busy_s"],
        "flat": ["every F_q layer: fields, poly, polymat, linalg, oracle, moves"],
    },
}


class Checks:
    """Counts checks; a failed check prints its parameters.  The runner
    counts an op that raises (a budget refusal included) as one more failed
    check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, **params):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {json.dumps(params, default=str, sort_keys=True)}", flush=True)


def clear_memo_tables():
    """Users meet the memo tables cold in every CLI process."""
    oracle._p_members_cached.cache_clear()
    counting.clear_caches()


class Census:
    """The ambient route: ``verify --grid`` (one ``orbit_census`` per k) and
    ``brute`` (``census_by_det_degree``), every bucket checked.  An item is
    one scanned matrix."""

    def __init__(self, verify_grid, brute_points):
        fields = {q: field_of_order(q) for _, q, _ in verify_grid + brute_points}
        self.ops = [
            (f"verify n={n} q={q} k={k}", self._verify_op(n, fields[q], k))
            for n, q, kmax in verify_grid for k in range(kmax + 1)
        ] + [
            (f"brute n={n} q={q} k={k}", self._brute_op(n, fields[q], k))
            for n, q, k in brute_points
        ]

    @staticmethod
    def _verify_op(n, fld, k):
        q = fld.q
        p = {"part": "verify", "n": n, "q": q, "k": k}

        def op(checks):
            buckets, singular = oracle.orbit_census(fld, n, k)
            scanned = q ** (n * n * (k + 1))
            checks.check(singular + sum(buckets.values()) == scanned, kind="scanned", **p)
            by_t = {}
            for key, cnt in buckets.items():
                t = sum(len(key[i][i]) - 1 for i in range(n))
                by_t.setdefault(t, {})[key] = cnt
                if t <= k:
                    checks.check(cnt == counting.orbit_count_formula(n, q, t, k),
                                 kind="orbit", t=t, key=key, **p)
            for t in range(k + 1):
                got = by_t.get(t, {})
                checks.check(sum(got.values()) == counting.total_count_formula(n, q, t, k),
                             kind="total", t=t, **p)
                # for t <= k every canonical form lies in the scan itself
                want = {m.key() for m in oracle.enumerate_hnf_reps(n, fld, t)}
                checks.check(set(got) == want, kind="rep-inventory", t=t, **p)
            return scanned

        return op

    @staticmethod
    def _brute_op(n, fld, k):
        q = fld.q
        p = {"part": "brute", "n": n, "q": q, "k": k}

        def op(checks):
            cen = oracle.census_by_det_degree(n, fld, k)
            scanned = q ** (n * n * (k + 1))
            checks.check(cen.total() == scanned, kind="scanned", **p)
            for t in range(k + 1):
                checks.check(cen.buckets.get(t, 0) == counting.total_count_formula(n, q, t, k),
                             kind="total", t=t, **p)
            return scanned

        return op


def random_unimodular(field, n, rng, deg=2):
    """Product of random shears: always unimodular (the acceptance suite's
    construction)."""
    m = PolyMatrix.identity(field, n)
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        f = Poly(field, [rng.randrange(field.q) for _ in range(deg + 1)])
        rows = [list(r) for r in m.entries]
        rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
        m = PolyMatrix(rows)
    return m


def seeded_rep(field, diag_degrees, rng):
    """U @ H: H canonical with diagonal x^d_j and seed-drawn entries above the
    diagonal (degree < d_j), U a seed-drawn unimodular multiplier.  The
    counter's work depends on the degree profile, not on the draws."""
    n = len(diag_degrees)
    rows = [[Poly(field, ()) for _ in range(n)] for _ in range(n)]
    for j, d in enumerate(diag_degrees):
        rows[j][j] = Poly(field, (0,) * d + (1,))
        for i in range(j):
            rows[i][j] = Poly(field, [rng.randrange(field.q) for _ in range(d)])
    return random_unimodular(field, n, rng) @ PolyMatrix(rows)


def bound_grid(max_sum):
    for n in (1, 2, 3):
        for bounds in product(range(max_sum + 1), repeat=n):
            if sum(bounds) <= max_sum:
                yield bounds


class OrbitSide:
    """The orbit-side counters: the F_3 2x2 move battery (``verify-moves``,
    one op per fixture), ``count_orbit_members`` on seeded 3x3
    representatives, and lemma 2 with its Q/R refinements three ways
    (formula = recursion = brute, one op per bound vector).  An item is one
    completed count: one (matrix, k) or one bound vector."""

    def __init__(self, seed, move_q, n_fixtures, k_extra, slots, lemma_grids):
        fld = field_of_order(move_q)
        two, _ = moves.standard_move_fixtures(fld)
        rng = random.Random(seed)
        # slot: (q, diagonal degree profile, k); n = 3 and t = sum of degrees
        reps = [(seeded_rep(field_of_order(q), diag, rng), q, sum(diag), k)
                for q, diag, k in slots]
        self.reps = [rep for rep, *_ in reps]
        self.ops = (
            [(f"moves {m!r} l0={l0}", self._moves_op(m, l0, move_q, k_extra))
             for m, l0 in two[:n_fixtures]]
            + [(f"members q={q} t={t} k={k} {rep!r}", self._members_op(rep, q, t, k))
               for rep, q, t, k in reps]
            + [(f"lemma2 q={q} bounds={b}", self._lemma2_op(q, b))
               for q, max_sum in lemma_grids for b in bound_grid(max_sum)]
        )

    @staticmethod
    def _moves_op(m, l0, q, k_extra):
        p = {"part": "moves", "l0": l0, "fixture": repr(m)}

        def op(checks):
            items = 0
            for rec in moves.run_move_battery([(m, l0)], k_extra):
                t_before = sum(int(rec.before.entries[i][i].degree) for i in range(2))
                t_after = sum(int(rec.after.entries[i][i].degree) for i in range(2))
                checks.check(len(rec.counts_checked) == k_extra + 1, kind="k-range", **p)
                for k, cb, ca in rec.counts_checked:
                    items += 2
                    checks.check(cb == ca == counting.orbit_count_formula(2, q, t_before, k)
                                 and t_after == t_before, move=rec.move, k=k, **p)
            return items

        return op

    @staticmethod
    def _members_op(rep, q, t, k):
        p = {"part": "members", "q": q, "t": t, "k": k, "rep": repr(rep)}

        def op(checks):
            got = oracle.count_orbit_members(rep, k)
            checks.check(got == counting.orbit_count_formula(rep.rows, q, t, k), **p)
            return 1

        return op

    @staticmethod
    def _lemma2_op(q, bounds):
        n = len(bounds)
        p = {"part": "lemma2", "q": q, "bounds": bounds}

        def op(checks):
            brute = oracle.count_P_bruteforce(bounds, q)
            checks.check(brute == counting.p_count_formula(bounds, q)
                         == counting.p_count_recursive(bounds, q), kind="P", **p)
            for kind, first, recursive in (("Q", 1, counting.q_count_recursive),
                                           ("R", 2, counting.r_count_recursive)):
                for i in range(first, n + 1):
                    try:
                        want = recursive(i, bounds, q)
                    except PreconditionViolation:
                        continue  # outside the identity's hypotheses, as in the test suite
                    checks.check(oracle.count_QR_bruteforce(kind, i, bounds, q) == want,
                                 kind=kind, i=i, **p)
            return 1

        return op


class ZcaseBall:
    """``zcase ratio --det 4`` through the CLI (ladder T/4, T/2, T), every
    lattice point of that ball re-checked, plus the det-1 ball N(T1).  An
    item is one enumerated lattice point."""

    DET = 4

    def __init__(self, T, T1):
        self.T, self.T1 = T, T1
        reps = integer_orbits.hnf_classes_for_det(self.DET)
        self.left = {repr(list(map(list, integer_orbits.hnf_int(r)))) for r in reps}
        self.two_sided = {repr(list(map(list, integer_orbits.snf_int(r)))) for r in reps}
        self.ball_size = None  # N(T) as the CLI reported it, for the point check
        self.ops = [
            (f"zcase ratio det={self.DET} T={T}", self._ratio_op),
            (f"enumerate_det_norm det={self.DET} T={T}", self._points_op),
            (f"count_det_norm det=1 T={T1}", self._density_op),
        ]

    def _ratio_op(self, checks):
        T = self.T
        p = {"part": "ratio", "det": self.DET, "T": T}
        self.ball_size = None
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["zcase", "ratio", "--det", str(self.DET), "--T", str(T)])
        checks.check(code == 0, kind="exit-code", code=code, **p)
        if code != 0:
            return 0
        payload = json.loads(buf.getvalue())
        ladder = sorted({max(T // 4, 1), T // 2, T})
        checks.check(payload["ladder"] == ladder, kind="ladder", **p)
        prev = {}
        for L in ladder:
            left = payload["left_classes"][str(L)]
            two = payload["two_sided_classes"][str(L)]
            # all 7 left and 2 two-sided classes appear at T; smaller balls may miss some
            full = L == T
            checks.check(set(left) == self.left if full else set(left) <= self.left,
                         kind="left", L=L, **p)
            checks.check(set(two) == self.two_sided if full else set(two) <= self.two_sided,
                         kind="two-sided", L=L, **p)
            total = sum(int(v) for v in two.values())
            checks.check(sum(int(v) for v in left.values()) == total, kind="sum", L=L, **p)
            checks.check(all(int(v) >= int(prev.get(c, 0)) for c, v in two.items()),
                         kind="nested", L=L, **p)
            prev = two
        self.ball_size = total
        return total

    def _points_op(self, checks):
        """Every point of the ball: det 4, norm <= T^2, no repeats, and as
        many as the CLI's census counted."""
        T = self.T
        seen = set()
        bad = 0
        for (a, b), (c, d) in integer_orbits.enumerate_det_norm(2, self.DET, T):
            bad += a * d - b * c != self.DET or a * a + b * b + c * c + d * d > T * T
            seen.add((a, b, c, d))
        checks.check(bad == 0 and len(seen) == self.ball_size, kind="points", bad=bad,
                     distinct=len(seen), census=self.ball_size, det=self.DET, T=T)
        return len(seen)

    def _density_op(self, checks):
        n1 = integer_orbits.count_det_norm(1, self.T1)
        # the acceptance suite's tolerance: density within 15% of 6
        checks.check(abs(n1 / self.T1**2 - 6.0) <= 0.9, kind="density", n=n1, T=self.T1)
        return n1


# (n, q, max k) for verify, (n, q, k) for brute
CENSUS_PRIME = (((2, 2, 2), (2, 3, 1), (3, 2, 0)), ((2, 2, 3), (2, 3, 1), (3, 2, 0)))
# F_4 at k = 1 with hnf is one 10 s call, too long to repeat within a run:
# the hnf part runs on constant matrices over F_4, F_8 and F_9 instead
CENSUS_EXT = (((2, 4, 0), (2, 8, 0), (2, 9, 0)), ((2, 4, 1), (2, 8, 0), (2, 9, 0)))
# (q, diagonal degrees, k): count_orbit_members slots, all n = 3
SLOTS = (
    (2, (1, 0, 0), 1), (2, (0, 0, 1), 1), (2, (0, 0, 1), 2), (2, (0, 1, 1), 2),
    (2, (1, 1, 0), 2), (3, (0, 0, 1), 1), (3, (1, 0, 0), 1), (2, (1, 1, 1), 3),
)
# the move fixtures with d_1 = 1 (t <= 2); the six t = 3 fixtures add 3.7 s
MOVE_FIXTURES = 15


def build(name, seed, tiny=False):
    """Set up one workload.  Only ``orbit_side`` draws from the seed; the
    exhaustive workloads ignore it."""
    if name == "census_prime":
        return Census(((2, 2, 1),), ((2, 2, 1),)) if tiny else Census(*CENSUS_PRIME)
    if name == "census_ext":
        return Census(((2, 4, 0),), ((2, 4, 0),)) if tiny else Census(*CENSUS_EXT)
    if name == "orbit_side":
        if tiny:
            return OrbitSide(seed, 3, 2, 0, SLOTS[:1], ((2, 1),))
        return OrbitSide(seed, 3, MOVE_FIXTURES, 2, SLOTS, ((2, 4), (3, 3)))
    if name == "zcase_ball":
        return ZcaseBall(8, 20) if tiny else ZcaseBall(60, 120)
    raise ValueError(f"unknown workload {name!r}")


NAMES = tuple(EXPECTED)
