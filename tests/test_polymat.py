"""Hermite form and determinant behavior on small matrices."""

import random
from itertools import combinations, product

import numpy as np
import pytest

from orbitcount.errors import MixedFields, NotSquare, ShapeMismatch, SingularMatrix, ZeroColumn
from orbitcount.fields import field_of_order, tables
from orbitcount import polymat
from orbitcount.poly import Poly, poly_gcd
from orbitcount.polymat import (
    HermiteForm,
    PolyMatrix,
    column_gcd,
    det,
    det_constant,
    hnf,
    is_canonical_hnf,
    same_orbit,
    satisfies_R,
)

F2 = field_of_order(2)
F3 = field_of_order(3)


def p2(*c):
    return Poly(F2, c)


def all_matrices_f2(n, k):
    width = k + 1
    cells = [Poly(F2, c) for c in product(range(2), repeat=width)]
    for flat in product(cells, repeat=n * n):
        yield PolyMatrix([flat[i * n : (i + 1) * n] for i in range(n)])


def reference_hnf(m: PolyMatrix) -> HermiteForm:
    """The Hermite reduction on Poly objects that ``polymat._hermite``
    replaced: the same rules (first row of least degree as pivot, each swap
    negating the unit, monic pivots, above-diagonal entries reduced left to
    right), one Poly operation at a time.  Its divisions are Poly divmod,
    the long division ``poly._divmod_coeffs`` that the kernel shares and
    that test_divmod_identity checks against Poly mul and add."""
    if m.cols > m.rows:
        raise NotSquare(f"{m.rows}x{m.cols}")
    field = m.field
    n, ncols = m.rows, m.cols
    h = [list(row) for row in m.entries]
    u = [list(row) for row in PolyMatrix.identity(field, n).entries]
    unit = 1

    def row_sub(i, j, q):
        # row_i -= q * row_j
        h[i] = [a - q * b for a, b in zip(h[i], h[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    for c in range(ncols):
        # bounded as in the kernel, so a faulty division fails instead of hanging
        for _ in range(1 + max(len(h[i][c].coeffs) for i in range(c, n))):
            live = [i for i in range(c, n) if not h[i][c].is_zero()]
            if not live:
                raise SingularMatrix(f"column {c} has no pivot")
            piv = min(live, key=lambda i: h[i][c].degree)
            if piv != c:
                h[c], h[piv] = h[piv], h[c]
                u[c], u[piv] = u[piv], u[c]
                unit = field.neg(unit)
            below = [i for i in range(c + 1, n) if not h[i][c].is_zero()]
            if not below:
                break
            for i in below:
                q, _ = divmod(h[i][c], h[c][c])
                row_sub(i, c, q)
        else:
            raise RuntimeError(f"column {c}: the Euclidean reduction did not end")
        # monic pivot
        lc = h[c][c].lc
        if lc != 1:
            inv = field.inv(lc)
            h[c] = [e.scale(inv) for e in h[c]]
            u[c] = [e.scale(inv) for e in u[c]]
            unit = field.mul(unit, inv)
    # reduce above-diagonal entries, left to right
    for c in range(1, ncols):
        for i in range(c):
            if h[i][c].degree >= h[c][c].degree:
                q, _ = divmod(h[i][c], h[c][c])
                row_sub(i, c, q)
    hm = PolyMatrix(h)
    um = PolyMatrix(u)
    t = sum(hm.entries[i][i].degree for i in range(ncols))
    return HermiteForm(hm, um, t, unit)


def outcome(reduce, m):
    """reduce(m), or the type and message of the error it raises."""
    try:
        return reduce(m)
    except (NotSquare, SingularMatrix) as err:
        return type(err), str(err)


def hnf_cases(fld, rng):
    """Seeded n x c matrices, 1 <= c <= n <= 4, of entry degree <= 3: for
    each shape, dense ones, sparse ones (entries 0 or of low degree, so
    pivot degrees tie), one with a zero column and one with a column a
    multiple of another (both singular), and one wide (c = n + 1)."""

    def entry(sparse):
        if sparse and rng.randrange(3) == 0:
            return Poly.zero(fld)
        deg = rng.randrange(2 if sparse else 4)
        return Poly(fld, [rng.randrange(fld.q) for _ in range(deg + 1)])

    for n in range(1, 5):
        for c in range(1, n + 1):
            for sparse in (False,) * 4 + (True,) * 8:
                yield PolyMatrix([[entry(sparse) for _ in range(c)] for _ in range(n)])
            rows = [[entry(True) for _ in range(c)] for _ in range(n)]
            j = rng.randrange(c)
            for row in rows:
                row[j] = Poly.zero(fld)
            yield PolyMatrix(rows)
            if c > 1:
                rows = [[entry(False) for _ in range(c)] for _ in range(n)]
                i, j = rng.sample(range(c), 2)
                a = Poly(fld, [rng.randrange(1, fld.q), rng.randrange(fld.q)])
                for row in rows:
                    row[j] = row[i] * a
                yield PolyMatrix(rows)
        yield PolyMatrix([[entry(False) for _ in range(n + 1)] for _ in range(n)])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_hnf_matches_poly_reference(q):
    """hnf (the coefficient-list kernel) against reference_hnf on seeded
    matrices: h, u, det_degree and unit, or the same refusal, type and
    message; the seeds reach every refusal and every kind of step."""
    fld = field_of_order(q)
    rng = random.Random(2400 + q)
    refused = set()
    for m in hnf_cases(fld, rng):
        want = outcome(reference_hnf, m)
        assert outcome(hnf, m) == want, m
        if isinstance(want, tuple):
            refused.add(want[0])
    assert refused == {NotSquare, SingularMatrix}


def test_hnf_with_a_faulty_division_fails_instead_of_hanging(monkeypatch):
    """A long division that drops the quotient's top digit makes no progress
    on [x^2 + 1; x], whose column needs three rounds (x^2 + 1 = x·x + 1, then
    x = x·1): the bounded Euclidean loop raises RuntimeError, naming the
    column, where an unbounded one would spin forever."""
    divmod_coeffs = polymat._divmod_coeffs

    def faulty(field, a, b):
        quot, rem = divmod_coeffs(field, a, b)
        return quot[:-1], rem

    m = PolyMatrix([[p2(1, 0, 1)], [p2(0, 1)]])
    assert hnf(m).h == PolyMatrix([[p2(1)], [p2()]])
    monkeypatch.setattr(polymat, "_divmod_coeffs", faulty)
    with pytest.raises(RuntimeError, match="column 0"):
        hnf(m)


def test_hnf_permutation_example():
    m = PolyMatrix([[p2(), p2(1)], [p2(0, 1), p2()]])
    h = hnf(m).h
    assert h == PolyMatrix([[p2(0, 1), p2()], [p2(), p2(1)]])


def test_hnf_elimination_example():
    m = PolyMatrix([[p2(1, 1), p2(1)], [p2(1), p2(0, 1)]])
    h = hnf(m).h
    # [[1, x], [0, x^2+x+1]]
    assert h == PolyMatrix([[p2(1), p2(0, 1)], [p2(), p2(1, 1, 1)]])


def test_hnf_witness_identity():
    m = PolyMatrix([[p2(1, 1), p2(1)], [p2(1), p2(0, 1)]])
    form = hnf(m)
    assert form.u @ m == form.h
    assert det_constant(form.u) != 0


def test_hnf_reduces_above_the_diagonal_of_a_triangular_matrix():
    """Every upper triangular 2 x 2 matrix over F_3 with monic diagonal
    entries of degree <= 1 and a corner of degree <= 2 needs no elimination:
    hnf only reduces the corner modulo the pivot below it, one division
    whose quotient may have a constant digit."""
    cells = [Poly(F3, c) for c in product(range(3), repeat=3)]
    monic = [Poly(F3, (1,))] + [Poly(F3, (c, 1)) for c in range(3)]
    for a, b, d in product(monic, cells, monic):
        m = PolyMatrix([[a, b], [Poly.zero(F3), d]])
        form = hnf(m)
        assert form.u @ m == form.h and is_canonical_hnf(form.h)
        assert form.h == PolyMatrix([[a, b % d], [Poly.zero(F3), d]])


def test_hnf_is_idempotent_and_canonical():
    for m in [
        PolyMatrix([[p2(0, 1), p2(1)], [p2(1), p2(0, 1)]]),
        PolyMatrix([[p2(1), p2(0, 0, 1)], [p2(0, 1), p2(1, 1)]]),
    ]:
        h = hnf(m).h
        assert is_canonical_hnf(h)
        assert hnf(h).h == h


def test_hnf_left_invariance_exhaustive_f2_deg1():
    """u @ m and m share a canonical form for every unimodular u and every
    nonsingular m at n = 2, entry degree <= 1."""
    mats = list(all_matrices_f2(2, 1))
    units = [m for m in mats if det(m).is_constant() and not det(m).is_zero()]
    nonsingular = [m for m in mats if not det(m).is_zero()]
    random.seed(7)
    for m in random.sample(nonsingular, 40):
        key = hnf(m).h.key()
        for u in random.sample(units, 20):
            assert hnf(u @ m).h.key() == key


def test_hnf_rejects_singular_and_nonsquare():
    with pytest.raises(SingularMatrix):
        hnf(PolyMatrix([[p2(1), p2(1)], [p2(1), p2(1)]]))
    with pytest.raises(NotSquare):
        hnf(PolyMatrix([[p2(1), p2(1)]]))


def test_hnf_of_a_tall_matrix():
    """An n x c matrix reduces to [H1; 0], H1 the canonical c x c block,
    through a unimodular witness; a rank-deficient one has no form."""
    rng = random.Random(5)
    for fld in (F2, F3):
        for n, c in ((2, 1), (3, 1), (3, 2)):
            for _ in range(20):
                m = PolyMatrix(
                    [[Poly(fld, [rng.randrange(fld.q) for _ in range(2)]) for _ in range(c)]
                     for _ in range(n)]
                )
                try:
                    form = hnf(m)
                except SingularMatrix:
                    continue
                h = form.h
                assert form.u @ m == h and form.unit == det_constant(form.u)
                assert all(e.is_zero() for row in h.entries[c:] for e in row)
                top = PolyMatrix(h.entries[:c])
                assert is_canonical_hnf(top)
                assert form.det_degree == det(top).degree
    with pytest.raises(SingularMatrix):
        hnf(PolyMatrix([[p2(0, 1), p2(1)], [p2(0, 1), p2(1)], [p2(), p2()]]))


def test_det_degree_equals_hnf_diagonal_sum():
    random.seed(11)
    mats = [m for m in all_matrices_f2(2, 2) if not det(m).is_zero()]
    for m in random.sample(mats, 60):
        form = hnf(m)
        assert det(m).degree == form.det_degree
        assert form.det_degree == sum(
            form.h.entries[i][i].degree for i in range(2)
        )


def test_det_three_by_three():
    x = Poly.x(F3)
    one = Poly.one(F3)
    zero = Poly.zero(F3)
    m = PolyMatrix([[x, one, zero], [zero, x, one], [one, zero, x]])
    # det = x^3 + 1 over F_3 (the +1 from the even permutation (0 1 2))
    assert det(m) == Poly(F3, (1, 0, 0, 1))


def test_same_orbit():
    a = PolyMatrix([[p2(1), p2(0, 1)], [p2(), p2(1, 1, 1)]])
    u = PolyMatrix([[p2(1), p2(0, 1)], [p2(), p2(1)]])
    assert same_orbit(a, u @ a)
    b = PolyMatrix([[p2(1), p2()], [p2(), p2(1, 1, 1)]])
    assert not same_orbit(a, b)
    with pytest.raises(ShapeMismatch):
        same_orbit(a, PolyMatrix([[p2(1)]]))


def test_same_orbit_refuses_two_fields():
    # I over F_3 against I over F_2 read as two orbits
    with pytest.raises(MixedFields):
        same_orbit(PolyMatrix.identity(F3, 2), PolyMatrix.identity(F2, 2))


def test_satisfies_R():
    m = PolyMatrix([[p2(1), p2(0, 1)], [p2(), p2(1, 1, 1)]])
    assert satisfies_R(m, 2)
    assert not satisfies_R(m, 1)
    assert satisfies_R(PolyMatrix.identity(F2, 3), 0)


def test_column_gcd_is_orbit_invariant():
    random.seed(3)
    mats = [m for m in all_matrices_f2(2, 1) if not det(m).is_zero()]
    units = [m for m in mats if det(m).is_constant()]
    for m in random.sample(mats, 30):
        g0, g1 = column_gcd(m, 0), column_gcd(m, 1)
        u = random.choice(units)
        assert column_gcd(u @ m, 0) == g0
        assert column_gcd(u @ m, 1) == g1


def test_column_gcd_equals_first_hnf_pivot():
    # for the first column the gcd of entries equals the (0,0) canonical pivot
    random.seed(5)
    mats = [m for m in all_matrices_f2(2, 2) if not det(m).is_zero()]
    for m in random.sample(mats, 30):
        assert column_gcd(m, 0) == hnf(m).h.entries[0][0]


def test_column_gcd_zero_column():
    z = Poly.zero(F2)
    m = PolyMatrix([[z, p2(1)], [z, p2(0, 1)]])
    with pytest.raises(ZeroColumn):
        column_gcd(m, 0)


def test_matmul_shapes_and_identity():
    m = PolyMatrix([[p2(1, 1), p2(1)], [p2(1), p2(0, 1)]])
    assert PolyMatrix.identity(F2, 2) @ m == m
    with pytest.raises(ShapeMismatch):
        m @ PolyMatrix([[p2(1)]])


def test_json_round_trip():
    m = PolyMatrix([[p2(1, 1), p2(1)], [p2(1), p2(0, 1)]])
    assert PolyMatrix.from_json(m.to_json()) == m


def test_hnf_over_f3_monic_diagonal():
    x = Poly.x(F3)
    two = Poly.const(F3, 2)
    m = PolyMatrix([[x.scale(2), two], [two, x]])
    h = hnf(m).h
    assert is_canonical_hnf(h)
    for i in range(2):
        assert h.entries[i][i].lc == 1


def random_matrix(fld, n, deg, rng):
    return PolyMatrix(
        [[Poly(fld, [rng.randrange(fld.q) for _ in range(deg + 1)]) for _ in range(n)]
         for _ in range(n)]
    )


# -- the determinant kernel against two independent routes -------------------


def _det_cofactor(entries, field):
    n = len(entries)
    if n == 1:
        return entries[0][0]
    if n == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    acc = Poly.zero(field)
    for i in range(n):
        e = entries[i][0]
        if e.is_zero():
            continue
        minor = [row[1:] for r, row in enumerate(entries) if r != i]
        term = e * _det_cofactor(minor, field)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def hermite_det(m):
    """det by the Hermite route: u @ m = h, so det(m) = det(h) / det(u)."""
    try:
        form = hnf(m)
    except SingularMatrix:
        return Poly.zero(m.field)
    d = Poly.one(m.field)
    for i in range(m.rows):
        d = d * form.h.entries[i][i]
    return d.scale(m.field.inv(form.unit))


def det_cases(fld, n, rng):
    """Random matrices of entry degree <= 2: a dense one, one with about a
    third of its entries zero, one with a zero row and one with a repeated
    row (both singular when n > 1)."""
    dense = [list(r) for r in random_matrix(fld, n, 2, rng).entries]
    sparse = [[e if rng.randrange(3) else Poly.zero(fld) for e in r] for r in dense]
    zero_row = [list(r) for r in random_matrix(fld, n, 2, rng).entries]
    zero_row[rng.randrange(n)] = [Poly.zero(fld)] * n
    repeated = [list(r) for r in random_matrix(fld, n, 2, rng).entries]
    if n > 1:
        i, j = rng.sample(range(n), 2)
        repeated[i] = repeated[j]
    return [PolyMatrix(rows) for rows in (dense, sparse, zero_row, repeated)]


# a sign error can only show in odd characteristic (F_3, F_9); F_4 and F_9
# are extension fields
DET_FIELDS = [2, 3, 4, 9]


@pytest.mark.parametrize("q", DET_FIELDS)
def test_det_matches_cofactor_reference(q):
    fld = field_of_order(q)
    rng = random.Random(q)
    for n in range(1, 7):
        for m in det_cases(fld, n, rng):
            assert det(m) == _det_cofactor(m.entries, fld)


@pytest.mark.parametrize("q", DET_FIELDS)
def test_det_matches_hermite_route(q):
    fld = field_of_order(q)
    rng = random.Random(100 + q)
    for n in range(1, 9):
        cases = det_cases(fld, n, rng)
        for m in cases:
            assert det(m) == hermite_det(m)
        if n > 1:
            assert det(cases[2]).is_zero() and det(cases[3]).is_zero()


def test_det_past_cofactor_range_matches_cofactor_reference():
    """6 x 6 and 7 x 7 matrices of entry degree 1 over F_3 and F_4 against
    the cofactor reference, and a 6 x 6 with a repeated row."""
    rng = random.Random(6)
    for q in (3, 4):
        fld = field_of_order(q)
        for n in (6, 6, 6, 7, 7, 7):
            m = random_matrix(fld, n, 1, rng)
            assert det(m) == _det_cofactor([list(r) for r in m.entries], fld)
        rows = [list(r) for r in random_matrix(fld, 6, 1, rng).entries]
        rows[5] = rows[0]
        assert det(PolyMatrix(rows)).is_zero()


@pytest.mark.parametrize("q", [3, 9])
def test_minors_of_a_mixed_batch_match_det_of_each_member(q):
    """A batch of L = 5 matrices whose entries mix shared int coefficients
    and per-member arrays: every minor of the first r rows, r = n - 1 and
    r = n, equals det and the cofactor reference on that member's
    submatrix."""
    fld = field_of_order(q)
    rng = random.Random(q)
    n, size = 4, 5

    def coeff():
        if rng.randrange(2):
            return rng.randrange(q)
        return np.array([rng.randrange(q) for _ in range(size)])

    rows = [[[coeff() for _ in range(rng.randrange(1, 4))] for _ in range(n)] for _ in range(n)]

    def member(l, r, cols):
        return PolyMatrix([
            [Poly(fld, [int(c if isinstance(c, int) else c[l]) for c in rows[i][j]])
             for j in cols]
            for i in range(r)
        ])

    for r in (n - 1, n):
        minors = polymat._minors(tables(fld), rows[:r], size)
        assert sorted(minors) == list(combinations(range(n), r))
        assert any(d.any() for d in minors.values())
        for cols, d in minors.items():
            for l in range(size):
                sub = member(l, r, cols)
                assert Poly(fld, d[:, l].tolist()) == det(sub) == _det_cofactor(sub.entries, fld)


def test_det_takes_n_2_to_the_n_minus_1_products(monkeypatch):
    """One 8x8 det makes 8·2^7 multiply-accumulates, not 8! of them."""
    calls = []
    real = polymat._mac

    def spy(tbl, acc, a, b):
        calls.append(len(a))
        return real(tbl, acc, a, b)

    monkeypatch.setattr(polymat, "_mac", spy)
    m = random_matrix(F3, 8, 1, random.Random(8))
    assert det(m) == hermite_det(m)
    assert len(calls) == 8 * 2**7


def test_hnf_unit_is_det_of_witness():
    rng = random.Random(11)
    for q in (2, 3, 4):
        fld = field_of_order(q)
        for n in (1, 2, 3, 4):
            for _ in range(6):
                m = random_matrix(fld, n, 2, rng)
                if det(m).is_zero():
                    continue
                form = hnf(m)
                assert form.unit == det_constant(form.u)
