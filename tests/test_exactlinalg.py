import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homocat.exactlinalg import (
    GroundRing, PrimeField, Rationals, Integers, Matrix,
    IntegerRingUnsupported, rref, hnf, snf, kernel, solve,
    matrix_to_json, matrix_from_json, _reduce,
)

F2 = PrimeField(2)
F5 = PrimeField(5)
Q = Rationals()
Z = Integers()


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


class TestRings:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            GroundRing("fp", 4)
        with pytest.raises(ValueError):
            GroundRing("fp", 2**31 + 11)
        PrimeField(2147483647)  # largest prime below 2**31

    def test_fp_arithmetic(self):
        assert F5.add(3, 4) == 2
        assert F5.inv(3) == 2
        assert F5.coerce(Fraction(1, 2)) == 3

    def test_integer_nonunit_inverse(self):
        with pytest.raises(IntegerRingUnsupported):
            Z.inv(2)


class TestMatrixOps:
    def test_matmul(self):
        a = M(Q, [[1, 2], [3, 4]])
        b = M(Q, [[0, 1], [1, 0]])
        assert a * b == M(Q, [[2, 1], [4, 3]])

    def test_kron(self):
        a = M(Z, [[1, 2]])
        b = M(Z, [[0, 1], [1, 0]])
        assert a.kron(b) == M(Z, [[0, 1, 0, 2], [1, 0, 2, 0]])

    def test_block(self):
        a = Matrix.identity(Z, 2)
        g = Matrix.block(Z, [[a, None], [None, a.scale(3)]])
        assert g == M(Z, [[1, 0, 0, 0], [0, 1, 0, 0],
                          [0, 0, 3, 0], [0, 0, 0, 3]])

    def test_json_roundtrip(self):
        m = M(Q, [[Fraction(3), Fraction(-7, 2)]])
        j = matrix_to_json(m)
        assert j == {"rows": 1, "cols": 2, "entries": ["3", "-7/2"]}
        assert matrix_from_json(Q, j) == m

    def test_json_fp_range(self):
        with pytest.raises(ValueError):
            matrix_from_json(F5, {"rows": 1, "cols": 1, "entries": ["7"]})


class TestRref:
    def test_simple_q(self):
        r = rref(M(Q, [[1, 2, 3], [2, 4, 6], [1, 0, 1]]))
        assert r.rank == 2
        assert r.pivots == [0, 1]
        # kernel columns annihilated
        m = M(Q, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert (m * kernel(m)).is_zero()
        assert kernel(m).cols == 1

    def test_integers_unsupported(self):
        with pytest.raises(IntegerRingUnsupported):
            rref(M(Z, [[2]]))

    def test_fp_large_path_matches_small(self):
        rng = random.Random(7)
        rows = [[rng.randrange(5) for _ in range(20)] for _ in range(20)]
        m = M(F5, rows)
        r = rref(m)  # one elimination serves every size and every field
        assert r.reduced.rows == 20
        assert (m * kernel(m)).is_zero()
        assert r.rank + kernel(m).cols == 20


class TestHnfSnf:
    def test_hnf_pivot_two(self):
        h, u = hnf(M(Z, [[4], [6]]))
        assert u * M(Z, [[4], [6]]) == h
        assert h == M(Z, [[2], [0]])

    def test_snf_chain(self):
        d, s, t = snf(M(Z, [[2, 4], [6, 8]]))
        assert s * M(Z, [[2, 4], [6, 8]]) * t == d
        assert (d[0, 0], d[1, 1]) == (2, 4)
        assert d[0, 1] == d[1, 0] == 0

    def test_solve_diophantine(self):
        a = M(Z, [[2, 0], [0, 3]])
        got = solve(a, M(Z, [[4], [9]]))
        assert got == M(Z, [[2], [3]])
        assert kernel(a).cols == 0
        assert solve(a, M(Z, [[1], [0]])) is None

    def test_solve_field(self):
        a = M(Q, [[1, 1], [0, 0]])
        got = solve(a, M(Q, [[3], [0]]))
        assert got is not None
        assert a * got == M(Q, [[3], [0]])
        assert kernel(a).cols == 1
        assert solve(a, M(Q, [[0], [1]])) is None


def _rand_matrix(ring, rng):
    rows = rng.randrange(1, 9)
    cols = rng.randrange(1, 9)
    ent = [[ring.coerce(rng.randrange(-9, 10)) for _ in range(cols)]
           for _ in range(rows)]
    return Matrix.from_rows(ring, ent)


@pytest.mark.parametrize("ringname,ring", [("f2", F2), ("f5", F5),
                                           ("q", Q), ("z", Z)])
def test_roundtrip_100_seeded(ringname, ring):
    """100 seeded random matrices per ring: decomposition identities hold."""
    rng = random.Random("roundtrip-" + ringname)
    xrng = random.Random("solve-" + ringname)
    for _ in range(100):
        m = _rand_matrix(ring, rng)
        if ring.is_field:
            r = rref(m)
            assert (m * kernel(m)).is_zero()
            assert r.rank + kernel(m).cols == m.cols
            # rref is idempotent
            assert rref(r.reduced).reduced == r.reduced
        else:
            h, u = hnf(m)
            assert u * m == h
            d, s, t = snf(m)
            assert s * m * t == d
            n = min(m.rows, m.cols)
            diag = [d[i, i] for i in range(n)]
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert d[i, j] == 0
            for a, b in zip(diag, diag[1:]):
                if a != 0:
                    assert b % a == 0
                else:
                    assert b == 0
            assert (m * kernel(m)).is_zero()
        # solve finds a preimage of anything in the image
        x = Matrix.from_rows(ring, [
            [ring.coerce(xrng.randrange(-9, 10)) for _ in range(3)]
            for _ in range(m.cols)])
        assert m * solve(m, m * x) == m * x
        # serialization round trip
        assert matrix_from_json(ring, matrix_to_json(m)) == m


# -- the sparse unit-pivot elimination against independent references --------

def _sparse_matrix(ring, rng, max_dim=10):
    rows = rng.randrange(1, max_dim + 1)
    cols = rng.randrange(1, max_dim + 1)
    ent = [[rng.randrange(-2, 3) if rng.random() < 0.35 else 0
            for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(ring, ent)


def _textbook_rref(m):
    """Dense Gauss-Jordan over a field, pivoting on the first nonzero."""
    ring = m.ring
    a = m.tolists()
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        piv = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = ring.inv(a[r][c])
        a[r] = [ring.mul(inv, x) for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [ring.sub(x, ring.mul(f, y))
                        for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return pivots, Matrix.from_rows(ring, a)


def _smith_solvable(a, b):
    """Whether a*x = b has an integer solution, read off snf(a)."""
    d, s, _ = snf(a)
    sb = s * b
    for i in range(a.rows):
        di = d[i, i] if i < min(a.rows, a.cols) else 0
        for j in range(b.cols):
            if (sb[i, j] != 0) if di == 0 else (sb[i, j] % di != 0):
                return False
    return True


@pytest.mark.parametrize("ringname,ring", [("f2", F2), ("f5", F5), ("q", Q)])
def test_rref_matches_textbook_dense_rref(ringname, ring):
    rng = random.Random("sparse-rref-" + ringname)
    for _ in range(200):
        m = _sparse_matrix(ring, rng)
        pivots, reduced = _textbook_rref(m)
        r = rref(m)
        assert r.pivots == pivots and r.rank == len(pivots)
        assert r.reduced == reduced
        # the kernel basis read off the reference: e_f - sum reduced[r, f] e_p
        free = [c for c in range(m.cols) if c not in pivots]
        ref = [[ring.one() if c == f else ring.zero() for f in free]
               for c in range(m.cols)]
        for row, pc in enumerate(pivots):
            ref[pc] = [ring.neg(reduced[row, f]) for f in free]
        assert kernel(m) == Matrix(ring, m.cols, len(free),
                                   [x for row in ref for x in row])


def test_integer_kernel_and_solve_against_smith_form():
    rng = random.Random("sparse-z")
    for _ in range(200):
        a = _sparse_matrix(Z, rng)
        k = kernel(a)
        assert (a * k).is_zero()
        assert k.cols == a.cols - rref(Matrix(Q, a.rows, a.cols,
                                              a.entries)).rank
        if k.cols:  # saturated: every invariant factor is 1
            d, _, _ = snf(k)
            assert all(d[i, i] == 1 for i in range(k.cols))
        x = Matrix.from_rows(Z, [[rng.randrange(-2, 3) for _ in range(2)]
                                 for _ in range(a.cols)])
        noise = Matrix(Z, a.rows, 2,
                       [rng.randrange(-3, 4) for _ in range(2 * a.rows)])
        for b in (a * x, noise):
            got = solve(a, b)
            assert (got is not None) == _smith_solvable(a, b)
            if got is not None:
                assert a * got == b


@pytest.mark.parametrize("rows", [
    [[2, 3], [3, 5]],  # unimodular, no +-1 in column 0
    [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
    [[1, 1, 0], [0, 2, 4], [0, 4, 2]],  # a unit pivot, then a residual
], ids=["unimodular", "two-identity", "unit-then-residual"])
def test_integer_residual_path(rows):
    a = M(Z, rows)
    assert _reduce(Z, a.data, a.cols)[2], "leaves a residual"
    assert kernel(a).cols == 0
    n = a.rows
    rhs = [Matrix(Z, n, 1, [int(i == j) for i in range(n)]) for j in range(n)]
    for b in rhs + [a * Matrix(Z, n, 1, [1] * n)]:
        got = solve(a, b)
        assert (got is not None) == _smith_solvable(a, b)
        if got is not None:
            assert a * got == b


def test_unimodular_without_unit_entries_is_inverted():
    a = M(Z, [[2, 3], [3, 5]])
    assert solve(a, Matrix.identity(Z, 2)) == M(Z, [[5, -3], [-3, 2]])
    assert solve(Matrix.identity(Z, 2).scale(2), M(Z, [[1], [0]])) is None


def test_two_x_equals_four_and_three():
    two = M(Z, [[2]])
    assert _reduce(Z, two.data, 1)[2], "leaves a residual"
    assert solve(two, M(Z, [[4]])) == M(Z, [[2]])
    assert solve(two, M(Z, [[3]])) is None


def _row_scan_reduce(ring, rows, ncols):
    """The reference for ``_reduce``: the same pivot rule (a unit in the
    sparsest live row, the lowest row first among equals) found by scanning
    every live row for each column, and cleared from every row."""
    p = ring.p
    integral = not ring.is_field
    live = [dict(r) for r in rows if r]
    pivots, prows = [], []
    for c in range(ncols):
        best = None
        for i, r in enumerate(live):
            v = r.get(c)
            if v is not None and (not integral or v == 1 or v == -1) \
                    and (best is None or len(r) < len(live[best])):
                best = i
        if best is None:
            continue
        prow = live.pop(best)
        inv = ring.inv(prow[c])
        if inv != 1:
            prow = {j: ring.mul(inv, v) for j, v in prow.items()}
        for rows_ in (prows, live):
            for r in rows_:
                f = r.get(c)
                if f is None:
                    continue
                for j, v in prow.items():
                    w = r.get(j, 0) - f * v
                    if p:
                        w %= p
                    if w:
                        r[j] = w
                    else:
                        del r[j]
        pivots.append(c)
        prows.append(prow)
    return pivots, prows, [r for r in live if r]


@st.composite
def _sparse_systems(draw):
    """(ring, rows, ncols): sparse rows with up to two right-hand-side
    columns from ``ncols`` on; over Z some columns are scaled so that they
    hold no unit."""
    ring = draw(st.sampled_from([F2, PrimeField(3), Q, Z]))
    ncols = draw(st.integers(0, 8))
    width = ncols + draw(st.integers(0, 2))
    doubled = draw(st.sets(st.integers(0, max(ncols - 1, 0))))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = {}
        for j in draw(st.sets(st.integers(0, max(width - 1, 0)),
                              max_size=width)):
            num = draw(st.integers(-3, 3))
            den = draw(st.integers(1, 3)) if ring == Q else 1
            if ring == Z and j in doubled:
                num *= 2
            v = ring.coerce(Fraction(num, den))
            if v:
                row[j] = v
        rows.append(row)
    return ring, rows, ncols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(system=_sparse_systems())
def test_reduce_matches_the_row_scan(system):
    """The column-indexed elimination picks the same pivots in the same
    order and leaves the same rows as a scan over every row."""
    ring, rows, ncols = system
    before = [dict(r) for r in rows]
    assert _reduce(ring, rows, ncols) == _row_scan_reduce(ring, rows, ncols)
    assert rows == before


# -- the sparse Matrix against a dense reference ------------------------------

SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4), (5, 3)]


def _lists(ring, rng, rows, cols, density=0.4):
    return [[ring.coerce(rng.randrange(-2, 3)) if rng.random() < density
             else ring.zero() for _ in range(cols)] for _ in range(rows)]


def _mat(ring, a, cols):
    return Matrix(ring, len(a), cols, [x for row in a for x in row])


def _ref_mul(ring, a, b, inner, cols):
    out = []
    for row in a:
        acc = []
        for j in range(cols):
            s = ring.zero()
            for k in range(inner):
                s = ring.add(s, ring.mul(row[k], b[k][j]))
            acc.append(s)
        out.append(acc)
    return out


@pytest.mark.parametrize("ring", [F2, F5, Q, Z], ids=["f2", "f5", "q", "z"])
def test_sparse_matrix_matches_dense_reference(ring):
    """Every Matrix operation equals a dense list-of-lists reference, on
    seeded matrices that include 0 x n and n x 0 shapes."""
    rng = random.Random("sparse-matrix-" + repr(ring))
    z = ring.zero()
    for _ in range(60):
        (r, c), (_, k) = rng.choice(SHAPES), rng.choice(SHAPES)
        a, b = _lists(ring, rng, r, c), _lists(ring, rng, r, c)
        e = _lists(ring, rng, c, k)
        A, B, E = _mat(ring, a, c), _mat(ring, b, c), _mat(ring, e, k)
        assert A.tolists() == a and A.rows == r and A.cols == c
        assert A.entries == tuple(x for row in a for x in row)
        assert all(A.row(i) == tuple(a[i]) for i in range(r))
        assert all(A.col(j) == tuple(row[j] for row in a) for j in range(c))
        assert all(A[i, j] == a[i][j] for i in range(r) for j in range(c))
        assert (A + B).tolists() == [[ring.add(x, y) for x, y in zip(p, q)]
                                     for p, q in zip(a, b)]
        assert (A - B).tolists() == [[ring.sub(x, y) for x, y in zip(p, q)]
                                     for p, q in zip(a, b)]
        assert (-A).tolists() == [[ring.neg(x) for x in p] for p in a]
        for s in (0, 1, 2, -1):
            assert A.scale(s).tolists() == [
                [ring.mul(ring.coerce(s), x) for x in p] for p in a]
        assert (A * E).tolists() == _ref_mul(ring, a, e, c, k)
        assert A.transpose().tolists() == [[row[j] for row in a]
                                           for j in range(c)]
        assert A.kron(E).tolists() == [
            [ring.mul(a[i][j], e[p][q]) for j in range(c) for q in range(k)]
            for i in range(r) for p in range(c)]
        assert A.hstack(B).tolists() == [p + q for p, q in zip(a, b)]
        assert A.vstack(B).tolists() == a + b
        assert Matrix.block(ring, [[A, None], [None, E]]).tolists() == \
            [p + [z] * k for p in a] + [[z] * c + q for q in e]
        ri = rng.sample(range(r), rng.randint(0, r))
        ci = rng.sample(range(c), rng.randint(0, c))
        assert A.submatrix(ri, ci).tolists() == [[a[i][j] for j in ci]
                                                 for i in ri]
        assert A.submatrix(ri, range(c)).tolists() == [a[i] for i in ri]
        assert A.is_zero() == all(x == z for p in a for x in p)
        assert Matrix.identity(ring, c).is_identity()
        assert A.is_identity() == (r == c and a == Matrix.identity(
            ring, c).tolists())
        assert (A == B) == (a == b)
        assert matrix_from_json(ring, matrix_to_json(A)) == A


@pytest.mark.parametrize("ring", [F2, F5, Q, Z], ids=["f2", "f5", "q", "z"])
def test_equal_matrices_hash_equal(ring):
    """Equality and hashing are by value: explicit zeros, cancelled
    entries and the order in which a row's entries were made do not count."""
    rng = random.Random("sparse-hash-" + repr(ring))
    for r, c in SHAPES:
        a, b = _lists(ring, rng, r, c), _lists(ring, rng, r, c)
        A, B = _mat(ring, a, c), _mat(ring, b, c)
        ones = Matrix(ring, r, c, [1] * (r * c))
        for x, y in ((A, Matrix.from_rows(ring, a) if r else A),
                     (A + B - B, A), (A + B, B + A),
                     (A.transpose().transpose(), A),
                     (A + ones - ones, A),
                     (A - A, Matrix.zeros(ring, r, c)),
                     (A.scale(0), Matrix(ring, r, c, [0] * (r * c)))):
            assert x == y and hash(x) == hash(y)
        assert all(all(v != 0 for v in row.values())
                   for m in (A + B - B, A - A, A.scale(0)) for row in m.data)


@pytest.mark.parametrize("ring", [F2, F5, Q, Z], ids=["f2", "f5", "q", "z"])
def test_elimination_leaves_its_input_unchanged(ring):
    """rref, kernel and solve read a matrix's rows but never change them."""
    rng = random.Random("sparse-input-" + repr(ring))
    for _ in range(40):
        m = _sparse_matrix(ring, rng)
        rhs = _mat(ring, _lists(ring, rng, m.rows, 2), 2)
        image = m * _mat(ring, _lists(ring, rng, m.cols, 2), 2)
        before = [[dict(row) for row in x.data] for x in (m, rhs, image)]
        if ring.is_field:
            rref(m)
        kernel(m)
        solve(m, rhs)
        assert solve(m, image) is not None
        assert [[dict(row) for row in x.data]
                for x in (m, rhs, image)] == before
