import random
from fractions import Fraction

import pytest

from homocat.exactlinalg import (
    GroundRing, PrimeField, Rationals, Integers, Matrix,
    IntegerRingUnsupported, rref, hnf, snf, kernel, solve,
    matrix_to_json, matrix_from_json, _reduce, _sparse_rows,
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
    assert _reduce(Z, _sparse_rows(a), a.cols)[2], "leaves a residual"
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
    assert _reduce(Z, _sparse_rows(two), 1)[2], "leaves a residual"
    assert solve(two, M(Z, [[4]])) == M(Z, [[2]])
    assert solve(two, M(Z, [[3]])) is None
