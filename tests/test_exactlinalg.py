import random
from fractions import Fraction

import pytest

from homocat.exactlinalg import (
    GroundRing, PrimeField, Rationals, Integers, Matrix,
    IntegerRingUnsupported, rref, hnf, snf, kernel, solve,
    matrix_to_json, matrix_from_json,
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
