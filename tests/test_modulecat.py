import random

import pytest

from homocat.exactlinalg import (
    PrimeField, Rationals, Integers, Matrix, IntegerRingUnsupported, rref,
)
from homocat.modulecat import (
    AlgebraPresentation, Module, ModuleMap, UnitNotAnnihilated,
    cyclic_algebra, regular_module, trivial_module, zero_module,
    direct_sum_modules, tensor_modules, hom_basis, decompose,
    factor_over_prime_field, factor_x_power_minus_one, cyclotomic,
    pmul, pdivmod, pxgcd, peval_matrix, IndecomposableTag,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
Q = Rationals()
Z = Integers()


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


class TestPolynomials:
    def test_divmod(self):
        # (x^2 - 1) = (x - 1)(x + 1)
        q, r = pdivmod(Q, [-1, 0, 1], [-1, 1])
        assert q == [1, 1] and r == []

    def test_xgcd(self):
        g, s, t = pxgcd(Q, [-1, 1], [1, 1])  # gcd(x-1, x+1) = 1
        assert g == [1]

    def test_cyclotomic(self):
        assert cyclotomic(Q, 1) == [-1, 1]
        assert cyclotomic(Q, 2) == [1, 1]
        assert cyclotomic(Q, 4) == [1, 0, 1]
        assert cyclotomic(Q, 6) == [1, -1, 1]


class TestFactorization:
    def test_f2_square(self):
        # x^2 - 1 = (x + 1)^2 over F_2
        assert factor_over_prime_field(F2, [1, 0, 1]) == [((1, 1), 2)]

    def test_f3_split(self):
        # x^2 - 1 = (x - 1)(x + 1) over F_3
        assert factor_x_power_minus_one(F3, 2) == [((1, 1), 1), ((2, 1), 1)]

    def test_q_cyclotomic(self):
        assert factor_x_power_minus_one(Q, 2) == [((-1, 1), 1), ((1, 1), 1)]

    def test_z_unsupported(self):
        with pytest.raises(IntegerRingUnsupported):
            factor_x_power_minus_one(Z, 2)


class TestModules:
    def test_regular_f2(self):
        A = regular_module(cyclic_algebra(F2, 2))
        assert A.x_action == M(F2, [[0, 1], [1, 0]])

    def test_trivial_requires_root(self):
        alg = AlgebraPresentation(Q, [1, 0, 1])  # x^2 + 1, p(1) = 2
        with pytest.raises(UnitNotAnnihilated):
            trivial_module(alg)
        one = trivial_module(cyclic_algebra(Q, 2))
        assert one.dim == 1 and one.x_action == Matrix.identity(Q, 1)

    def test_annihilation_checked(self):
        alg = cyclic_algebra(Q, 2)
        with pytest.raises(ValueError):
            Module(alg, 1, M(Q, [[2]]))  # x = 2 has x^2 - 1 = 3 != 0

    def test_tensor_unit(self):
        alg = cyclic_algebra(F2, 2)
        A = regular_module(alg)
        one = trivial_module(alg)
        assert tensor_modules(one, A).x_action == A.x_action

    def test_intertwiner_check(self):
        alg = cyclic_algebra(F2, 2)
        A = regular_module(alg)
        one = trivial_module(alg)
        with pytest.raises(ValueError):
            ModuleMap(one, A, M(F2, [[1], [0]]))
        ModuleMap(one, A, M(F2, [[1], [1]]))  # 1 -> 1 + x

    def test_hom_basis_unit_to_regular(self):
        alg = cyclic_algebra(F2, 2)
        maps = hom_basis(trivial_module(alg), regular_module(alg))
        assert len(maps) == 1
        assert maps[0].mat == M(F2, [[1], [1]])

    def test_hom_basis_z_saturated(self):
        alg = cyclic_algebra(Z, 2)
        A = regular_module(alg)
        one = trivial_module(alg)
        maps = hom_basis(one, A)
        assert len(maps) == 1
        assert maps[0].mat in (M(Z, [[1], [1]]), M(Z, [[-1], [-1]]))


class TestDecompose:
    def test_regular_over_q(self):
        alg = cyclic_algebra(Q, 2)
        dec = decompose(regular_module(alg))
        assert [t.sort_key() for t in dec.tags] == [
            IndecomposableTag([-1, 1], 1).sort_key(),
            IndecomposableTag([1, 1], 1).sort_key(),
        ]
        _check_basis(dec)

    def test_regular_over_f2_indecomposable(self):
        alg = cyclic_algebra(F2, 2)
        dec = decompose(regular_module(alg))
        assert dec.tags == [IndecomposableTag([1, 1], 2)]
        _check_basis(dec)

    def test_sum_over_f3(self):
        alg = cyclic_algebra(F3, 2)
        A = regular_module(alg)
        dec = decompose(direct_sum_modules(A, trivial_module(alg)))
        assert sorted(t.sort_key() for t in dec.tags) == [
            IndecomposableTag([2, 1], 1).sort_key(),
            IndecomposableTag([2, 1], 1).sort_key(),
            IndecomposableTag([1, 1], 1).sort_key(),
        ] or len(dec.tags) == 3
        _check_basis(dec)

    def test_integers_unsupported(self):
        with pytest.raises(IntegerRingUnsupported):
            decompose(regular_module(cyclic_algebra(Z, 2)))

    def test_random_modules_roundtrip(self):
        # random direct sums + conjugation decompose back to the same tags
        rng = random.Random("decompose")
        for ring, m in ((F2, 2), (F3, 2), (Q, 2), (F2, 3), (Q, 4)):
            alg = cyclic_algebra(ring, m)
            A = regular_module(alg)
            one = trivial_module(alg)
            for _ in range(5):
                mod = zero_module(alg)
                for _ in range(rng.randrange(1, 3)):
                    mod = direct_sum_modules(mod, rng.choice((A, one)))
                if mod.dim == 0:
                    continue
                expected = sorted(t.sort_key() for t in decompose(mod).tags)
                g = _random_invertible(ring, mod.dim, rng)
                conj = Module(alg, mod.dim,
                              _inv(g) * mod.x_action * g)
                got = sorted(t.sort_key() for t in decompose(conj).tags)
                assert got == expected


def _random_invertible(ring, n, rng):
    while True:
        m = Matrix.from_rows(ring, [[ring.coerce(rng.randrange(-3, 4))
                                     for _ in range(n)] for _ in range(n)])
        if rref(m).rank == n:
            return m


def _inv(m):
    from homocat.exactlinalg import solve
    inv = solve(m, Matrix.identity(m.ring, m.rows))
    assert inv is not None
    return inv


def _check_basis(dec):
    ring = dec.module.alg.ring
    b = dec.basis
    assert rref(b).rank == b.rows
    # conjugated x-action is block-diagonal with the tag dimensions
    xb = _inv(b) * dec.module.x_action * b
    offs = []
    o = 0
    for t in dec.tags:
        offs.append((o, t.dim))
        o += t.dim
    assert o == dec.module.dim
    for (o1, d1) in offs:
        for i in range(o1, o1 + d1):
            for j in range(b.cols):
                if not (o1 <= j < o1 + d1):
                    assert xb[i, j] == ring.zero()
