import random

import pytest

from homocat.exactlinalg import (
    PrimeField, Rationals, Integers, Matrix, IntegerRingUnsupported, rref,
    solve,
)
from homocat.modulecat import (
    AlgebraPresentation, Module, UnitNotAnnihilated,
    cyclic_algebra, regular_module, trivial_module, zero_module,
    direct_sum_modules, tensor_modules, hom_basis, decompose,
    factor_over_prime_field, factor_x_power_minus_one, cyclotomic,
    pmul, pdivmod, pxgcd, peval_matrix, IndecomposableTag,
    orbits, _kernel_hom_basis, _smith_decompose,
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

    def test_hom_basis_unit_to_regular(self):
        alg = cyclic_algebra(F2, 2)
        maps = hom_basis(trivial_module(alg), regular_module(alg))
        assert len(maps) == 1
        assert maps[0] == M(F2, [[1], [1]])

    def test_hom_basis_z_saturated(self):
        alg = cyclic_algebra(Z, 2)
        A = regular_module(alg)
        one = trivial_module(alg)
        maps = hom_basis(one, A)
        assert len(maps) == 1
        assert maps[0] in (M(Z, [[1], [1]]), M(Z, [[-1], [-1]]))


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
                dec = decompose(conj)
                assert sorted(t.sort_key() for t in dec.tags) == expected
                _check_basis(dec)


def random_permutation_module(alg, rng, max_orbits=3):
    """A sum of x-orbits of sizes dividing m, on a shuffled basis."""
    m = alg.m
    sizes = [rng.choice([s for s in range(1, m + 1) if m % s == 0])
             for _ in range(rng.randrange(1, max_orbits + 1))]
    n = sum(sizes)
    labels = list(range(n))
    rng.shuffle(labels)
    rows = [{} for _ in range(n)]
    for s in sizes:
        walk, labels = labels[:s], labels[s:]
        for k, j in enumerate(walk):
            rows[walk[(k + 1) % s]][j] = alg.ring.one()  # x e_j = e_next
    return Module(alg, n, Matrix._of(alg.ring, n, n, rows))


def _vecs(maps):
    """The row-major vectorizations of the maps, as matrix columns."""
    ring = maps[0].ring
    cols = maps[0].cols
    return Matrix._of(ring, len(maps), maps[0].rows * cols, (
        {r * cols + j: v for r, row in enumerate(f.data)
         for j, v in row.items()} for f in maps)).transpose()


class TestPermutationModules:
    """The orbit paths against the kernel and Smith paths they replace."""

    def test_orbits(self):
        alg = cyclic_algebra(F2, 4)
        assert orbits(regular_module(alg)) == [[0, 1, 2, 3]]
        mod = direct_sum_modules(trivial_module(alg), regular_module(alg))
        assert orbits(mod) == [[0], [1, 2, 3, 4]]
        # x - 1 on the regular module of Q[x]/(x^2 - 1) is not a permutation
        q = cyclic_algebra(Q, 2)
        conj = Module(q, 2, M(Q, [[1, 0], [1, -1]]))
        assert orbits(conj) is None

    @pytest.mark.parametrize("ring,m", [
        (F2, 2), (F2, 4), (F2, 6), (F3, 3), (F3, 6), (Q, 2), (Q, 4), (Q, 6),
        (Z, 2), (Z, 3), (Z, 4)])
    def test_orbit_hom_basis_matches_kernel(self, ring, m):
        alg = cyclic_algebra(ring, m)
        rng = random.Random(f"hom-{ring}-{m}")
        for _ in range(6):
            src = random_permutation_module(alg, rng)
            tgt = random_permutation_module(alg, rng)
            got = hom_basis(src, tgt)
            ref = _kernel_hom_basis(src, tgt)
            assert len(got) == len(ref)
            for f in got:
                assert f * src.x_action == tgt.x_action * f
            # listed in the kernel path's order, which makes the two equal
            assert got == ref
            g = _vecs(got)
            if ring.is_field:
                both = g.hstack(_vecs(ref))
                assert rref(g).rank == rref(both).rank == len(got)
            else:
                assert solve(g, _vecs(ref)) is not None  # integral coords

    @pytest.mark.parametrize("ring,m", [
        (F2, 2), (F2, 4), (F2, 8), (F3, 3), (F3, 9)])
    def test_orbit_decompose_matches_smith(self, ring, m):
        alg = cyclic_algebra(ring, m)
        rng = random.Random(f"dec-{ring}-{m}")
        for _ in range(6):
            mod = random_permutation_module(alg, rng, max_orbits=4)
            dec = decompose(mod)
            ref = _smith_decompose(mod)
            assert dec.perm is not None and ref.perm is None
            assert dec.tags == ref.tags
            X = mod.x_action
            assert dec.inverse * X * dec.basis == ref.inverse * X * ref.basis
            assert dec.basis * dec.inverse == Matrix.identity(ring, mod.dim)
            _check_basis(dec)

    def test_non_local_algebras_keep_the_smith_path(self):
        for ring, m in ((F2, 6), (Q, 2), (F3, 2)):
            alg = cyclic_algebra(ring, m)
            assert decompose(regular_module(alg)).perm is None


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
    eye = Matrix.identity(ring, b.rows)
    assert dec.inverse * b == eye and b * dec.inverse == eye
    # conjugated x-action is block-diagonal with the tag dimensions
    xb = dec.inverse * dec.module.x_action * b
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
