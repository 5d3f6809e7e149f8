import random

import pytest

from homocat.exactlinalg import PrimeField, Rationals, Integers, Matrix, kernel
from homocat.modulecat import (
    cyclic_algebra, regular_module, trivial_module, tensor_modules,
)
from homocat.complexes import (
    Complex, ChainMap, Homotopy, Verdict, PASS, FAIL, INCONCLUSIVE,
    atom, zero_complex, shift, direct_sum, tensor, tensor_maps, swap,
    cone, cone_inclusion, cone_projection, homology,
    solve_null_homotopy, is_contractible, homotopy_inverse,
    identity_map, zero_map, minimize, equivalent, hom_complex,
    restrict, complex_to_json, complex_from_json, maps_equal, bracket,
    chain_map_space,
)

F2 = PrimeField(2)
Q = Rationals()
Z = Integers()


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


def worked_example(ring):
    """The standard two-periodic example over k[x]/(x^2 - 1).

    Returns (alg, A, one, F, alpha, beta) with F = (A -> A -> unit) in degrees
    0..2, alpha: unit -> F by 1 -> 1 + x, beta: unit[-2] -> F the inclusion of
    the final term.
    """
    alg = cyclic_algebra(ring, 2)
    A = regular_module(alg)
    one = trivial_module(alg)
    xm1 = A.x_action - Matrix.identity(ring, 2)
    aug = M(ring, [[1, 1]])
    F = Complex(alg, 0, [A, A, one], [xm1, aug])
    alpha = ChainMap(atom(one), F, 0, {0: M(ring, [[1], [1]])})
    beta = ChainMap(shift(atom(one), -2), F, 0, {2: M(ring, [[1]])})
    return alg, A, one, F, alpha, beta


class TestStructure:
    def test_shift_places_unit(self):
        alg = cyclic_algebra(F2, 2)
        c = shift(atom(trivial_module(alg)), -2)
        assert c.term(2).dim == 1 and c.term(0).dim == 0

    def test_shift_negates_differential(self):
        _, A, one, F, _, _ = worked_example(Q)
        s = shift(F, 1)
        assert s.term(-1) == F.term(0)
        assert s.diff(-1) == -F.diff(0)

    def test_d_squared_enforced(self):
        alg = cyclic_algebra(Q, 2)
        A = regular_module(alg)
        eye = Matrix.identity(Q, 2)
        with pytest.raises(ValueError):
            Complex(alg, 0, [A, A, A], [eye, eye])

    def test_tensor_sign_gives_complex(self):
        _, A, one, F, _, _ = worked_example(F2)
        t = tensor(F, F)  # constructor would reject d^2 != 0
        assert t.term(0).dim == 4 and t.term(4).dim == 1

    def test_json_roundtrip(self):
        alg, _, _, F, _, _ = worked_example(Q)
        assert complex_from_json(alg, complex_to_json(F)) == F


class TestConesAndSwap:
    def test_cone_alpha_shape(self):
        _, A, one, F, alpha, _ = worked_example(Z)
        c = cone(alpha)
        assert [c.term(d).dim for d in range(-1, 3)] == [1, 2, 2, 1]
        assert c.diff(-1) == M(Z, [[1], [1]])

    def test_cone_triangle_maps(self):
        _, _, _, F, alpha, _ = worked_example(F2)
        c = cone(alpha)
        iota = cone_inclusion(alpha, c)
        pi = cone_projection(alpha, c)
        assert pi.compose(iota).is_zero()

    def test_swap_on_shifted_units_is_minus_id(self):
        alg = cyclic_algebra(Q, 2)
        c = shift(atom(trivial_module(alg)), 1)
        t = tensor(c, c)
        s = swap(c, c)
        assert maps_equal(s, identity_map(t).scale(-1))

    def test_swap_is_chain_map_on_worked_example(self):
        _, A, _, F, _, _ = worked_example(F2)
        G = restrict(F, 0, 1)
        swap(F, G)  # construction validates the chain condition


class TestHomology:
    def test_cone_alpha_acyclic(self):
        for ring in (F2, Q, Z):
            _, _, _, _, alpha, _ = worked_example(ring)
            assert homology(cone(alpha)) == {}

    def test_integer_torsion(self):
        alg = cyclic_algebra(Z, 1)
        one = trivial_module(alg)
        c = Complex(alg, 0, [one, one], [M(Z, [[4]])])
        assert homology(c) == {1: (0, (4,))}

    def test_f_homology(self):
        _, _, _, F, _, _ = worked_example(Q)
        h = homology(F)
        assert h == {0: 1}  # kernel of x - 1 on A


class TestHomotopy:
    def test_cone_alpha_not_contractible(self):
        # over Q the example collapses (F is equivalent to the unit), so the
        # non-contractibility of the acyclic cone is specific to F2 and Z
        for ring in (F2, Z):
            _, _, _, _, alpha, _ = worked_example(ring)
            assert is_contractible(cone(alpha)).status == FAIL
        _, _, _, _, alpha_q, _ = worked_example(Q)
        assert is_contractible(cone(alpha_q)).passed

    def test_regular_tensor_cone_alpha_contractible(self):
        for ring in (F2, Z):
            _, A, _, _, alpha, _ = worked_example(ring)
            c = tensor(atom(A), cone(alpha))
            v = is_contractible(c)
            assert v.passed
            # witness homotopy satisfies d h + h d = id exactly
            h = v.witness
            for d in c.degrees():
                lhs = c.diff(d - 1) * h.comp(d) + h.comp(d + 1) * c.diff(d)
                assert lhs == Matrix.identity(c.alg.ring, c.term(d).dim)

    def test_null_homotopy_of_boundary(self):
        _, _, _, F, _, _ = worked_example(Q)
        # d itself is null-homotopic as a degree-1 map via h = id
        d_map = ChainMap(F, F, 1, {d: F.diff(d) for d in F.degrees()},
                         check=False)
        v = solve_null_homotopy(d_map)
        assert v.passed

    def test_homotopy_inverse_of_identity(self):
        _, _, _, F, _, _ = worked_example(F2)
        v = homotopy_inverse(identity_map(F))
        assert v.passed

    @pytest.mark.parametrize("ring", [F2, Q], ids=["f2", "q"])
    def test_homotopy_inverse_of_minimal_inclusion(self, ring):
        _, _, _, _, _, beta = worked_example(ring)
        c = cone(beta)
        mr = minimize(c)
        assert mr.minimal.total_dim() < c.total_dim()  # a cancellation
        v = homotopy_inverse(mr.incl)
        assert v.passed
        psi, h, hp = v.witness
        assert maps_equal(bracket(h), psi.compose(mr.incl)
                          - identity_map(mr.minimal))
        assert maps_equal(bracket(hp), mr.incl.compose(psi)
                          - identity_map(c))

    def test_zero_self_map_of_noncontractible_has_no_inverse(self):
        _, _, _, F, _, _ = worked_example(F2)
        assert not is_contractible(F).passed
        assert homotopy_inverse(zero_map(F, F)).status == FAIL


class TestMinimize:
    def test_cone_beta_minimal_two_step(self):
        _, A, one, F, _, beta = worked_example(F2)
        mr = minimize(cone(beta))
        assert [mr.minimal.term(d).dim for d in (0, 1)] == [2, 2]
        assert mr.minimal.min_deg == 0
        assert mr.minimal.term(2).dim == 0

    def test_homology_invariant(self):
        rng = random.Random("minimize")
        for ring in (F2, Q):
            _, A, one, F, alpha, beta = worked_example(ring)
            pool = [F, cone(alpha), cone(beta), tensor(F, F)]
            for c in pool:
                mr = minimize(c)
                assert homology(mr.minimal) == homology(c)

    def test_minimize_over_z_rank_one(self):
        alg = cyclic_algebra(Z, 1)
        one = trivial_module(alg)
        c = Complex(alg, 0, [one, one], [M(Z, [[1]])])
        mr = minimize(c)
        assert mr.minimal.is_zero()
        c2 = Complex(alg, 0, [one, one], [M(Z, [[4]])])
        assert minimize(c2).minimal == c2


class TestEquivalent:
    def test_g_squared_is_f(self):
        _, A, one, F, _, _ = worked_example(F2)
        aug = M(F2, [[1, 1]])
        G = Complex(F2 and F.alg, 0, [A, one], [aug])
        v = equivalent(tensor(G, G), F)
        assert v.passed

    def test_sign_twisted_ladders_differ_over_q(self):
        alg = cyclic_algebra(Q, 2)
        A = regular_module(alg)
        xp1 = A.x_action + Matrix.identity(Q, 2)
        xm1 = A.x_action - Matrix.identity(Q, 2)
        X = Complex(alg, 0, [A, A], [xp1])
        Y = Complex(alg, 0, [A, A], [xm1])
        assert equivalent(X, Y).status == FAIL
        assert equivalent(X, X).passed

    def test_candidate_route_over_z(self):
        _, A, one, F, alpha, _ = worked_example(Z)
        v = equivalent(atom(A), atom(A), candidate=identity_map(atom(A)))
        assert v.passed
        bad = zero_map(atom(A), atom(A))
        assert equivalent(atom(A), atom(A), candidate=bad).status == FAIL

    def test_homology_mismatch_fails_over_z(self):
        alg = cyclic_algebra(Z, 1)
        one = trivial_module(alg)
        c2 = Complex(alg, 0, [one, one], [M(Z, [[2]])])
        c4 = Complex(alg, 0, [one, one], [M(Z, [[4]])])
        assert equivalent(c2, c4).status == FAIL


class TestChainMapSpace:
    @pytest.mark.parametrize("degree", [0, -1])
    @pytest.mark.parametrize("ring", [F2, Q, Z], ids=["f2", "q", "z"])
    def test_rank_matches_hom_complex_cycles(self, ring, degree):
        # hom_complex reaches its coordinates by separate solves, so the
        # count of its degree-k cycles is an independent reference
        _, A, one, F, alpha, _ = worked_example(ring)
        pool = [F, cone(alpha), atom(A), shift(atom(one), -1)]
        total = 0
        for X in pool:
            for Y in pool:
                space = chain_map_space(X, Y, degree)
                assert len(space) == \
                    kernel(hom_complex(X, Y).diff(degree)).cols
                for f in space:
                    ChainMap(X, Y, degree, f.comps, check=True)
                # the elements are independent: no column of their
                # coordinate matrix is a combination of the others
                coords = [[e for d in X.degrees() for e in f.comp(d).entries]
                          for f in space]
                if coords:
                    n = len(coords[0])
                    V = Matrix(ring, n, len(coords),
                               [v[i] for i in range(n) for v in coords])
                    assert kernel(V).cols == 0
                total += len(space)
        assert total


class TestHomComplex:
    def test_hom_unit_g(self):
        _, A, one, F, _, _ = worked_example(F2)
        G = restrict(F, 0, 1)  # A -> A; not what we want
        aug = M(F2, [[1, 1]])
        G = Complex(F.alg, 0, [A, one], [aug])
        hc = hom_complex(atom(one), G)
        h = homology(hc)
        # Hom(unit, A) is 1-dim; aug composed with 1 -> 1 + x is 2 = 0 over F2,
        # so the differential vanishes and both classes survive
        assert hc.term(0).dim == 1 and hc.term(1).dim == 1
        assert h == {0: 1, 1: 1}

    def test_hom_f_f_degree_zero(self):
        _, _, _, F, _, _ = worked_example(Q)
        hc = hom_complex(F, F)
        h = homology(hc)
        assert h.get(0, 0) >= 1  # at least the identity class
