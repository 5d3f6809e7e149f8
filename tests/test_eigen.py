import math

import pytest

from homocat.exactlinalg import PrimeField, Rationals, Integers, Matrix
from homocat.modulecat import cyclic_algebra, regular_module, trivial_module
from homocat.complexes import (
    Complex, ChainMap, atom, shift, direct_sum, tensor, tensor_maps, cone,
    homology, identity_map, minimize, homotopy_inverse, is_contractible,
    maps_equal, bracket, Verdict, PASS, FAIL, INCONCLUSIVE,
)
from homocat.eigen import (
    ScalarShift, Eigenmap, ScalarMismatch, CompositeNotKilled,
    eigencone, is_eigenobject, combine_eigenmaps,
    check_PD1, check_PD2, check_PD3_capped,
    eigen_locus, mixed_eigencone, is_split_eigenobject,
    eigenmap_to_json, eigenmap_from_json,
)

from test_complexes import worked_example, M

F2 = PrimeField(2)
Q = Rationals()
Z = Integers()


def eigenmaps(ring):
    alg, A, one, F, alpha, beta = worked_example(ring)
    ea = Eigenmap(ScalarShift(0), alpha)
    eb = Eigenmap(ScalarShift(-2), beta)
    return alg, A, one, F, ea, eb


def integers_setup():
    """Multiplication eigenmaps on the identity functor over Z (m = 1)."""
    alg = cyclic_algebra(Z, 1)
    one = trivial_module(alg)
    F = atom(one)

    def mult(k):
        return Eigenmap(ScalarShift(0),
                        ChainMap(atom(one), F, 0, {0: M(Z, [[k]])}))

    def zmod(n):
        return Complex(alg, 0, [one, one], [M(Z, [[n]])])

    return alg, one, F, mult, zmod


class TestScalarShift:
    def test_smallness(self):
        assert ScalarShift(1).is_small()
        assert not ScalarShift(0).is_small()
        assert not ScalarShift(-3).is_small()
        assert ScalarShift(-3).is_small(direction="below")

    def test_source_validation(self):
        alg, A, one, F, alpha, beta = worked_example(F2)
        with pytest.raises(ValueError):
            Eigenmap(ScalarShift(1), alpha)


class TestEigencone:
    def test_alpha_cone_is_four_term_acyclic(self):
        _, A, one, F, ea, eb = eigenmaps(F2)
        c = eigencone(ea)
        assert [c.term(d).dim for d in c.degrees()] == [1, 2, 2, 1]
        assert homology(c) == {}

    def test_identity_eigenmap_cone_vanishes(self):
        alg = cyclic_algebra(F2, 2)
        one = trivial_module(alg)
        e = Eigenmap(ScalarShift(0), identity_map(atom(one)))
        assert minimize(eigencone(e)).minimal.is_zero()

    def test_beta_cone_minimizes_to_two_term(self):
        _, A, one, F, ea, eb = eigenmaps(F2)
        m = minimize(eigencone(eb)).minimal
        assert [m.term(d).dim for d in m.degrees()] == [2, 2]


class TestIsEigenobject:
    @pytest.mark.parametrize("ring", [F2, Z])
    def test_regular_module_is_alpha_eigenobject(self, ring):
        _, A, one, F, ea, eb = eigenmaps(ring)
        assert is_eigenobject(ea, atom(A)).passed

    def test_cone_alpha_is_beta_eigenobject(self):
        _, A, one, F, ea, eb = eigenmaps(F2)
        assert is_eigenobject(eb, eigencone(ea)).passed

    def test_module_is_not_beta_eigenobject(self):
        _, A, one, F, ea, eb = eigenmaps(F2)
        assert not is_eigenobject(eb, atom(A)).passed

    def test_equivalence_is_realized(self):
        # eigenobject verdicts come with an actual inverse for a (x) id
        _, A, one, F, ea, eb = eigenmaps(F2)
        aM = tensor_maps(ea.map, identity_map(atom(A)))
        assert homotopy_inverse(aM).passed

    def test_triangulated_closure(self):
        # two legs eigenobjects -> the cone is one too
        _, A, one, F, ea, eb = eigenmaps(F2)
        f = ChainMap(atom(A), atom(A), 0, {0: A.x_action})
        assert is_eigenobject(ea, atom(A)).passed
        assert is_eigenobject(ea, cone(f)).passed


class TestPD:
    @pytest.mark.parametrize("ring", [F2, Z])
    def test_pd1_pair(self, ring):
        _, A, one, F, ea, eb = eigenmaps(ring)
        assert check_PD1([ea, eb]).passed

    def test_pd1_witnesses_contract_each_ordering_over_z(self):
        _, A, one, F, ea, eb = eigenmaps(Z)
        v = check_PD1([eb, ea])
        assert v.passed and set(v.witness) == {(0, 1), (1, 0)}
        cones = [eigencone(eb), eigencone(ea)]
        for (i, j), h in v.witness.items():
            word = tensor(cones[i], cones[j])
            assert h.src == word and h.tgt == word
            assert maps_equal(bracket(h), identity_map(word))

    def test_pd1_single_alpha_fails(self):
        _, A, one, F, ea, eb = eigenmaps(F2)
        assert not check_PD1([ea]).passed

    def test_pd1_identity_on_unit(self):
        alg = cyclic_algebra(F2, 2)
        one = trivial_module(alg)
        e = Eigenmap(ScalarShift(0), identity_map(atom(one)))
        assert check_PD1([e]).passed

    @pytest.mark.parametrize("ring", [F2, Z])
    def test_pd2_pair(self, ring):
        _, A, one, F, ea, eb = eigenmaps(ring)
        assert check_PD2([ea, eb]).passed

    def test_pd2_redundant_fails(self):
        _, A, one, F, ea, eb = eigenmaps(F2)
        assert not check_PD2([ea, eb, eb]).passed

    def test_pd3_exhaustive_over_field(self):
        _, A, one, F, ea, eb = eigenmaps(F2)
        v = check_PD3_capped([ea, eb], max_length=4)
        assert v.passed
        # frozen oracle: surjective words onto 2 letters with length <= 4
        assert "22 surjective words" in v.reason

    def test_pd3_with_certificates_over_z(self):
        _, A, one, F, ea, eb = eigenmaps(Z)
        certs = {(0, 1): Verdict(PASS)}
        v = check_PD3_capped([ea, eb], max_length=4, certificates=certs)
        assert v.passed and "2 orderings" in v.reason

    def test_pd3_failed_certificate(self):
        _, A, one, F, ea, eb = eigenmaps(Z)
        certs = {(0, 1): Verdict(FAIL, reason="nope")}
        assert not check_PD3_capped([ea, eb], certificates=certs).passed

    def test_pd3_single_fails(self):
        _, A, one, F, ea, eb = eigenmaps(F2)
        assert not check_PD3_capped([ea], max_length=3).passed


class TestEigenLocus:
    def test_integers_modular_oracle(self):
        alg, one, F, mult, zmod = integers_setup()
        objs = [("Z/2", zmod(2)), ("Z/5", zmod(5))]
        rep = eigen_locus(mult(2), mult(3), objs, samples=5, seed=1)
        for name, n in (("Z/2", 2), ("Z/5", 5)):
            want = {(c1, c2) for (c1, c2) in rep["combos"]
                    if math.gcd(2 * c1 + 3 * c2, n) == 1}
            assert rep["per_object"][name] == want
        assert rep["fusion_ok"] and rep["verdict"].passed

    def test_fusion_law_on_coprime_pair(self):
        alg, one, F, mult, zmod = integers_setup()
        objs = [("Z/2", zmod(2)), ("Z/3", zmod(3))]
        rep = eigen_locus(mult(2), mult(3), objs, samples=4, seed=2)
        assert rep["fusion_ok"]

    def test_equal_maps_locus_depends_only_on_sum(self):
        alg, one, F, mult, zmod = integers_setup()
        a = mult(2)
        rep = eigen_locus(a, a, [("Z/3", zmod(3))], samples=6, seed=3)
        locus = rep["per_object"]["Z/3"]
        for (c1, c2) in rep["combos"]:
            admissible = math.gcd(2 * (c1 + c2), 3) == 1
            assert ((c1, c2) in locus) == admissible

    def test_scalar_mismatch(self):
        _, A, one, F, ea, eb = eigenmaps(F2)
        with pytest.raises(ScalarMismatch):
            eigen_locus(ea, eb, [])


class TestMixed:
    def mixed_setup(self):
        alg = cyclic_algebra(Z, 1)
        one = trivial_module(alg)
        F = Complex(alg, -1, [one, one], [M(Z, [[2]])])
        a = ChainMap(atom(one), F, 0, {0: M(Z, [[1]])})
        mu = shift(atom(one), 1)
        b = ChainMap(F, mu, 0, {-1: M(Z, [[1]])})
        return alg, one, F, a, b

    def test_lambda_contractible(self):
        alg, one, F, a, b = self.mixed_setup()
        lam = mixed_eigencone(a, b)
        assert is_contractible(lam).passed

    def test_zero_b_gives_cone_plus_summand(self):
        alg, one, F, a, b = self.mixed_setup()
        zb = ChainMap(F, b.tgt, 0, {}, check=False)
        lam = mixed_eigencone(a, zb)
        assert lam == direct_sum(cone(a), shift(b.tgt, -1))

    def test_zero_both_gives_direct_sum(self):
        alg, one, F, a, b = self.mixed_setup()
        za = ChainMap(a.src, F, 0, {}, check=False)
        zb = ChainMap(F, b.tgt, 0, {}, check=False)
        lam = mixed_eigencone(za, zb)
        want = direct_sum(direct_sum(shift(a.src, 1), F), shift(b.tgt, -1))
        assert lam == want

    def test_nonzero_composite_rejected(self):
        alg = cyclic_algebra(Z, 1)
        one = trivial_module(alg)
        F = atom(one)
        a = identity_map(F)
        b = identity_map(F)
        with pytest.raises(CompositeNotKilled):
            mixed_eigencone(a, b)

    def test_bad_homotopy_rejected(self):
        # with shifted-unit scalars no homotopy can bound a nonzero composite
        alg = cyclic_algebra(Z, 1)
        one = trivial_module(alg)
        F = atom(one)
        a = identity_map(F)
        b = identity_map(F)
        bad = ChainMap(F, F, -1, {}, check=False)
        with pytest.raises(CompositeNotKilled):
            mixed_eigencone(a, b, h=bad)


class TestSplitEigenobject:
    def test_f_itself_splits(self):
        alg, one, F, a, b = TestMixed().mixed_setup()
        v = is_split_eigenobject(a, b, F)
        assert v.passed

    def test_cone_of_four_does_not_split(self):
        alg, one, F, a, b = TestMixed().mixed_setup()
        C = Complex(alg, -1, [one, one], [M(Z, [[4]])])
        v = is_split_eigenobject(a, b, C)
        assert v.status == FAIL and "homology" in v.reason

    def test_zero_object_rejected(self):
        alg, one, F, a, b = TestMixed().mixed_setup()
        from homocat.complexes import zero_complex
        with pytest.raises(ValueError):
            is_split_eigenobject(a, b, zero_complex(alg))


class TestJson:
    def test_round_trip(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        for e in (ea, eb):
            obj = eigenmap_to_json(e)
            back = eigenmap_from_json(alg, F, obj)
            assert back.scalar == e.scalar
            assert back.map.comps == e.map.comps
