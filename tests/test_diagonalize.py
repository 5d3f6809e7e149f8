import pytest

from homocat.exactlinalg import PrimeField
from homocat.modulecat import trivial_module, regular_module
from homocat.complexes import (
    atom, shift, cone, tensor, restrict, minimize, PASS, FAIL,
)
from homocat.cli import cyclic_scenario
from homocat.eigen import Eigenmap, ScalarShift
from homocat.interpolation import (
    TruncationWindow, build_Cab, build_P, stable_window,
)
from homocat.diagonalize import (
    verify_orthogonality, verify_idempotence,
    verify_decomposition_of_identity, tightness_spot_check,
    _reduced, _span_product,
)

from test_complexes import worked_example

F2 = PrimeField(2)


@pytest.fixture(scope="module")
def setup():
    alg, A, one, F, alpha, beta = worked_example(F2)
    ea = Eigenmap(ScalarShift(0), alpha)
    eb = Eigenmap(ScalarShift(-2), beta)
    w = TruncationWindow(3, 4)
    Pa = build_P([eb, ea], 1, w)
    Pb = build_P([eb, ea], 0, w)
    return alg, A, one, ea, eb, Pa, Pb


@pytest.fixture(scope="module")
def witness(setup):
    _, _, _, _, _, Pa, Pb = setup
    v = verify_decomposition_of_identity([Pb, Pa])
    assert v.passed
    return v.witness


class TestOrthogonality:
    def test_projector_pair_is_orthogonal(self, setup):
        _, _, _, _, _, Pa, Pb = setup
        assert verify_orthogonality([Pa, Pb]).status == PASS

    def test_factors_must_share_a_direction(self, setup):
        _, _, _, ea, eb, Pa, _ = setup
        below = build_Cab(ea, eb, TruncationWindow(3, 4), direction="below")
        with pytest.raises(AssertionError, match="direction"):
            verify_orthogonality([Pa, below])

    def test_repeated_projector_is_not_orthogonal(self, setup):
        _, _, _, _, _, Pa, _ = setup
        v = verify_orthogonality([Pa, Pa])
        assert v.status == FAIL
        assert "nonzero" in v.reason


class TestIdempotence:
    def test_projectors_are_idempotent(self, setup):
        _, _, _, _, _, Pa, Pb = setup
        assert verify_idempotence(Pa).status == PASS
        assert verify_idempotence(Pb).status == PASS

    def test_unit_is_idempotent(self, setup):
        _, _, one, _, _, _, _ = setup
        assert verify_idempotence(atom(one)).status == PASS

    def test_eigencone_is_not_idempotent(self, setup):
        _, _, _, ea, _, _, _ = setup
        assert verify_idempotence(cone(ea.map)).status == FAIL


class TestDecompositionOfIdentity:
    def test_projector_pair_decomposes_identity(self, witness):
        assert sorted(witness.poset.elements) == [0, 1]

    def test_unit_alone_decomposes_identity(self, setup):
        _, _, one, _, _, _, _ = setup
        assert verify_decomposition_of_identity([atom(one)]).status == PASS

    def test_zero_connecting_maps_fail(self, setup):
        _, _, _, _, _, Pa, Pb = setup
        v = verify_decomposition_of_identity([Pb, Pa], connecting={})
        assert v.status == FAIL
        assert "not the unit" in v.reason


class TestTightness:
    def test_regular_and_unit_objects(self, setup):
        _, A, one, ea, eb, Pa, Pb = setup
        v = tightness_spot_check([ea, eb], [Pa, Pb], [atom(A), atom(one)])
        assert v.status == PASS

    def test_shifted_objects(self, setup):
        _, A, _, ea, eb, Pa, Pb = setup
        v = tightness_spot_check([ea, eb], [Pa, Pb], [shift(atom(A), 1)])
        assert v.status == PASS

    def test_mismatched_pairing_fails(self, setup):
        _, A, one, ea, eb, Pa, Pb = setup
        v = tightness_spot_check([ea, eb], [Pb, Pa], [atom(A), atom(one)])
        assert v.status == FAIL
        assert "biconditional" in v.reason


# The minimal models of the windowed products that orthogonality and
# idempotence judge, over F2 with the default edge 4, recorded from the
# lexicographic elimination: degree -> exponents j of the (x + 1)^j
# summands.  Pivot order may change the bases, never these.
_STABLE = {d: [2] for d in range(-25, 0)}
_WIDE = {d: [4] for d in range(-8, 0)}
PRODUCT_MODELS = {
    (2, 8, "ab"): {-24: [2] * 8},
    (2, 8, "ba"): {-24: [2] * 8},
    (2, 8, "bb"): {**_STABLE, -26: [2] * 8, -17: [1, 1], 0: [1]},
    (4, 4, "ab"): {-8: [4] * 16},
    (4, 4, "ba"): {-8: [4] * 16},
    (4, 4, "bb"): {**_WIDE, -10: [4] * 14, -9: [1, 1], 0: [1]},
}


@pytest.mark.parametrize("key", sorted(PRODUCT_MODELS),
                         ids=lambda k: "m%d-depth%d-%s" % k)
def test_windowed_products_minimize_to_the_recorded_models(key):
    m, depth, word = key
    _, _, _, _, ea, eb = cyclic_scenario(F2, m)
    w = TruncationWindow(depth, 4)
    P = {"a": build_P([eb, ea], 1, w), "b": build_P([eb, ea], 0, w)}
    x, y = P[word[0]], P[word[1]]
    c = tensor(_reduced(x.complex), _reduced(y.complex))
    spans = [(p.complex.min_deg, p.complex.max_deg) for p in (x, y)]
    lo, hi, _, _ = stable_window(_span_product(spans), 2 * w.edge,
                                 "above")
    mr = minimize(restrict(c, lo, hi))
    got = {d: [t.j for t in tags] for d, tags in mr.blocks.items()}
    assert got == PRODUCT_MODELS[key]
    assert all(t.q == (1, 1) for tags in mr.blocks.values() for t in tags)
    assert {d: mr.minimal.term(d).dim for d in mr.minimal.degrees()
            if mr.minimal.term(d).dim} == {d: sum(js) for d, js in got.items()}
