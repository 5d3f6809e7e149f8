import pytest

from homocat.exactlinalg import PrimeField
from homocat.modulecat import trivial_module, regular_module
from homocat.complexes import (
    atom, shift, cone, PASS, FAIL,
)
from homocat.eigen import Eigenmap, ScalarShift
from homocat.interpolation import TruncationWindow, build_P
from homocat.diagonalize import (
    verify_orthogonality, verify_idempotence,
    verify_decomposition_of_identity, tightness_spot_check,
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
