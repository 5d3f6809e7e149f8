import json

import pytest
from hypothesis import given, settings, strategies as st

from homocat.exactlinalg import PrimeField, Rationals, Integers
from homocat.modulecat import trivial_module
from homocat.complexes import (
    ChainMap, atom, shift, tensor, tensor_maps, cone, restrict, minimize,
    identity_map, bracket, is_contractible, PASS, FAIL, INCONCLUSIVE,
)
from homocat.eigen import Eigenmap, ScalarShift
from homocat.interpolation import (
    SmallnessViolated,
    TruncationWindow, window_bounds, window_restrict,
    TruncatedPeriodic, truncated_to_json, truncated_from_json,
    build_Cab, build_Cba, periodicity_map, head_projection, canonical_map,
    triangle_check, partial_map, verify_compact_description,
    build_K, quasi_idempotent_check, build_P, verify_P_koszul,
    verify_eigenaction,
)

from homocat.cli import cyclic_scenario

from test_complexes import worked_example

F2 = PrimeField(2)
Q = Rationals()
Z = Integers()


def eigenmaps(ring):
    alg, A, one, F, alpha, beta = worked_example(ring)
    ea = Eigenmap(ScalarShift(0), alpha)
    eb = Eigenmap(ScalarShift(-2), beta)
    return alg, A, one, F, ea, eb


class _Cert:
    def __init__(self, passed=True):
        self.passed = passed


def all_certs(ok=True):
    return {("w", 0): _Cert(), ("w", 1): _Cert(),
            ("z", 0, 1): _Cert(ok)}


def dims(c):
    return {d: c.term(d).dim for d in range(c.min_deg, c.max_deg + 1)
            if c.term(d).dim}


def zero_eigenmap(alg, F, n):
    """An eigenmap with zero underlying component at scalar shift n."""
    unit = atom(trivial_module(alg))
    return Eigenmap(ScalarShift(n),
                    ChainMap(shift(unit, n), F, 0, {}, check=False))


class TestWindow:
    def test_bounds_both_directions(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        w = TruncationWindow(3, 2)
        assert window_bounds(F, w) == (2, 2)
        assert window_bounds(F, w, direction="below") == (0, 0)
        assert window_restrict(F, TruncationWindow(3, 5)) is None

    def test_deeper_and_validation(self):
        w = TruncationWindow(3, 2)
        assert w.deeper() == TruncationWindow(5, 2)
        with pytest.raises(ValueError):
            TruncationWindow(0, 2)
        with pytest.raises(ValueError):
            TruncationWindow(3, 0)


class TestBuilders:
    def test_first_truncation_shape(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        tp = build_Cab(ea, eb, TruncationWindow(3, 8))
        c = tp.complex
        assert (c.min_deg, c.max_deg) == (-7, 0)
        assert [c.term(d).dim for d in range(-7, 1)] == \
            [1, 2, 3, 3, 3, 3, 2, 1]
        assert tp.period_shift == 2
        assert tp.kind == "plain"

    def test_second_truncation_shape(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        tp = build_Cba(ea, eb, TruncationWindow(3, 8))
        c = tp.complex
        assert (c.min_deg, c.max_deg) == (-5, 1)
        assert [c.term(d).dim for d in range(-5, 2)] == \
            [2, 3, 3, 3, 3, 3, 1]
        assert tp.kind == "head"

    def test_depth_one_is_a_shifted_cone(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        c = build_Cab(ea, eb, TruncationWindow(1, 2)).complex
        cn = cone(ea.map)
        assert dims(c) == dims(shift(cn, 2))

    def test_smallness_gate(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        with pytest.raises(SmallnessViolated):
            build_Cab(eb, ea, TruncationWindow(3, 8))
        with pytest.raises(SmallnessViolated):
            build_Cab(eb, ea, TruncationWindow(3, 8), direction="below")

    def test_below_direction_swaps_kinds(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        w = TruncationWindow(3, 4)
        assert build_Cab(ea, eb, w, direction="below").kind == "head"
        assert build_Cba(ea, eb, w, direction="below").kind == "plain"

    def test_periodicity_structure_is_enforced(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        tp = build_Cab(ea, eb, TruncationWindow(3, 8))
        with pytest.raises(ValueError):
            TruncatedPeriodic(tp.complex, tp.window, tp.period_shift + 2,
                              tp.provenance, kind=tp.kind,
                              tot_layers=tp.tot_layers)

    @pytest.mark.parametrize("ring", [F2, Q, Z])
    def test_builds_over_all_rings(self, ring):
        alg, A, one, F, ea, eb = eigenmaps(ring)
        w = TruncationWindow(3, 4)
        for tp in (build_Cab(ea, eb, w), build_Cba(ea, eb, w)):
            periodicity_map(tp)  # raises if the blocks fail to commute

    def test_stable_window_content(self):
        # interior of the first truncation: one copy of A per degree and a
        # unit on top; second truncation: units glued onto copies of A
        alg, A, one, F, ea, eb = eigenmaps(F2)
        w = TruncationWindow(5, 6)
        cab = build_Cab(ea, eb, w).complex
        r = minimize(window_restrict(cab, w)).minimal
        assert dims(r) == {-5: 2, -4: 2, -3: 2, -2: 2, -1: 2, 0: 1}
        cba = build_Cba(ea, eb, w).complex
        r = minimize(window_restrict(cba, w)).minimal
        assert dims(r) == {-3: 3, -2: 2, -1: 2, 0: 2}

    def test_stable_window_content_rationals(self):
        # over the rationals both truncations are contractible away from
        # the cut edge
        alg, A, one, F, ea, eb = eigenmaps(Q)
        w = TruncationWindow(5, 6)
        r = minimize(window_restrict(build_Cab(ea, eb, w).complex,
                                     w)).minimal
        assert dims(r) == {-5: 1}
        r = minimize(window_restrict(build_Cba(ea, eb, w).complex,
                                     w)).minimal
        assert dims(r) == {-3: 2, 0: 1}

    @settings(max_examples=15, deadline=None)
    @given(depth=st.integers(1, 4), edge=st.integers(1, 4))
    def test_periodicity_always_commutes(self, depth, edge):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        w = TruncationWindow(depth, edge)
        for build in (build_Cab, build_Cba):
            tp = build(ea, eb, w)
            u = periodicity_map(tp)
            assert u.tgt is tp.complex


class TestPeriodicityMap:
    def test_flipped_head_gluing_is_not_a_chain_map(self):
        # the head arrow sign is tied to the interior gluing sign; flipping
        # only the interior must break the chain condition over the integers
        alg, A, one, F, ea, eb = eigenmaps(Z)
        tp = build_Cba(ea, eb, TruncationWindow(3, 4), flip=True)
        with pytest.raises(ValueError):
            periodicity_map(tp)

    def test_cone_of_periodicity_is_a_shifted_cone(self):
        # away from the cut edge the minimal form agrees with a shifted cone
        alg, A, one, F, ea, eb = eigenmaps(F2)
        w = TruncationWindow(5, 6)
        tp = build_Cab(ea, eb, w)
        u = periodicity_map(tp)
        lo, hi = window_bounds(tp.complex, w)
        r = minimize(restrict(cone(u), lo, hi)).minimal
        got = {d: n for d, n in dims(r).items() if d > lo}
        expect = shift(cone(ea.map), 2)
        assert got == {d: n for d, n in dims(expect).items()
                       if lo < d <= hi}

    def test_cone_of_periodicity_head_variant(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        w = TruncationWindow(5, 6)
        tp = build_Cba(ea, eb, w)
        u = periodicity_map(tp)
        lo, hi = window_bounds(tp.complex, w)
        r = minimize(restrict(cone(u), lo, hi)).minimal
        got = {d: n for d, n in dims(r).items() if d > lo}
        expect = cone(eb.map)
        assert got == {d: n for d, n in dims(expect).items()
                       if lo < d <= hi}


class TestCanonicalTriangle:
    def test_canonical_cone_is_the_unit_on_the_window(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        w = TruncationWindow(5, 6)
        cm, htp = canonical_map(ea, eb, w)
        lo, hi = window_bounds(htp.complex, w)
        r = minimize(restrict(cone(cm), lo, hi)).minimal
        assert {d: n for d, n in dims(r).items() if d > lo} == {0: 1}

    @pytest.mark.parametrize("ring", [F2, Q, Z])
    def test_triangle(self, ring):
        alg, A, one, F, ea, eb = eigenmaps(ring)
        v = triangle_check(ea, eb, TruncationWindow(5, 8))
        assert v.status == PASS

    def test_triangle_too_shallow_is_inconclusive(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        v = triangle_check(ea, eb, TruncationWindow(4, 8))
        assert v.status == INCONCLUSIVE

    def test_triangle_depth_one_is_inconclusive(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        v = triangle_check(ea, eb, TruncationWindow(1, 2))
        assert v.status == INCONCLUSIVE


class TestCompactDescription:
    def test_partial_operator_components(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        pm = partial_map(ea, eb)
        assert (pm.src.min_deg, pm.src.max_deg) == (2, 5)
        assert (pm.tgt.min_deg, pm.tgt.max_deg) == (-1, 2)
        assert list(pm.comps) == [2]
        m = pm.comps[2]
        assert (m.rows, m.cols) == (pm.tgt.term(2).dim, pm.src.term(2).dim)

    def test_partial_operator_of_zero_map_is_zero(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        bz = zero_eigenmap(alg, F, -2)
        assert partial_map(ea, bz).is_zero()

    @pytest.mark.parametrize("ring", [F2, Q, Z])
    @pytest.mark.parametrize("kind", ["Cab", "Cba"])
    def test_compact_description(self, ring, kind):
        alg, A, one, F, ea, eb = eigenmaps(ring)
        v = verify_compact_description(ea, eb, TruncationWindow(4, 4), kind)
        assert v.status == PASS

    @pytest.mark.parametrize("kind", ["Cab", "Cba"])
    def test_compact_description_zeroed_control(self, kind):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        v = verify_compact_description(ea, eb, TruncationWindow(4, 4), kind,
                                       zero_partial=True)
        assert v.status == FAIL

    @pytest.mark.parametrize("kind", ["Cab", "Cba"])
    def test_compact_description_below(self, kind):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        v = verify_compact_description(ea, eb, TruncationWindow(4, 4), kind,
                                       direction="below")
        assert v.status == PASS


class TestKoszulObjects:
    def test_K_is_the_cone_of_the_other_map(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        K = build_K([eb, ea], 1)
        assert dims(minimize(K).minimal) == dims(minimize(cone(eb.map)).minimal)

    def test_K_ordering_must_omit_the_index(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        with pytest.raises(ValueError):
            build_K([eb, ea], 1, ordering=[0, 1])

    def test_K_kills_its_own_cone(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        maps = [eb, ea]
        for i in (0, 1):
            K = build_K(maps, i)
            assert is_contractible(tensor(K, cone(maps[i].map))).passed

    def test_quasi_idempotent_needs_certificates(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        v = quasi_idempotent_check([eb, ea], 1)
        assert v.status == INCONCLUSIVE
        v = quasi_idempotent_check([eb, ea], 1, all_certs(ok=False))
        assert v.status == INCONCLUSIVE


class TestProjectors:
    def test_single_factor_projector_is_the_truncation(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        w = TruncationWindow(3, 4)
        P = build_P([eb, ea], 1, w)
        assert P.complex == build_Cba(ea, eb, w).complex
        assert P.provenance == "P:1"
        assert P.kind == "head"

    def test_ladder_gate(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        with pytest.raises(SmallnessViolated):
            build_P([ea, eb], 1, TruncationWindow(3, 4))

    def test_single_factor_koszul(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        v = verify_P_koszul([eb, ea], 1, TruncationWindow(4, 4))
        assert v.status == PASS

    def test_two_factor_grid(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        g = zero_eigenmap(alg, F, -4)
        w = TruncationWindow(2, 4)
        assert verify_P_koszul([g, eb, ea], 2, w).status == PASS
        assert verify_P_koszul([g, eb, ea], 2, w,
                               zero_partial=True).status == FAIL

    def test_two_factor_reorder_agrees_on_the_window(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        g = zero_eigenmap(alg, F, -4)
        w = TruncationWindow(2, 4)
        P12 = build_P([g, eb, ea], 2, w, ordering=[0, 1])
        P21 = build_P([g, eb, ea], 2, w, ordering=[1, 0])
        assert P12.kind == "tensor" and P12.period_shift == 2
        r1 = minimize(window_restrict(P12.complex, P12.window)).minimal
        r2 = minimize(window_restrict(P21.complex, P21.window)).minimal
        assert dims(r1) == dims(r2)

    def test_three_factor_grid_is_out_of_scope(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        g = zero_eigenmap(alg, F, -4)
        g2 = zero_eigenmap(alg, F, 2)
        with pytest.raises(NotImplementedError):
            verify_P_koszul([g, eb, ea, g2], 1, TruncationWindow(2, 4))


class TestEigenaction:
    def test_same_index_is_trivial(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        v = verify_eigenaction([eb, ea], 1, TruncationWindow(5, 8),
                               all_certs(), j=1)
        assert v.status == PASS

    def test_certificates_are_required(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        v = verify_eigenaction([eb, ea], 1, TruncationWindow(5, 8))
        assert v.status == INCONCLUSIVE

    def test_periodicity_matches_the_scalar_action(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        v = verify_eigenaction([eb, ea], 1, TruncationWindow(5, 8),
                               all_certs(), j=0)
        assert v.status == PASS

    @pytest.mark.parametrize("ring,w", [(F2, TruncationWindow(5, 8)),
                                        (Z, TruncationWindow(3, 8))],
                             ids=["f2", "z"])
    def test_witness_bounds_the_compared_maps_on_the_window(self, ring, w):
        alg, A, one, F, ea, eb = eigenmaps(ring)
        v = verify_eigenaction([eb, ea], 1, w, all_certs(), j=0)
        assert v.status == PASS and set(v.witness) == {0}
        tp = build_Cba(ea, eb, w)
        compared = tensor_maps(eb.map, identity_map(tp.complex)) \
            - tensor_maps(ea.map, periodicity_map(tp))
        lo, hi = window_bounds(compared.tgt, w)
        h = v.witness[0]
        assert h.src == compared.src and h.tgt == compared.tgt and lo <= hi
        assert any(not compared.comp(d).is_zero() for d in range(lo, hi + 1))
        assert all(bracket(h).comp(d) == compared.comp(d)
                   for d in range(lo, hi + 1))

    @pytest.mark.parametrize("m,w", [(2, TruncationWindow(8, 4)),
                                     (4, TruncationWindow(6, 4))],
                             ids=["m2", "m4"])
    def test_below_is_judged_inside_its_own_cut(self, m, w):
        # a truncation below is cut at its top: the homology compared
        # across depths must leave out the cut degree there, not at the
        # bottom
        _, _, _, _, ea, eb = cyclic_scenario(F2, m)
        v = verify_eigenaction([eb, ea], 1, w, all_certs(),
                               direction="below", j=0)
        assert v.status == PASS

    def test_zeroed_periodicity_fails(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        v = verify_eigenaction([eb, ea], 1, TruncationWindow(5, 8),
                               all_certs(), j=0, zero_quotient=True)
        assert v.status == FAIL

    def test_over_the_integers_with_sign_control(self):
        alg, A, one, F, ea, eb = eigenmaps(Z)
        certs = all_certs()
        v = verify_eigenaction([eb, ea], 1, TruncationWindow(3, 8),
                               certs, j=0)
        assert v.status == PASS
        v = verify_eigenaction([eb, ea], 1, TruncationWindow(3, 8),
                               certs, j=0, flip=True)
        assert v.status == FAIL


class TestSerialization:
    def test_round_trip(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        tp = build_Cab(ea, eb, TruncationWindow(4, 8))
        blob = json.dumps(truncated_to_json(tp))
        tp2 = truncated_from_json(alg, json.loads(blob))
        assert tp2.complex == tp.complex
        assert tp2.window == tp.window
        assert tp2.period_shift == tp.period_shift
        assert tp2.provenance == tp.provenance
        assert tp2.direction == tp.direction

    def test_round_trip_keeps_the_direction(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        tp = build_Cab(ea, eb, TruncationWindow(3, 4), direction="below")
        blob = json.dumps(truncated_to_json(tp))
        assert truncated_from_json(alg, json.loads(blob)).direction == "below"

    def test_deserialized_builds_have_no_layer_data(self):
        alg, A, one, F, ea, eb = eigenmaps(F2)
        tp = build_Cab(ea, eb, TruncationWindow(3, 4))
        tp2 = truncated_from_json(alg, truncated_to_json(tp))
        with pytest.raises(ValueError):
            periodicity_map(tp2)
