import json
import random

import pytest

from homocat.exactlinalg import PrimeField, Integers, Matrix
from homocat.modulecat import cyclic_algebra, trivial_module
from homocat.complexes import (
    Complex, ChainMap, Homotopy, atom, shift, tensor, tensor_maps,
    identity_map, swap, cone, direct_sum, hom_complex, homology,
    solve_null_homotopy, maps_equal,
)
from homocat.complexes import _hom_bases
from homocat.obstructions import (
    bracket, CommutationCertificate, HomotopyEquationViolated,
    MissingCertificate, z_cycle, bound_cycle, secondary_certificate, w_cycle,
    cones_commute_equivalence, scalar_commutation_defect,
    self_obstruction_certificate, self_obstruction_consequence,
    certificate_to_json, certificate_from_json,
)
from homocat.obstructions import (
    _commutation_defect, cone_assoc_left, cone_assoc_right,
)
from homocat.cli import cyclic_scenario
from test_complexes import worked_example, F2, Z


def rand_hom(rng, src, tgt, deg):
    """Random graded map of the given degree built from a basis of the
    module-map space, so components are honest intertwiners."""
    ring = src.alg.ring
    lo = -2 if not ring.is_field else 0
    hi = 2 if not ring.is_field else ring.p - 1
    comps = {}
    for d, mats in _hom_bases(src, tgt, deg).items():
        m = None
        for b in mats:
            c = b.scale(ring.coerce(rng.randrange(lo, hi + 1)))
            m = c if m is None else m + c
        if m is not None and not m.is_zero():
            comps[d] = m
    return Homotopy(src, tgt, deg, comps)


def zero_hom(src, tgt, deg=-1):
    return Homotopy(src, tgt, deg, {})


def trivial_pair_certificate(f, g):
    hs = (zero_hom(tensor(g.src, f.src), tensor(f.tgt, g.src)),
          zero_hom(tensor(g.tgt, f.src), tensor(f.tgt, g.tgt)))
    ks = (zero_hom(tensor(g.src, f.src), tensor(f.src, g.tgt)),
          zero_hom(tensor(g.src, f.tgt), tensor(f.tgt, g.tgt)))
    cert, v = secondary_certificate(f, g, hs, ks)
    assert v.passed
    return cert


def perturbed_data(ring, seed=5):
    """Twisted identifications phi = swap + [d, u] with the matching h, k in
    closed form; the pair (alpha, alpha) of the standard example."""
    rng = random.Random(seed)
    alg, A, one, F, al, be = worked_example(ring)
    f = g = al
    G = [g.src, g.tgt]
    Fj = [f.src, f.tgt]
    us = {}
    phis = {}
    for i in (0, 1):
        for j in (0, 1):
            u = rand_hom(rng, tensor(G[i], Fj[j]), tensor(Fj[j], G[i]), -1)
            us[(i, j)] = u
            phis[(i, j)] = swap(G[i], Fj[j]) + bracket(u)
    hs = [us[(i, 1)].compose(tensor_maps(identity_map(G[i]), f))
          - tensor_maps(f, identity_map(G[i])).compose(us[(i, 0)])
          for i in (0, 1)]
    ks = [us[(1, j)].compose(tensor_maps(g, identity_map(Fj[j])))
          - tensor_maps(identity_map(Fj[j]), g).compose(us[(0, j)])
          for j in (0, 1)]
    return alg, f, g, hs, ks, phis


class TestCommutationHomotopy:
    @pytest.mark.parametrize("ring", [F2, Z])
    def test_eigenmaps_commute_strictly(self, ring):
        _, _, _, F, al, be = worked_example(ring)
        for a in (al, be):
            assert _commutation_defect(a, F).is_zero()

    def test_twisted_identification_needs_nonzero_h(self):
        alg, f, g, hs, ks, phis = perturbed_data(F2)
        assert any(not h.is_zero() for h in hs)
        z, v = z_cycle(f, g, hs, ks, phis)
        assert v.passed


class TestZCycle:
    @pytest.mark.parametrize("ring", [F2, Z])
    def test_trivial_data_gives_zero_cycle(self, ring):
        _, _, _, F, al, be = worked_example(ring)
        f, g = al, be
        hs = (zero_hom(tensor(g.src, f.src), tensor(f.tgt, g.src)),
              zero_hom(tensor(g.tgt, f.src), tensor(f.tgt, g.tgt)))
        ks = (zero_hom(tensor(g.src, f.src), tensor(f.src, g.tgt)),
              zero_hom(tensor(g.src, f.tgt), tensor(f.tgt, g.tgt)))
        z, v = z_cycle(f, g, hs, ks)
        assert v.passed and z.is_zero()

    def test_non_solution_homotopies_rejected(self):
        _, f, g, hs, ks, phis = perturbed_data(F2)
        e = None
        for seed in range(9, 40):
            cand = rand_hom(random.Random(seed), hs[1].src, hs[1].tgt, -1)
            if not bracket(cand).is_zero():
                e = cand
                break
        assert e is not None
        with pytest.raises(HomotopyEquationViolated):
            z_cycle(f, g, (hs[0], hs[1] + e), ks, phis)

    def test_boundary_perturbation_moves_z_by_boundary(self):
        _, f, g, hs, ks, phis = perturbed_data(F2)
        rng = random.Random(13)
        v0 = rand_hom(rng, hs[0].src, hs[0].tgt, -2)
        z, ver = z_cycle(f, g, hs, ks, phis)
        assert ver.passed
        z2, ver2 = z_cycle(f, g, (hs[0] + bracket(v0), hs[1]), ks, phis)
        assert ver2.passed
        diff = z2 - z
        assert solve_null_homotopy(diff).passed
        assert bound_cycle(z).passed == bound_cycle(z2).passed


class TestBoundCycle:
    def test_zero_cycle_bounded_by_zero(self):
        alg = cyclic_algebra(F2, 2)
        c = atom(trivial_module(alg))
        z = zero_hom(c, c)
        v = bound_cycle(z)
        assert v.passed and v.witness.is_zero()

    def test_unbounded_cycle_detected(self):
        alg = cyclic_algebra(F2, 2)
        one = trivial_module(alg)
        x = atom(one)
        y = shift(atom(one), 1)
        z = Homotopy(x, y, -1, {0: Matrix.identity(F2, 1)})
        assert bracket(z).is_zero()
        assert not bound_cycle(z).passed

    def test_every_cycle_bounded_when_low_hom_homology_vanishes(self):
        _, _, _, F, al, _ = worked_example(F2)
        src = tensor(al.src, al.src)
        tgt = tensor(F, F)
        assert homology(hom_complex(src, tgt)).get(-1, 0) == 0
        rng = random.Random(21)
        for _ in range(5):
            z = bracket(rand_hom(rng, src, tgt, -2))
            assert bracket(z).is_zero()
            assert bound_cycle(z).passed


class TestWCycle:
    @pytest.mark.parametrize("ring", [F2, Z])
    def test_strictly_commuting_map_has_zero_w(self, ring):
        _, _, _, F, al, _ = worked_example(ring)
        h = zero_hom(tensor(al.src, F), tensor(F, F))
        w, v = w_cycle(al, h)
        assert v.passed and w.is_zero()

    def test_unnormalized_h_accepted_and_w_is_cycle(self):
        _, _, _, F, al, be = worked_example(Z)
        hv = solve_null_homotopy(scalar_commutation_defect(be))
        assert hv.passed
        w, v = w_cycle(be, hv.witness)
        assert v.passed

    def test_corrupted_h_rejected(self):
        _, _, _, F, al, _ = worked_example(F2)
        bad = None
        for seed in range(3, 30):
            cand = rand_hom(random.Random(seed),
                            tensor(al.src, F), tensor(F, F), -1)
            if not bracket(cand).is_zero():
                bad = cand
                break
        assert bad is not None
        with pytest.raises(HomotopyEquationViolated):
            w_cycle(al, bad)


class TestConesCommute:
    @pytest.mark.parametrize("ring", [F2, Z])
    def test_standard_eigenmaps(self, ring):
        _, _, _, F, al, be = worked_example(ring)
        cert = trivial_pair_certificate(al, be)
        assert cones_commute_equivalence(al, be, cert).passed

    def test_map_with_itself(self):
        _, _, _, F, al, _ = worked_example(Z)
        cert = trivial_pair_certificate(al, al)
        assert cones_commute_equivalence(al, al, cert).passed

    def test_perturbed_identifications(self):
        _, f, g, hs, ks, phis = perturbed_data(F2)
        rng = random.Random(17)
        hs = [hs[0] + bracket(rand_hom(rng, hs[0].src, hs[0].tgt, -2)),
              hs[1]]
        cert, v = secondary_certificate(f, g, hs, ks, phis)
        assert v.passed
        assert cones_commute_equivalence(f, g, cert, phis).passed

    def test_missing_bounding_homotopy(self):
        _, _, _, F, al, be = worked_example(F2)
        cert = trivial_pair_certificate(al, be)
        stripped = CommutationCertificate(
            cert.subject,
            {n: h for n, h in cert.homotopies.items() if n != "l"},
            [ob for ob in cert.obligations if ob[0] != "l"])
        with pytest.raises(MissingCertificate):
            cones_commute_equivalence(al, be, stripped)


def is_signed_permutation(m):
    units = {m.ring.coerce(1), m.ring.coerce(-1)}
    return (m.rows == m.cols
            and all(len(r) == 1 and set(r.values()) <= units for r in m.data)
            and sorted(j for r in m.data for j in r) == list(range(m.cols)))


class TestConeAssociators:
    """The associators only re-index basis vectors and change signs: every
    component is a signed permutation, and the inverse form undoes the
    forward one on both sides."""

    @pytest.mark.parametrize("ring, m", [(F2, 2), (F2, 4), (Z, 2), (Z, 3)])
    @pytest.mark.parametrize("which", [0, 1])
    def test_signed_permutations_with_two_sided_inverse(self, ring, m, which):
        _, _, _, F, ea, eb = cyclic_scenario(ring, m)
        g = (ea, eb)[which].map
        for X in (F, cone(g)):
            for fwd, inv in ((cone_assoc_left(g, X),
                              cone_assoc_left(g, X, inverse=True)),
                             (cone_assoc_right(X, g),
                              cone_assoc_right(X, g, inverse=True))):
                assert maps_equal(inv.compose(fwd), identity_map(fwd.src))
                assert maps_equal(fwd.compose(inv), identity_map(fwd.tgt))
                for f in (fwd, inv):
                    assert all(is_signed_permutation(f.comp(d))
                               for d in f.src.degrees())


class TestSelfObstruction:
    @pytest.mark.parametrize("ring", [F2, Z])
    @pytest.mark.parametrize("which", [0, 1])
    def test_cone_square_splits(self, ring, which):
        _, _, _, F, al, be = worked_example(ring)
        a = (al, be)[which]
        cert, v = self_obstruction_certificate(a)
        assert v.passed
        assert self_obstruction_consequence(a, cert).passed

    def test_corrupted_bounding_homotopy_fails_with_residue(self):
        _, _, _, F, al, be = worked_example(F2)
        cert, v = self_obstruction_certificate(be)
        assert v.passed
        h = cert.get("h")
        k = cert.get("k")
        noise = None
        for d in k.src.degrees():
            rows = k.tgt.term(d - 2).dim
            cols = k.src.term(d).dim
            if rows and cols:
                e = [F2.zero()] * (rows * cols)
                e[0] = F2.one()
                noise = {d: Matrix(F2, rows, cols, e)}
                break
        assert noise is not None
        bad_k = k + Homotopy(k.src, k.tgt, -2, noise)
        forged = CommutationCertificate(("map",), {"h": h, "k": bad_k}, [])
        verdict = self_obstruction_consequence(be, forged)
        assert not verdict.passed
        assert "equation" in (verdict.reason or "")


class TestCertificateSerialization:
    def test_round_trip_reverifies(self):
        alg, _, _, F, al, be = worked_example(Z)
        cert, v = self_obstruction_certificate(be)
        assert v.passed
        blob = json.dumps(certificate_to_json(cert))
        back = certificate_from_json(alg, json.loads(blob))
        assert back.passed
        assert back.subject == cert.subject
        for name in cert.homotopies:
            assert maps_equal(back.get(name), cert.get(name))

    def test_corrupted_payload_rejected_on_load(self):
        alg, _, _, F, al, be = worked_example(Z)
        cert, _ = self_obstruction_certificate(be)
        data = certificate_to_json(cert)
        hobj = data["homotopies"]["h"]
        deg = sorted(hobj["comps"])[0]
        entries = hobj["comps"][deg]["entries"]
        entries[0] = str(int(entries[0]) + 1)
        with pytest.raises(HomotopyEquationViolated):
            certificate_from_json(alg, data)
