"""End-to-end acceptance suite.

One test per headline guarantee of the package, each issuing a single
pass/fail verdict.  Heavy shared objects (truncated projectors at two
depths, bounding-homotopy certificates) are built once per module.  The
exhaustive versions of the property checks in the final test live in the
per-module test files; here each family is exercised in representative
form so the whole contract is visible in one place.
"""

import random

import pytest

from homocat.exactlinalg import (
    PrimeField, Rationals, Integers, Matrix, kernel, rref,
)
from homocat.modulecat import cyclic_algebra, regular_module, trivial_module
from homocat.complexes import (
    Complex, ChainMap, Homotopy, Verdict, PASS, FAIL,
    atom, shift, tensor, swap, cone, homology, hom_complex,
    identity_map, zero_map, minimize, equivalent, restrict, maps_equal,
    direct_sum, is_contractible,
)
from homocat.convolutions import (
    Poset, TwistedComplex, tot, reassociate, reassociation_order,
    sections_analysis, validate,
)
from homocat.eigen import (
    ScalarShift, Eigenmap, check_PD1, check_PD2, check_PD3_capped,
)
from homocat.interpolation import (
    TruncationWindow, build_Cab, build_Cba, periodicity_map,
    window_restrict, window_bounds,
    verify_compact_description, verify_P_koszul, build_P, verify_eigenaction,
)
from homocat.diagonalize import (
    verify_orthogonality, verify_idempotence,
    verify_decomposition_of_identity,
)
from homocat.obstructions import (
    z_cycle, bound_cycle, w_cycle, secondary_certificate,
    cones_commute_equivalence, self_obstruction_certificate,
    self_obstruction_consequence,
)
from homocat.cli import cyclic_scenario, run_scenario

F2 = PrimeField(2)
Q = Rationals()
Z = Integers()


def M(ring, rows):
    return Matrix.from_rows(ring, rows)


def zero_hom(src, tgt):
    return Homotopy(src, tgt, -1, {})


def pair_certificate(f, g):
    """Commutation certificate for a pair whose eigencones commute strictly
    (all four bounding homotopies are zero)."""
    hs = (zero_hom(tensor(g.src, f.src), tensor(f.tgt, g.src)),
          zero_hom(tensor(g.tgt, f.src), tensor(f.tgt, g.tgt)))
    ks = (zero_hom(tensor(g.src, f.src), tensor(f.src, g.tgt)),
          zero_hom(tensor(g.src, f.tgt), tensor(f.tgt, g.tgt)))
    cert, v = secondary_certificate(f, g, hs, ks)
    assert v.passed
    return cert


@pytest.fixture(scope="module")
def f2_scene():
    return cyclic_scenario(F2, 2)


@pytest.fixture(scope="module")
def z_scene():
    return cyclic_scenario(Z, 2)


@pytest.fixture(scope="module")
def f2_projectors(f2_scene):
    """Pb and Pa truncated at depths 12 and 14 over the two-element field."""
    _, _, _, _, ea, eb = f2_scene
    out = {}
    for depth in (12, 14):
        w = TruncationWindow(depth, 4)
        out[depth] = (w, build_P([eb, ea], 0, w), build_P([eb, ea], 1, w))
    return out


@pytest.fixture(scope="module")
def f2_certificates(f2_scene):
    _, _, _, _, ea, eb = f2_scene
    ca, va = self_obstruction_certificate(ea.map)
    cb, vb = self_obstruction_certificate(eb.map)
    assert va.passed and vb.passed
    return {("w", 0): cb, ("w", 1): ca,
            ("z", 0, 1): pair_certificate(eb.map, ea.map)}


@pytest.fixture(scope="module")
def z_certificates(z_scene):
    _, _, _, _, ea, eb = z_scene
    ca, va = self_obstruction_certificate(ea.map)
    cb, vb = self_obstruction_certificate(eb.map)
    assert va.passed and vb.passed
    return {("w", 0): cb, ("w", 1): ca,
            ("z", 0, 1): pair_certificate(eb.map, ea.map)}


def test_criterion_1_prediagonalizability(f2_scene, z_scene):
    """Both eigencone orders tensor to zero, the single cones are acyclic
    but not contractible, and every surjective tensor word up to length 4
    vanishes, over the integers and the two-element field."""
    for scene in (f2_scene, z_scene):
        _, _, _, _, ea, eb = scene
        assert check_PD1([eb, ea]).passed
        assert check_PD2([eb, ea]).passed
    _, _, _, _, ea, eb = f2_scene
    assert check_PD3_capped([eb, ea], max_length=4).passed
    _, _, _, _, ea, eb = z_scene
    certs = {(0, 1): pair_certificate(eb.map, ea.map)}
    assert check_PD3_capped([eb, ea], max_length=4,
                            certificates=certs).passed


def test_criterion_2_projector_form(f2_scene, f2_projectors):
    """The minimized truncated projector has the trivial module on top and
    one copy of the regular module per interior degree, joined by the unique
    nonzero non-invertible intertwiner (x+1 up to unit in characteristic
    two), alternating down the window."""
    w, Pb, _ = f2_projectors[12]
    r = minimize(window_restrict(Pb.complex, w)).minimal
    degs = sorted(d for d in r.degrees() if r.term(d).dim)
    top = max(degs)
    assert r.term(top).dim == 1
    assert r.term(top).x_action.is_identity()
    interior = [d for d in degs if d != top]
    assert interior == list(range(top - len(interior), top))
    for d in interior:
        t = r.term(d)
        assert t.dim == 2  # one copy of the regular module
        D = r.diff(d)
        assert not D.is_zero()
        assert r.term(d + 1).x_action * D == D * t.x_action \
            or d + 1 == top
        if d + 1 != top:
            assert rref(D).rank == 1  # not invertible: x+1 up to unit


def test_criterion_3_orthogonality_and_idempotence(f2_projectors):
    """Products of distinct projectors are contractible on the stable
    window at depths 12 and 14 (both must agree), and the projector squares
    to itself."""
    for depth in (12, 14):
        _, Pb, Pa = f2_projectors[depth]
        assert verify_orthogonality([Pa, Pb]).status == PASS
    _, Pb, _ = f2_projectors[12]
    assert verify_idempotence(Pb).status == PASS


def test_criterion_4_decomposition_of_identity(f2_projectors):
    """The canonical convolution of the two projectors minimizes to the
    monoidal unit on the stable window, at two depths."""
    for depth in (12, 14):
        _, Pb, Pa = f2_projectors[depth]
        assert verify_decomposition_of_identity([Pb, Pa]).status == PASS


def test_criterion_5_periodicity(f2_scene, f2_projectors):
    """The cone of the periodicity map on each interpolation complex is the
    matching eigencone, up to the predicted shift, on the stable window."""
    _, _, _, _, ea, eb = f2_scene
    w, _, _ = f2_projectors[12]
    for build, e, sh in ((build_Cab, ea, 2), (build_Cba, eb, 0)):
        tp = build(ea, eb, w)
        u = periodicity_map(tp)
        lo, hi = window_bounds(tp.complex, w)
        r = minimize(restrict(cone(u), lo, hi)).minimal
        expect = shift(cone(e.map), sh)
        got = {d: r.term(d).dim for d in r.degrees()
               if r.term(d).dim and lo < d <= hi}
        want = {d: expect.term(d).dim for d in expect.degrees()
                if expect.term(d).dim and lo < d <= hi}
        assert got == want


def test_criterion_6_koszul_reconstructions(f2_scene):
    """The zigzag totals match their compact descriptions entrywise, and
    the projector matches its grid-of-cones rebuild; zeroing the partial
    operators makes both comparisons fail."""
    _, _, _, _, ea, eb = f2_scene
    w = TruncationWindow(4, 4)
    for kind in ("Cab", "Cba"):
        assert verify_compact_description(ea, eb, w, kind).status == PASS
        assert verify_compact_description(ea, eb, w, kind,
                                          zero_partial=True).status == FAIL
    assert verify_P_koszul([eb, ea], 1, w).status == PASS
    assert verify_P_koszul([eb, ea], 1, w, zero_partial=True).status == FAIL


def test_criterion_7_eigenaction(f2_scene, f2_certificates,
                                 z_scene, z_certificates):
    """The periodicity map realizes the scalar action: the two induced maps
    differ by a boundary on the stable window (verified at two depths by
    the checker), given bounding-homotopy certificates.  The sign-flipped
    control build fails over the integers (in characteristic two the flip
    is invisible, so the control is only meaningful where signs matter)."""
    _, _, _, _, ea, eb = f2_scene
    assert verify_eigenaction([eb, ea], 1, TruncationWindow(5, 8),
                              f2_certificates, j=0).status == PASS
    _, _, _, _, ea, eb = z_scene
    assert verify_eigenaction([eb, ea], 1, TruncationWindow(3, 8),
                              z_certificates, j=0).status == PASS
    assert verify_eigenaction([eb, ea], 1, TruncationWindow(3, 8),
                              z_certificates, j=0, flip=True).status == FAIL


def test_criterion_8_obstruction_pipeline(f2_scene, z_scene,
                                          f2_certificates, z_certificates):
    """The two obstruction cycles assemble, are cycles, and bound; the
    explicit equivalence commuting the eigencones and the splitting of each
    cone square verify over the two-element field and the integers."""
    for certs, scene in ((f2_certificates, f2_scene),
                         (z_certificates, z_scene)):
        _, _, _, F, ea, eb = scene
        f, g = eb.map, ea.map
        hs = (zero_hom(tensor(g.src, f.src), tensor(f.tgt, g.src)),
              zero_hom(tensor(g.tgt, f.src), tensor(f.tgt, g.tgt)))
        ks = (zero_hom(tensor(g.src, f.src), tensor(f.src, g.tgt)),
              zero_hom(tensor(g.src, f.tgt), tensor(f.tgt, g.tgt)))
        z, vz = z_cycle(f, g, hs, ks)
        assert vz.passed          # z is a cycle
        assert bound_cycle(z).passed
        h = zero_hom(tensor(ea.map.src, F), tensor(F, F))
        wv, vw = w_cycle(ea, h)
        assert vw.passed          # w is a cycle
        assert bound_cycle(wv).passed
        assert cones_commute_equivalence(f, g, certs[("z", 0, 1)]).passed
        assert self_obstruction_consequence(ea.map, certs[("w", 1)]).passed
        assert self_obstruction_consequence(eb.map, certs[("w", 0)]).passed


def test_criterion_9_non_examples():
    """The square root, tensored with itself, recovers the three-term
    complex; the two sign-twisted ladders are genuinely inequivalent; and
    the weak eigenobject has no realizing eigenmap, documented by the
    vanishing of degree-zero maps out of the unit up to homotopy."""
    alg = cyclic_algebra(Q, 2)
    A = regular_module(alg)
    one = trivial_module(alg)
    xm1 = A.x_action - Matrix.identity(Q, 2)
    xp1 = A.x_action + Matrix.identity(Q, 2)
    aug = M(Q, [[1, 1]])
    F = Complex(alg, 0, [A, A, one], [xm1, aug])
    G = Complex(alg, 0, [A, one], [aug])
    X = Complex(alg, 0, [A, A], [xp1])
    Y = Complex(alg, 0, [A, A], [xm1])
    assert equivalent(tensor(G, G), F).status == PASS
    v = equivalent(X, Y)
    assert v.status == FAIL and "indecomposable" in v.reason
    # the square root sends one ladder to the other,
    assert equivalent(tensor(G, X), Y).status == PASS
    # and fixes the regular module: a weak eigenobject with eigenvalue the
    # ground ring ...
    assert equivalent(tensor(G, atom(A)), atom(A)).status == PASS
    # ... yet H^0 Hom(1, G) = 0: every degree-zero chain map from the unit
    # is null-homotopic, so no eigenmap realizes it.
    report = homology(hom_complex(atom(one), G))
    assert report.get(0, 0) == 0
    assert homology(hom_complex(G, atom(one))).get(0, 0) == 0


def test_criterion_10_integers_and_mixed_demos():
    """Eigenobject verdicts on the torsion models match modular
    invertibility, the interpolating object of the mixed pair is
    contractible, and the cone-closure counterexample is not split."""
    for demo, want_ids in (
            ("integers", {"modular_verdicts", "nilpotent_control",
                          "locus_fusion"}),
            ("mixed", {"lambda_contractible", "split_model",
                       "cone_closure_control"})):
        report = run_scenario({"demo": demo})
        got = {rec["id"]: rec["status"] for rec in report["checks"]}
        assert set(got) == want_ids
        assert all(s == PASS for s in got.values())


def test_criterion_11_property_suites():
    """Representative exact property checks; the exhaustive versions run in
    the per-module suites of the same test session."""
    # d^2 = 0 holds after every constructor: 200 seeded random builds
    # (asserted on construction and re-checked here).
    rng = random.Random("acceptance-builds")
    alg = cyclic_algebra(F2, 2)
    A = regular_module(alg)
    one = trivial_module(alg)
    xm1 = A.x_action - Matrix.identity(F2, 2)
    aug = M(F2, [[1, 1]])
    F = Complex(alg, 0, [A, A, one], [xm1, aug])
    al = ChainMap(atom(one), F, 0, {0: M(F2, [[1], [1]])})
    pool = [F, atom(A), atom(one), cone(al)]
    for _ in range(200):
        op = rng.randrange(4)
        if op == 0:
            c = tensor(rng.choice(pool), rng.choice(pool))
        elif op == 1:
            c = shift(rng.choice(pool), rng.randrange(-2, 3))
        elif op == 2:
            c = direct_sum(rng.choice(pool), rng.choice(pool))
        else:
            c = cone(identity_map(rng.choice(pool)))
        for d in c.degrees():
            assert (c.diff(d + 1) * c.diff(d)).is_zero()
        if c.total_dim() <= 24:
            pool.append(c)

    # the braiding on the shifted unit squared is minus the identity
    s1 = shift(atom(trivial_module(cyclic_algebra(Z, 1))), 1)
    b = swap(s1, s1)
    assert maps_equal(b, identity_map(tensor(s1, s1)).scale(
        Z.coerce(-1)))

    # homology is invariant under minimization, and the retract identities
    # hold exactly
    for c in (F, cone(al), tensor(F, F)):
        mr = minimize(c)
        assert homology(mr.minimal) == homology(c)
        assert maps_equal(mr.proj.compose(mr.incl),
                          identity_map(mr.minimal))
        defect = identity_map(c) - mr.incl.compose(mr.proj)
        boundary = ChainMap(
            c, c, 0,
            {d: mr.h.comp(d + 1) * c.diff(d) + c.diff(d - 1) * mr.h.comp(d)
             for d in c.degrees()}, check=False)
        assert maps_equal(defect, boundary)

    # totalization commutes with reassociation
    degs = list(F.degrees())
    p = Poset(degs, {(a, b) for a in degs for b in degs if a <= b})
    layers = {d: atom(F.term(d), d) for d in degs}
    cross = {(d + 1, d): ChainMap(layers[d], layers[d + 1], 1,
                                  {d: F.diff(d)}, check=False)
             for d in degs[:-1]}
    t = TwistedComplex(p, layers, cross)
    for blocks in ([[0], [1], [2]], [[0, 1], [2]], [[0], [1, 2]]):
        r = reassociate(t, blocks)
        assert validate(r).passed
        assert tot(r) == tot(t, order=reassociation_order(t, blocks))

    # the section-partition law, spot-checked on a chain and a diamond
    p3 = Poset([1, 2, 3], {(1, 2), (2, 3), (1, 3)})
    rep = sections_analysis(p3, [1, 2, 3])
    assert rep["partition_ok"] and rep["num_sections"] == 8
    pd = Poset("abcd", {("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"),
                        ("c", "d")})
    rep = sections_analysis(pd, ["a", "b", "d"])
    assert rep["partition_ok"]

    # normal-form round trips on seeded matrices over each ring
    from homocat.exactlinalg import hnf, snf
    rng = random.Random("acceptance-nf")
    for ring in (F2, Q, Z):
        for _ in range(25):
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
            m = Matrix.from_rows(ring, [
                [ring.coerce(rng.randrange(-9, 10)) for _ in range(cols)]
                for _ in range(rows)])
            if ring.is_field:
                r = rref(m)
                assert (m * kernel(m)).is_zero()
                assert r.rank + kernel(m).cols == m.cols
            else:
                h, u = hnf(m)
                assert u * m == h
                d, s, tt = snf(m)
                assert s * m * tt == d
