import pytest

from homocat.exactlinalg import PrimeField, Rationals, Integers, Matrix
from homocat.modulecat import cyclic_algebra, regular_module, trivial_module
from homocat.complexes import (
    Complex, ChainMap, atom, shift, cone, cone_inclusion, homology,
    identity_map, maps_equal, minimize, PASS, FAIL,
)
from homocat.convolutions import (
    Poset, TwistedComplex, validate, tot, simplify_layers,
    zigzag_twisted, zigzag_tot,
    CurvatureViolation, InvalidRetract, NotAChainMap,
)

from test_complexes import worked_example, M

F2 = PrimeField(2)
Q = Rationals()
Z = Integers()


def cone_twisted(f):
    """The cone of f presented as a two-layer twisted complex."""
    p = Poset([0, 1], {(0, 1)})
    layers = {0: shift(f.src, 1), 1: f.tgt}
    comps = {d: f.comp(d + 1) for d in layers[0].degrees()
             if not f.comp(d + 1).is_zero()}
    cross = {(1, 0): ChainMap(layers[0], layers[1], 1, comps, check=False)}
    return TwistedComplex(p, layers, cross)


def perm_iso(c1, c2, images):
    """Chain iso permuting standard basis vectors: images[d][k] is the index
    in c2.term(d) of the k-th basis vector of c1.term(d)."""
    ring = c1.alg.ring
    comps = {}
    for d, img in images.items():
        rows = c2.term(d).dim
        ent = [[0] * len(img) for _ in range(rows)]
        for k, i in enumerate(img):
            ent[i][k] = 1
        comps[d] = Matrix.from_rows(ring, ent)
    return ChainMap(c1, c2, 0, comps)


class TestPoset:
    def test_requires_transitivity(self):
        with pytest.raises(ValueError):
            Poset([0, 1, 2], {(0, 1), (1, 2)})

    def test_requires_antisymmetry(self):
        with pytest.raises(ValueError):
            Poset([0, 1], {(0, 1), (1, 0)})

    def test_linear_extension_diamond(self):
        p = Poset(["a", "b", "c", "d"],
                  {("a", "b"), ("a", "c"), ("a", "d"), ("b", "d"), ("c", "d")})
        assert p.linear_extension() == ["a", "b", "c", "d"]


class TestValidateAndTot:
    def test_cone_as_twisted_matches_cone(self):
        _, A, one, F, alpha, _ = worked_example(F2)
        t = cone_twisted(alpha)
        assert validate(t).passed
        c = tot(t)
        assert c == cone(alpha)

    def test_chain_twisted_totals_back(self):
        _, A, one, F, _, _ = worked_example(F2)
        t = chain_twisted(F)
        assert validate(t).passed
        assert tot(t, order=[0, 1, 2]) == F

    def test_validate_catches_broken_square(self):
        _, A, one, F, alpha, _ = worked_example(F2)
        t = chain_twisted(F)
        # the identity is an intertwiner A -> A but breaks the length-2 sums
        bad = dict(t.cross)
        bad[(1, 0)] = ChainMap(t.layers[0], t.layers[1], 1,
                               {0: Matrix.identity(F2, 2)}, check=False)
        t2 = TwistedComplex(t.poset, t.layers, bad)
        v = validate(t2)
        assert not v.passed and "Maurer-Cartan" in v.reason
        # tot names the failing pair (2, 0) and degree 0, as validate does
        with pytest.raises(CurvatureViolation, match=r"\(2,0,0\)"):
            tot(t2)

    def test_validate_catches_non_intertwiner(self):
        _, A, one, F, alpha, _ = worked_example(F2)
        t = chain_twisted(F)
        bad = dict(t.cross)
        bad[(1, 0)] = ChainMap(t.layers[0], t.layers[1], 1,
                               {0: M(F2, [[1, 0], [0, 0]])}, check=False)
        v = validate(TwistedComplex(t.poset, t.layers, bad))
        assert not v.passed and "intertwiner" in v.reason

    def test_cross_map_must_follow_order(self):
        _, A, one, F, alpha, _ = worked_example(F2)
        t = cone_twisted(alpha)
        with pytest.raises(ValueError):
            TwistedComplex(t.poset, t.layers,
                           {(0, 1): ChainMap(t.layers[1], t.layers[0], 1, {},
                                             check=False)})


def chain_twisted(F):
    """A complex re-expressed as a twisted complex of its terms."""
    degs = list(F.degrees())
    p = Poset(degs, {(a, b) for a in degs for b in degs if a <= b})
    layers = {d: atom(F.term(d), d) for d in degs}
    cross = {}
    for d in degs[:-1]:
        cross[(d + 1, d)] = ChainMap(layers[d], layers[d + 1], 1,
                                     {d: F.diff(d)}, check=False)
    return TwistedComplex(p, layers, cross)


class TestSimplifyLayers:
    def test_transfers_across_contractible_layer(self):
        # over Q the cone of alpha is contractible, so after simplification
        # that layer vanishes and only the other layer survives
        _, A, one, F, alpha, _ = worked_example(Q)
        ca = cone(alpha)
        iota = cone_inclusion(alpha, ca)
        t = zigzag_twisted([ca, F], [iota])
        res = simplify_layers(t)
        assert validate(res.twisted).passed
        assert res.twisted.layers[0].is_zero()
        assert res.total.total_dim() < tot(t).total_dim()
        assert maps_equal(res.proj.compose(res.incl),
                          identity_map(res.total))
        assert homology(res.total) == homology(tot(t))

    def test_nontrivial_transferred_differential(self):
        # over F2 nothing is contractible here; the transferred cross map
        # must reproduce the homology of the original total complex
        _, A, one, F, alpha, _ = worked_example(F2)
        ca = cone(alpha)
        iota = cone_inclusion(alpha, ca)
        t = zigzag_twisted([ca, F], [iota])
        res = simplify_layers(t)
        assert validate(res.twisted).passed
        assert homology(res.total) == homology(tot(t))

    def test_rejects_bogus_retract(self):
        _, A, one, F, alpha, _ = worked_example(Q)
        ca = cone(alpha)
        iota = cone_inclusion(alpha, ca)
        t = zigzag_twisted([ca, F], [iota])
        retracts = {lab: minimize(t.layers[lab]) for lab in (0, 1)}

        class Bogus:
            pass

        b = Bogus()
        mr = retracts[1]
        b.minimal, b.incl, b.proj, b.h = (mr.minimal, mr.incl,
                                          mr.proj.scale(2), mr.h)
        retracts[1] = b
        with pytest.raises(InvalidRetract):
            simplify_layers(t, retracts=retracts)


class TestZigzag:
    def test_single_pair_is_cone(self):
        _, A, one, F, alpha, _ = worked_example(F2)
        z = zigzag_tot([F, atom(one)], [alpha])
        c = cone(alpha)
        assert {d: z.term(d).dim for d in z.degrees()} == \
            {d: c.term(d).dim for d in c.degrees()}
        # explicit permutation iso: z lists F first, the cone lists unit[1]
        images = {}
        for d in z.degrees():
            fd = F.term(d).dim
            ud = shift(atom(one), 1).term(d).dim
            images[d] = [ud + k for k in range(fd)] + list(range(ud))
        g = perm_iso(z, c, images)
        ginv = perm_iso(c, z, {d: sorted(range(len(img)),
                                         key=lambda k: img[k])
                               for d, img in images.items()})
        assert maps_equal(g.compose(ginv), identity_map(c))
        assert maps_equal(ginv.compose(g), identity_map(z))

    def test_four_layer_zigzag(self):
        _, A, one, F, alpha, _ = worked_example(F2)
        u = atom(one)
        z = zigzag_tot([F, u, F, u], [alpha, alpha, alpha])
        dims = {d: z.term(d).dim for d in z.degrees()}
        assert dims == {-1: 2, 0: 4, 1: 4, 2: 2}

    def test_rejects_wrong_source(self):
        _, A, one, F, alpha, _ = worked_example(F2)
        with pytest.raises(NotAChainMap):
            zigzag_twisted([atom(one), F], [alpha])

    def test_rejects_wrong_degree(self):
        _, A, one, F, alpha, _ = worked_example(F2)
        h = ChainMap(atom(one), F, 1, {}, check=False)
        with pytest.raises(NotAChainMap):
            zigzag_twisted([F, atom(one)], [h])

    def test_zero_head_layer(self):
        alg, A, one, F, alpha, _ = worked_example(F2)
        from homocat.complexes import zero_complex
        z = zigzag_tot([zero_complex(alg), atom(one)], [None])
        assert z.term(-1).dim == 1 and z.total_dim() == 1
