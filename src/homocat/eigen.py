"""Eigenmaps, eigenobject tests, prediagonalizability checks, eigen-locus
fusion experiments, and mixed eigencones."""

from itertools import permutations, product

import random

from .exactlinalg import Matrix, matrix_to_json, matrix_from_json
from .modulecat import trivial_module
from .complexes import (
    Complex, ChainMap, Homotopy, Verdict, PASS, FAIL, INCONCLUSIVE,
    atom, shift, direct_sum, tensor, tensor_maps, cone, homology,
    is_contractible, identity_map, minimize, maps_equal,
    bracket, _Unknowns,
)
from .convolutions import Poset, TwistedComplex, tot, CurvatureViolation


class ScalarMismatch(Exception):
    pass


class CompositeNotKilled(Exception):
    pass


class ScalarShift:
    """The invertible scalar object: the unit placed in homological degree n."""

    __slots__ = ("n",)

    def __init__(self, n):
        self.n = int(n)

    def is_small(self, direction="above"):
        """Whether geometric series in this scalar converge: in the
        bounded-above regime the shift must be strictly positive."""
        if direction == "above":
            return self.n > 0
        if direction == "below":
            return self.n < 0
        raise ValueError("direction must be 'above' or 'below'")

    def complex(self, alg):
        return shift(atom(trivial_module(alg)), self.n)

    def __eq__(self, other):
        return isinstance(other, ScalarShift) and self.n == other.n

    def __hash__(self):
        return hash(("ScalarShift", self.n))

    def __repr__(self):
        return f"ScalarShift({self.n})"


class Eigenmap:
    """A chain map from a shifted unit into the operator complex F."""

    __slots__ = ("scalar", "map")

    def __init__(self, scalar, map):
        self.scalar = scalar
        self.map = map
        src = map.src
        alg = map.tgt.alg
        want = scalar.complex(alg)
        if src != want:
            raise ValueError("eigenmap source must be the unit shifted by "
                             f"{scalar.n}")

    def scale(self, c):
        return Eigenmap(self.scalar, self.map.scale(c))


def combine_eigenmaps(a1, a2, c1, c2):
    """c1*a1 + c2*a2; both maps must share scalar and target."""
    if a1.scalar != a2.scalar:
        raise ScalarMismatch("eigenmaps have different scalar sources")
    if a1.map.tgt != a2.map.tgt:
        raise ScalarMismatch("eigenmaps have different targets")
    return Eigenmap(a1.scalar, a1.map.scale(c1) + a2.map.scale(c2))


def eigencone(a):
    return cone(a.map)


def _reduce_if_field(c):
    if c.alg.ring.is_field:
        return minimize(c, retract=False).minimal
    return c


_contractible_cache = {}


def _contractible(c):
    """Contractibility test; over a field, simplify first (the verdict is a
    homotopy invariant and the simplification is an exact retract).
    Verdicts are memoized by complex value."""
    c2 = _reduce_if_field(c)
    if c2.is_zero():
        return Verdict(PASS, witness=None)
    v = _contractible_cache.get(c2)
    if v is None:
        v = is_contractible(c2)
        _contractible_cache[c2] = v
    return v


def is_eigenobject(a, m):
    """PASS iff Cone(a) (x) M is contractible."""
    if isinstance(m, Complex):
        mc = m
    else:
        mc = atom(m)
    return _contractible(tensor(eigencone(a), mc))


def _word_product(cones, word):
    """Left-fold tensor product of the cones selected by the word, reducing
    over a field after each step."""
    p = cones[word[0]]
    for k in word[1:]:
        p = _reduce_if_field(tensor(p, cones[k]))
    return p


def _word_contractible(cones, word):
    """Contractibility of a tensor word.  Over a field the reduced fold
    settles it.  Otherwise, contract an adjacent pair directly and extend the
    contraction across the remaining factors, verifying the homotopy identity
    on the full product exactly."""
    ring = cones[word[0]].alg.ring
    if ring.is_field or len(word) <= 2:
        return _contractible(_word_product(cones, word))
    for i in range(len(word) - 1):
        pair = tensor(cones[word[i]], cones[word[i + 1]])
        v = _contractible(pair)
        if not v.passed:
            continue
        h = v.witness
        cur = pair
        for k in word[i + 2:]:
            fac = cones[k]
            h = tensor_maps(h, identity_map(fac))
            cur = tensor(cur, fac)
        for k in reversed(word[:i]):
            fac = cones[k]
            h = tensor_maps(identity_map(fac), h)
            cur = tensor(fac, cur)
        hh = Homotopy(cur, cur, -1, h.comps)
        assert maps_equal(bracket(hh), identity_map(cur)), \
            "extended contraction failed its exact check"
        return Verdict(PASS, witness=hh)
    return _contractible(_word_product(cones, word))


def check_PD1(maps):
    """Full tensor product of all eigencones is contractible, for every
    ordering.  A PASS carries {ordering: contraction}, as
    _word_contractible found it (over a field, of the reduced product; None
    when that is zero)."""
    if len(maps) > 6:
        raise ValueError("at most 6 eigenmaps")
    cones = [eigencone(a) for a in maps]
    idx = list(range(len(maps)))
    orders = list(permutations(idx))
    witness = {}
    for word in orders:
        v = _word_contractible(cones, word)
        if not v.passed:
            return Verdict(FAIL,
                           reason=f"ordering {word} is not contractible")
        witness[word] = v.witness
    return Verdict(PASS, witness=witness,
                   reason=f"{len(orders)} ordering(s) checked")


def check_PD2(maps):
    """Minimality: no proper nonempty subset already tensors to zero."""
    cones = [eigencone(a) for a in maps]
    n = len(maps)
    for mask in range(1, 2 ** n - 1):
        word = tuple(i for i in range(n) if mask & (1 << i))
        v = _word_contractible(cones, word)
        if v.passed:
            return Verdict(FAIL,
                           reason=f"proper subset {word} already vanishes")
    return Verdict(PASS)


def _surjective_words(n, max_length):
    for length in range(n, max_length + 1):
        for word in product(range(n), repeat=length):
            if len(set(word)) == n:
                yield word


def check_PD3_capped(maps, max_length=None, certificates=None):
    """Every surjective tensor word up to the cap is contractible.

    With commutation certificates on file (one verdict per unordered pair of
    eigencones, each PASS), only the orderings of the full set need checking;
    otherwise all surjective words up to the cap are enumerated.  The verdict
    reason records the protocol, since the full quantifier is infinite.
    """
    n = len(maps)
    if max_length is None:
        max_length = n + 2
    cones = [eigencone(a) for a in maps]
    if certificates is not None:
        for key, cert in certificates.items():
            if not cert.passed:
                return Verdict(FAIL,
                               reason=f"commutation certificate {key} failed")
        for i in range(n):
            for j in range(i + 1, n):
                if (i, j) not in certificates and (j, i) not in certificates:
                    raise ValueError(f"missing certificate for pair ({i},{j})")
        words = list(permutations(range(n)))
        label = f"{len(words)} orderings via commutation certificates"
    else:
        words = list(_surjective_words(n, max_length))
        label = f"{len(words)} surjective words of length <= {max_length}"
    for word in words:
        v = _word_contractible(cones, word)
        if not v.passed:
            return Verdict(FAIL, reason=f"word {word} is not contractible")
    return Verdict(PASS, reason=label)


def eigen_locus(a1, a2, test_objects, samples=8, seed=0):
    """Admissible coefficient pairs (c1, c2) per test object, with the fusion
    law U_{M (+) N} = U_M intersect U_N verified on every tested pair.

    Over a prime field all nonzero pairs are enumerated; otherwise the axes
    plus a seeded sample of small integer pairs are tested.
    """
    if a1.scalar != a2.scalar or a1.map.tgt != a2.map.tgt:
        raise ScalarMismatch("eigen_locus needs a shared scalar and target")
    ring = a1.map.tgt.alg.ring
    if ring.kind == "fp":
        combos = [(c1, c2) for c1 in range(ring.p) for c2 in range(ring.p)
                  if (c1, c2) != (0, 0)]
    else:
        rng = random.Random(seed)
        combos = [(1, 0), (0, 1), (1, 1)]
        while len(combos) < 3 + samples:
            c = (rng.randint(-3, 3), rng.randint(-3, 3))
            if c != (0, 0) and c not in combos:
                combos.append(c)

    def locus(mc):
        out = set()
        for (c1, c2) in combos:
            a = combine_eigenmaps(a1, a2, ring.coerce(c1), ring.coerce(c2))
            if is_eigenobject(a, mc).passed:
                out.add((c1, c2))
        return out

    per_object = {}
    for name, mc in test_objects:
        per_object[name] = locus(mc)
    fusion_ok = True
    checked = []
    names = [name for name, _ in test_objects]
    for i in range(len(test_objects)):
        for j in range(i + 1, len(test_objects)):
            ni, mi = test_objects[i]
            nj, mj = test_objects[j]
            u = locus(direct_sum(mi, mj))
            ok = (u == (per_object[ni] & per_object[nj]))
            checked.append((ni, nj, ok))
            fusion_ok = fusion_ok and ok
    return {
        "combos": combos,
        "per_object": per_object,
        "fusion_checks": checked,
        "fusion_ok": fusion_ok,
        "verdict": Verdict(PASS if fusion_ok else FAIL,
                           reason=None if fusion_ok
                           else "fusion law violated"),
    }


def mixed_eigencone(a, b, h=None):
    """Total complex of (lambda[1] -> F -> mu[-1]).

    a: chain map lambda -> F, b: chain map F -> mu with b after a zero; if the
    composite only vanishes up to homotopy, h supplies the length-two twisted
    component and the twisted identity is re-verified.
    """
    if a.tgt != b.src:
        raise ValueError("maps must share the middle complex F")
    F = a.tgt
    lam1 = shift(a.src, 1)
    mum1 = shift(b.tgt, -1)
    comp = b.compose(a)
    if not comp.is_zero() and h is None:
        raise CompositeNotKilled("b after a is nonzero and no homotopy given")
    if h is not None and not maps_equal(bracket(h), -comp):
        raise CompositeNotKilled("supplied homotopy does not bound -(b.a)")
    poset = Poset([0, 1, 2], {(0, 1), (1, 2), (0, 2)})
    layers = {0: lam1, 1: F, 2: mum1}
    cross = {}
    a_comps = {d: a.comp(d + 1) for d in lam1.degrees()
               if not a.comp(d + 1).is_zero()}
    if a_comps:
        cross[(1, 0)] = ChainMap(lam1, F, 1, a_comps, check=False)
    b_comps = {d: b.comp(d) for d in F.degrees() if not b.comp(d).is_zero()}
    if b_comps:
        cross[(2, 1)] = ChainMap(F, mum1, 1, b_comps, check=False)
    if h is not None:
        t_comps = {d: h.comp(d + 1) for d in lam1.degrees()
                   if not h.comp(d + 1).is_zero()}
        if t_comps:
            cross[(2, 0)] = ChainMap(lam1, mum1, 1, t_comps, check=False)
    try:
        return tot(TwistedComplex(poset, layers, cross), order=[0, 1, 2])
    except CurvatureViolation as e:
        raise CompositeNotKilled(f"twisted identity fails: {e}") from None


def is_split_eigenobject(a, b, m):
    """PASS iff F (x) M splits as lambda M (+) mu M through the structure maps.

    The splitting is realized, not just detected: a homotopy section s of
    b (x) id_M is solved for exactly, and the candidate [a_M | s] must be a
    homotopy equivalence.
    """
    if isinstance(m, Complex):
        mc = m
    else:
        mc = atom(m)
    if mc.is_zero():
        raise ValueError("eigenobjects are nonzero by definition")
    F = a.tgt
    FM = tensor(F, mc)
    lamM = tensor(a.src, mc)
    muM = tensor(b.tgt, mc)
    target = direct_sum(lamM, muM)
    if homology(FM) != homology(target):
        return Verdict(FAIL, reason="homology of F(x)M differs from "
                       "lambda M (+) mu M")
    aM = tensor_maps(a, identity_map(mc))
    bM = tensor_maps(b, identity_map(mc))
    s = _solve_homotopy_section(bM)
    if s is None:
        return Verdict(FAIL, reason="b (x) id has no section up to homotopy")
    ring = FM.alg.ring
    comps = {}
    for d in target.degrees():
        left = aM.comp(d)
        right = s.comp(d)
        comps[d] = left.hstack(right)
    phi = ChainMap(target, FM, 0, comps)
    v = is_contractible(cone(phi))
    if v.passed:
        return Verdict(PASS, witness=phi)
    return Verdict(INCONCLUSIVE,
                   reason="structure-map candidate is not an equivalence")


def _solve_homotopy_section(f):
    """A homotopy section of f: solve for a chain map s: tgt -> src with
    f . s - id null-homotopic, jointly with the bounding homotopy k."""
    C, D = f.src, f.tgt  # f: C -> D, s: D -> C, k: D -> D of degree -1
    ring = C.alg.ring
    u = _Unknowns(ring, [("s", D, C, 0), ("k", D, D, -1)])
    eqs = []
    for d in range(min(C.min_deg, D.min_deg) - 1,
                   max(C.max_deg, D.max_deg) + 2):
        # chain condition: d_C s_d - s_{d+1} d_D = 0
        eqs.append((C.term(d + 1).dim, D.term(d),
                    [("s", d, C.diff(d), None),
                     ("s", d + 1, None, -D.diff(d))],
                    None))
        # f s - [d, k] = id_D  (k odd: [d, k] = d k + k d)
        r = D.term(d).dim
        eqs.append((r, D.term(d),
                    [("s", d, f.comp(d), None),
                     ("k", d, -D.diff(d - 1), None),
                     ("k", d + 1, None, -D.diff(d))],
                    Matrix.identity(ring, r)))
    sol = u.solve(eqs)
    if sol is None:
        return None
    return ChainMap(D, C, 0, sol["s"])


def eigenmap_to_json(a):
    return {"shift": a.scalar.n,
            "map": {str(d): matrix_to_json(m) for d, m in a.map.comps.items()}}


def eigenmap_from_json(alg, F, obj):
    n = obj["shift"]
    src = ScalarShift(n).complex(alg)
    comps = {int(d): matrix_from_json(alg.ring, m)
             for d, m in obj["map"].items()}
    return Eigenmap(ScalarShift(n), ChainMap(src, F, 0, comps))
