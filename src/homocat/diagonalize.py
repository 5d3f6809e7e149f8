"""End-to-end verification that a family of truncated projectors behaves as
an orthogonal idempotent decomposition: orthogonality, idempotence,
decomposition of identity, tightness spot checks, the idempotent partial
order, subquotient idempotents, and refinement of two decompositions.

Window judgments reduce each tensor factor to its minimal model first;
products of minimal models are small, so the windowed minimizations stay
cheap even for refined (doubly tensored) families.
"""

from .exactlinalg import IntegerRingUnsupported
from .modulecat import trivial_module
from .complexes import (
    Complex, ChainMap, atom, tensor, tensor_maps, identity_map, cone,
    restrict, minimize, equivalent, is_contractible,
    Verdict, PASS, FAIL, INCONCLUSIVE,
)
from .convolutions import (
    Poset, TwistedComplex, validate, tot, contribution, zigzag_twisted,
    TooLarge,
)
from .interpolation import (
    TruncatedPeriodic, TruncationWindow, canonical_map, DEFAULT_DIRECTION,
    EMPTY_WINDOW,
)


class CommutationUncertified(Exception):
    pass


_BIG = 10 ** 9


# -- window helpers ---------------------------------------------------------

def _complex_of(p):
    return p.complex if isinstance(p, TruncatedPeriodic) else p


def _edge_of(p):
    return p.window.edge if isinstance(p, TruncatedPeriodic) else 0


def _reduced(c):
    """Minimal model when the ring supports it, otherwise the complex
    itself; judgments below only ever compare models over the same ring."""
    try:
        return minimize(c, retract=False).minimal
    except IntegerRingUnsupported:
        return c


def _piece(c, span, edge, direction):
    """Minimal model of the stable window plus the interior degree range.

    span is the (min_deg, max_deg) of the complex the window was declared
    on; judgments use only degrees strictly inside the cut edge.  Returns
    (minimal complex, interior lo, interior hi) or None for an empty window.
    """
    if edge == 0:
        # not a truncation: the model is exact in every degree
        return _reduced(c), -_BIG, _BIG
    lo, hi, ilo, ihi = _window(span, edge, direction)
    if ilo > ihi:
        return None
    r = minimize(restrict(c, lo, hi), retract=False).minimal
    return r, ilo, ihi


def _window(span, edge, direction):
    """(lo, hi, ilo, ihi): the stable window of a truncation spanning
    ``span`` and its interior, the degrees strictly inside the cut edge."""
    mn, mx = span
    if direction == "above":
        return mn + edge, mx, mn + edge + 1, mx
    return mn, mx - edge, mn, mx - edge - 1


def _empty_window(p, direction):
    """Whether a truncated projector has no degree to be judged in."""
    c = _complex_of(p)
    _, _, ilo, ihi = _window((c.min_deg, c.max_deg), _edge_of(p), direction)
    return _edge_of(p) > 0 and ilo > ihi


def _interior_dims(piece):
    if piece is None:
        return {}
    r, ilo, ihi = piece
    return {d: r.term(d).dim for d in range(max(r.min_deg, ilo),
                                            min(r.max_deg, ihi) + 1)
            if r.term(d).dim}


def _span_product(spans):
    return (sum(s[0] for s in spans), sum(s[1] for s in spans))


def _product_piece(ps, direction):
    """Stable-window piece of the tensor product of a list of idempotents,
    with factors reduced first and edges added."""
    spans = [(_complex_of(p).min_deg, _complex_of(p).max_deg) for p in ps]
    edge = sum(_edge_of(p) for p in ps)
    c = _reduced(_complex_of(ps[0]))
    for p in ps[1:]:
        c = tensor(c, _reduced(_complex_of(p)))
    return _piece(c, _span_product(spans), edge, direction)


def _equiv_on_common(p1, p2, seed):
    """Homotopy-equivalence verdict of two window pieces on the overlap of
    their interiors."""
    if p1 is None or p2 is None:
        return Verdict(INCONCLUSIVE, reason=EMPTY_WINDOW)
    r1, lo1, hi1 = p1
    r2, lo2, hi2 = p2
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo > hi:
        return Verdict(INCONCLUSIVE, reason="stable windows do not overlap")
    # clip the unbounded case to the degrees where anything lives
    lo = max(lo, min(r1.min_deg, r2.min_deg))
    hi = min(hi, max(r1.max_deg, r2.max_deg))
    if lo > hi:
        return Verdict(PASS)
    return equivalent(restrict(r1, lo, hi), restrict(r2, lo, hi), seed=seed)


# -- orthogonality / idempotence --------------------------------------------

def verify_orthogonality(ps, direction=DEFAULT_DIRECTION, seed=0xC0FFEE):
    """Every mixed product, in both orders, must vanish on the stable
    window."""
    for i in range(len(ps)):
        for j in range(len(ps)):
            if i == j:
                continue
            piece = _product_piece([ps[i], ps[j]], direction)
            if piece is None:
                return Verdict(INCONCLUSIVE, reason=EMPTY_WINDOW)
            got = _interior_dims(piece)
            if got:
                return Verdict(FAIL,
                               reason=f"product {i} (x) {j} is nonzero on "
                                      f"the stable window: {got}")
    return Verdict(PASS)


def verify_idempotence(p, direction=DEFAULT_DIRECTION, seed=0xC0FFEE):
    """P (x) P against P: exact for plain complexes, on the overlap of the
    stable windows for truncated ones."""
    c = _complex_of(p)
    if not isinstance(p, TruncatedPeriodic):
        r = _reduced(c)
        return equivalent(tensor(r, r), c, seed=seed)
    sq = _product_piece([p, p], direction)
    own = _piece(_reduced(c), (c.min_deg, c.max_deg), _edge_of(p), direction)
    return _equiv_on_common(sq, own, seed)


# -- decomposition of identity ----------------------------------------------

def _unit(alg):
    return atom(trivial_module(alg))


def _chain_poset(n):
    rel = {(i, j) for i in range(n) for j in range(n) if i >= j}
    return Poset(range(n), rel)


def verify_decomposition_of_identity(ps, connecting=None, window=None,
                                     direction=DEFAULT_DIRECTION,
                                     seed=0xC0FFEE):
    """Total complex of the family must be the monoidal unit on the stable
    window.  For a pair of truncations of one interpolation pair the
    connecting map is built canonically; otherwise the degree-1 connecting
    maps must be supplied (an empty dict is an explicit zero choice).  The
    verified twisted complex is attached as the witness."""
    if len(ps) == 1 and connecting is None:
        c = _complex_of(ps[0])
        return equivalent(c, _unit(c.alg), seed=seed)
    if any(_empty_window(p, direction) for p in ps):
        return Verdict(INCONCLUSIVE, reason=EMPTY_WINDOW)
    if (connecting is None and len(ps) == 2
            and all(isinstance(p, TruncatedPeriodic) for p in ps)
            and {ps[0].kind, ps[1].kind} == {"plain", "head"}):
        plain = ps[0] if ps[0].kind == "plain" else ps[1]
        w = window if window is not None else plain.window
        cm, htp = canonical_map(plain.a, plain.b, w, direction)
        t = zigzag_twisted([htp.complex, cm.src], [cm])
    elif connecting is None:
        return Verdict(INCONCLUSIVE,
                       reason="connecting maps are required for this family")
    else:
        layers = {i: _complex_of(p) for i, p in enumerate(ps)}
        t = TwistedComplex(_chain_poset(len(ps)), layers, dict(connecting))
    full = tot(t, check=True)
    edge = max(_edge_of(p) for p in ps)
    got = _interior_dims(_piece(_reduced(full), (full.min_deg, full.max_deg),
                                edge, direction))
    if got == {0: 1}:
        return Verdict(PASS, witness=t)
    return Verdict(FAIL, witness=t,
                   reason=f"total complex is not the unit: {got}")


# -- tightness ----------------------------------------------------------------

def tightness_spot_check(a_list, p_list, test_objects,
                         direction=DEFAULT_DIRECTION, seed=0xC0FFEE):
    """For each test object M and index i, the two sides of the eigenobject
    biconditional must agree: Cone(a_i) (x) M vanishes exactly when
    P_i (x) M returns M on the stable window."""
    for i, (a, p) in enumerate(zip(a_list, p_list)):
        cn = cone(a.map)
        for k, m in enumerate(test_objects):
            killed = is_contractible(tensor(cn, _reduced(m))).passed
            piece = _product_piece([p, m], direction)
            mm = _reduced(m)
            if piece is None:
                return Verdict(INCONCLUSIVE,
                               reason=f"{EMPTY_WINDOW} for index {i}, "
                                      f"object {k}")
            r, ilo, ihi = piece
            fixed = equivalent(restrict(r, ilo, ihi),
                               restrict(mm, ilo, ihi), seed=seed)
            if fixed.status == INCONCLUSIVE:
                return fixed
            if killed != fixed.passed:
                return Verdict(FAIL,
                               reason=f"biconditional fails for index {i}, "
                                      f"object {k}: cone side "
                                      f"{'vanishes' if killed else 'persists'}"
                                      f" but projector side "
                                      f"{'fixes' if fixed.passed else 'moves'}"
                                      f" the object")
    return Verdict(PASS)


# -- partial order ------------------------------------------------------------

def _absorbs(p, q, direction, seed):
    """p (x) q ~ p and q (x) p ~ p on the windows (p lies under q)."""
    own = _piece(_reduced(_complex_of(p)),
                 (_complex_of(p).min_deg, _complex_of(p).max_deg),
                 _edge_of(p), direction)
    for pair in ([p, q], [q, p]):
        v = _equiv_on_common(_product_piece(pair, direction), own, seed)
        if v.status == INCONCLUSIVE:
            return v
        if not v.passed:
            return Verdict(FAIL)
    return Verdict(PASS)


def compare_idempotents(p1, p2, direction=DEFAULT_DIRECTION, seed=0xC0FFEE):
    """Order relation between two idempotents: '<=', '>=', 'equal', or
    'incomparable' (both products judged on stable windows)."""
    le = _absorbs(p1, p2, direction, seed)
    ge = _absorbs(p2, p1, direction, seed)
    if le.status == INCONCLUSIVE or ge.status == INCONCLUSIVE:
        return "inconclusive"
    if le.passed and ge.passed:
        return "equal"
    if le.passed:
        return "<="
    if ge.passed:
        return ">="
    return "incomparable"


# -- subquotient idempotents ---------------------------------------------------

def _convex_subsets(poset):
    els = list(poset.elements)
    if len(els) > 4:
        raise TooLarge("convex-subset enumeration is capped at 4 elements")
    out = []
    for mask in range(1 << len(els)):
        ss = [e for k, e in enumerate(els) if mask >> k & 1]
        if poset.is_convex(ss):
            out.append(tuple(ss))
    return out


def _contrib(t, subset):
    ss = list(subset)
    if not ss:
        alg = next(iter(t.layers.values())).alg
        from .modulecat import zero_module
        return Complex(alg, 0, [zero_module(alg)], [], check=False)
    return contribution(t, ss)


def subquotient_idempotent(t, k, edge=0, direction=DEFAULT_DIRECTION,
                           seed=0xC0FFEE):
    """Contribution of a convex subset of a verified decomposition, with
    idempotence and the intersection law P_J (x) P_K ~ P_(J n K) verified on
    all convex pairs of the poset."""
    pk = _contrib(t, k)
    subs = _convex_subsets(t.poset)
    pieces = {}
    for ss in subs:
        raw = _contrib(t, ss)
        span = (raw.min_deg, raw.max_deg)
        c = _reduced(raw)
        pieces[ss] = (c, span, _piece(c, span, edge, direction))
    for J in subs:
        for K in subs:
            meet = tuple(e for e in J if e in K)
            cj, sj, _ = pieces[J]
            ck, sk, _ = pieces[K]
            _, _, target = pieces[meet]
            if cj.is_zero() or ck.is_zero():
                got = None
            else:
                prod = tensor(cj, ck)
                got = _piece(prod, (sj[0] + sk[0], sj[1] + sk[1]),
                             2 * edge, direction)
            gd = _interior_dims(got)
            td = _interior_dims(target)
            if not gd and not td:
                continue
            if not gd or not td:
                return pk, Verdict(
                    FAIL, reason=f"{J} (x) {K} does not match the "
                                 f"intersection {meet}: {gd} vs {td}")
            v = _equiv_on_common(got, target, seed)
            if v.status == INCONCLUSIVE:
                return pk, v
            if not v.passed:
                return pk, Verdict(
                    FAIL, reason=f"intersection law fails for {J}, {K}")
    return pk, Verdict(PASS)


# -- refinement ----------------------------------------------------------------

def refine_decompositions(t1, t2, certificates=None, edge=0,
                          direction=DEFAULT_DIRECTION, seed=0xC0FFEE):
    """Product-poset twisted complex of two decompositions of identity.

    Pairwise commutation of the layers must be certified by the caller;
    orthogonality, idempotence and the unit total are then verified on
    stable windows.  Returns (twisted complex, verdict)."""
    if len(t2.layers) == 1:
        return t1, Verdict(PASS, reason="refining by a single idempotent "
                                        "leaves the family unchanged")
    for i in t1.poset.elements:
        for j in t2.poset.elements:
            cert = None if certificates is None else certificates.get((i, j))
            if cert is None or not getattr(cert, "passed", False):
                raise CommutationUncertified(
                    f"no commutation certificate for pair ({i}, {j})")
    els = [(i, j) for i in t1.poset.elements for j in t2.poset.elements]
    rel = {(p, q) for p in els for q in els
           if t1.poset.leq(p[0], q[0]) and t2.poset.leq(p[1], q[1])}
    poset = Poset(els, rel)
    layers = {(i, j): tensor(t1.layers[i], t2.layers[j]) for (i, j) in els}
    cross = {}
    for (a, b), f in t1.cross.items():
        for j in t2.poset.elements:
            cross[((a, j), (b, j))] = tensor_maps(
                f, identity_map(t2.layers[j]))
    for (a, b), g in t2.cross.items():
        for i in t1.poset.elements:
            cross[((i, a), (i, b))] = tensor_maps(
                identity_map(t1.layers[i]), g)
    t = TwistedComplex(poset, layers, cross)
    v = validate(t)
    if not v.passed:
        return t, Verdict(FAIL, reason=f"refined family is not a twisted "
                                       f"complex: {v.reason}")
    # a refined layer is a product of one layer from each family, so its
    # orthogonality and idempotence reduce to the same facts about the
    # factors: a factor equivalent to zero kills the product, and idempotent
    # factors give an idempotent product.
    for src, name in ((t1, "first"), (t2, "second")):
        red = {i: _reduced(src.layers[i]) for i in src.poset.elements}
        spn = {i: (src.layers[i].min_deg, src.layers[i].max_deg)
               for i in src.poset.elements}
        for i in src.poset.elements:
            for j in src.poset.elements:
                prod = tensor(red[i], red[j])
                piece = _piece(prod, (spn[i][0] + spn[j][0],
                                      spn[i][1] + spn[j][1]),
                               2 * edge, direction)
                if i != j:
                    got = _interior_dims(piece)
                    if got:
                        return t, Verdict(
                            FAIL, reason=f"layers {i} and {j} of the {name} "
                                         f"family are not orthogonal: {got}")
                else:
                    own = _piece(red[i], spn[i], edge, direction)
                    if not _interior_dims(own):
                        continue
                    v = _equiv_on_common(piece, own, seed)
                    if v.status == INCONCLUSIVE:
                        return t, v
                    if not v.passed:
                        return t, Verdict(
                            FAIL, reason=f"layer {i} of the {name} family "
                                         f"is not idempotent")
    # unit total, via the structural identity tot(t) = tot(t1) (x) tot(t2)
    u1 = tot(t1, check=False)
    u2 = tot(t2, check=False)
    got = _interior_dims(_piece(tensor(_reduced(u1), _reduced(u2)),
                                (u1.min_deg + u2.min_deg,
                                 u1.max_deg + u2.max_deg),
                                2 * edge, direction))
    if got != {0: 1}:
        return t, Verdict(FAIL,
                          reason=f"refined total is not the unit: {got}")
    return t, Verdict(PASS)
