"""End-to-end verification that a family of truncated projectors behaves as
an orthogonal idempotent decomposition: orthogonality, idempotence,
decomposition of identity and tightness spot checks.

Window judgments reduce each tensor factor to its minimal model first;
products of minimal models are small, so the windowed minimizations stay
cheap.
"""

from .exactlinalg import IntegerRingUnsupported
from .modulecat import trivial_module
from .complexes import (
    atom, tensor, cone, restrict, minimize, equivalent, is_contractible,
    Verdict, PASS, FAIL, INCONCLUSIVE,
)
from .convolutions import Poset, TwistedComplex, tot, zigzag_twisted
from .interpolation import (
    TruncatedPeriodic, canonical_map, stable_window, EMPTY_WINDOW,
)


_BIG = 10 ** 9


# -- window helpers ---------------------------------------------------------
#
# A truncation carries its window and direction; a plain complex is exact in
# every degree (edge 0, no direction).

def _complex_of(p):
    return p.complex if isinstance(p, TruncatedPeriodic) else p


def _span(p):
    c = _complex_of(p)
    return c.min_deg, c.max_deg


def _edge_of(p):
    return p.window.edge if isinstance(p, TruncatedPeriodic) else 0


def _direction(ps):
    """The direction of the truncations among ps, None if there are none;
    the factors of one build_P family always share it."""
    ds = {p.direction for p in ps if isinstance(p, TruncatedPeriodic)}
    assert len(ds) <= 1, f"truncations disagree on the direction: {ds}"
    return next(iter(ds), None)


def _reduced(c):
    """Minimal model when the ring supports it, otherwise the complex
    itself; judgments below only ever compare models over the same ring."""
    try:
        return minimize(c, retract=False).minimal
    except IntegerRingUnsupported:
        return c


def window_piece(c, span, edge, direction):
    """Minimal model of the stable window plus the interior degree range.

    span is the (min_deg, max_deg) of the complex the window was declared
    on, edge and direction its truncation's (edge 0: not a truncation, the
    model is exact in every degree).  Returns (minimal complex, interior lo,
    interior hi) or None for an empty window.
    """
    if edge == 0:
        return _reduced(c), -_BIG, _BIG
    lo, hi, ilo, ihi = stable_window(span, edge, direction)
    if ilo > ihi:
        return None
    r = minimize(restrict(c, lo, hi), retract=False).minimal
    return r, ilo, ihi


def _empty_window(p):
    """Whether a truncated projector has no degree to be judged in."""
    if not isinstance(p, TruncatedPeriodic):
        return False
    _, _, ilo, ihi = stable_window(_span(p), p.window.edge, p.direction)
    return ilo > ihi


def interior_dims(piece):
    """{degree: dimension} of a window piece's nonzero interior terms."""
    if piece is None:
        return {}
    r, ilo, ihi = piece
    return {d: r.term(d).dim for d in range(max(r.min_deg, ilo),
                                            min(r.max_deg, ihi) + 1)
            if r.term(d).dim}


def _span_product(spans):
    return (sum(s[0] for s in spans), sum(s[1] for s in spans))


def _factor(p):
    """A tensor factor with its minimal model, reduced once per check."""
    return p, _reduced(_complex_of(p))


def _product_piece(fs):
    """Stable-window piece of the tensor product of one or more reduced
    factors (_factor): spans and edges add, the direction is the
    factors'."""
    ps = [p for p, _ in fs]
    c = fs[0][1]
    for _, r in fs[1:]:
        c = tensor(c, r)
    return window_piece(c, _span_product([_span(p) for p in ps]),
                        sum(_edge_of(p) for p in ps), _direction(ps))


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

def verify_orthogonality(ps):
    """Every mixed product, in both orders, must vanish on the stable
    window."""
    fs = [_factor(p) for p in ps]
    for i in range(len(ps)):
        for j in range(len(ps)):
            if i == j:
                continue
            piece = _product_piece([fs[i], fs[j]])
            if piece is None:
                return Verdict(INCONCLUSIVE, reason=EMPTY_WINDOW)
            got = interior_dims(piece)
            if got:
                return Verdict(FAIL,
                               reason=f"product {i} (x) {j} is nonzero on "
                                      f"the stable window: {got}")
    return Verdict(PASS)


def verify_idempotence(p, seed=0xC0FFEE):
    """P (x) P against P: exact for plain complexes, on the overlap of the
    stable windows for truncated ones."""
    f = _factor(p)
    if not isinstance(p, TruncatedPeriodic):
        return equivalent(tensor(f[1], f[1]), p, seed=seed)
    return _equiv_on_common(_product_piece([f, f]), _product_piece([f]), seed)


# -- decomposition of identity ----------------------------------------------

def _unit(alg):
    return atom(trivial_module(alg))


def _chain_poset(n):
    rel = {(i, j) for i in range(n) for j in range(n) if i >= j}
    return Poset(range(n), rel)


def verify_decomposition_of_identity(ps, connecting=None):
    """Total complex of the family must be the monoidal unit on the stable
    window.  For a pair of truncations of one interpolation pair the
    connecting map is built canonically; otherwise the degree-1 connecting
    maps must be supplied (an empty dict is an explicit zero choice).  The
    verified twisted complex is attached as the witness."""
    if len(ps) == 1 and connecting is None:
        c = _complex_of(ps[0])
        return equivalent(c, _unit(c.alg))
    if any(_empty_window(p) for p in ps):
        return Verdict(INCONCLUSIVE, reason=EMPTY_WINDOW)
    if (connecting is None and len(ps) == 2
            and all(isinstance(p, TruncatedPeriodic) for p in ps)
            and {ps[0].kind, ps[1].kind} == {"plain", "head"}):
        plain = ps[0] if ps[0].kind == "plain" else ps[1]
        cm, htp = canonical_map(plain.a, plain.b, plain.window,
                                plain.direction)
        t = zigzag_twisted([htp.complex, cm.src], [cm])
    elif connecting is None:
        return Verdict(INCONCLUSIVE,
                       reason="connecting maps are required for this family")
    else:
        layers = {i: _complex_of(p) for i, p in enumerate(ps)}
        t = TwistedComplex(_chain_poset(len(ps)), layers, dict(connecting))
    full = tot(t)
    edge = max(_edge_of(p) for p in ps)
    got = interior_dims(window_piece(_reduced(full), _span(full), edge,
                                     _direction(ps)))
    if got == {0: 1}:
        return Verdict(PASS, witness=t)
    return Verdict(FAIL, witness=t,
                   reason=f"total complex is not the unit: {got}")


# -- tightness ----------------------------------------------------------------

def tightness_spot_check(a_list, p_list, test_objects, seed=0xC0FFEE):
    """For each test object M and index i, the two sides of the eigenobject
    biconditional must agree: Cone(a_i) (x) M vanishes exactly when
    P_i (x) M returns M on the stable window."""
    objects = [_factor(m) for m in test_objects]
    for i, (a, p) in enumerate(zip(a_list, p_list)):
        cn = cone(a.map)
        fp = _factor(p)
        for k, fm in enumerate(objects):
            mm = fm[1]
            killed = is_contractible(tensor(cn, mm)).passed
            piece = _product_piece([fp, fm])
            if piece is None:
                return Verdict(INCONCLUSIVE,
                               reason=f"{EMPTY_WINDOW} for index {i}, "
                                      f"object {k}")
            r, ilo, ihi = piece
            seen = restrict(mm, ilo, ihi)
            if seen.is_zero() and not mm.is_zero():
                return Verdict(INCONCLUSIVE,
                               reason=f"stable window for index {i} misses "
                                      f"object {k}")
            fixed = equivalent(restrict(r, ilo, ihi), seen, seed=seed)
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
