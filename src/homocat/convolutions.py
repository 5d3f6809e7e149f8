"""Finite-poset twisted complexes, convolutions, simultaneous simplification
by homological perturbation, and zigzag assembly."""

from .exactlinalg import Matrix, _stack
from .modulecat import direct_sum_modules
from .complexes import (
    Complex, ChainMap, Homotopy, Verdict, PASS, FAIL,
    zero_complex, shift, identity_map, minimize, maps_equal,
    bracket,
)


class CurvatureViolation(Exception):
    pass


class InvalidRetract(Exception):
    pass


class NotAChainMap(Exception):
    pass


class Poset:
    """Finite poset: explicit elements and a <= relation given as a pair set."""

    __slots__ = ("elements", "rel")

    def __init__(self, elements, rel):
        self.elements = tuple(elements)
        es = set(self.elements)
        rel = set(rel) | {(e, e) for e in es}
        for (a, b) in rel:
            if a not in es or b not in es:
                raise ValueError("relation mentions unknown element")
        # transitivity is required, not inferred: a <= b needs every
        # successor of b to be one of a
        succ = {e: set() for e in es}
        for (a, b) in rel:
            succ[a].add(b)
        for (a, b) in rel:
            if not succ[b] <= succ[a]:
                d = next(d for (c, d) in rel if c == b and (a, d) not in rel)
                raise ValueError(f"relation not transitive: {a}<={b}<={d}")
        for (a, b) in rel:
            if a != b and (b, a) in rel:
                raise ValueError(f"relation not antisymmetric: {a},{b}")
        self.rel = frozenset(rel)

    def leq(self, a, b):
        return (a, b) in self.rel

    def interval(self, j, i):
        return [k for k in self.elements if self.leq(j, k) and self.leq(k, i)]

    def linear_extension(self):
        """Topological sort, smallest label first among available elements."""
        remaining = set(self.elements)
        out = []
        while remaining:
            avail = [e for e in remaining
                     if all(not self.leq(o, e) for o in remaining if o != e)]
            pick = min(avail)
            out.append(pick)
            remaining.remove(pick)
        return out


class TwistedComplex:
    """Layers over a poset with strictly-decreasing degree-1 cross maps.

    cross[(i, j)] (j < i in the poset) is a degree-1 collection of intertwiner
    components layer_j -> layer_i; d_{ii} is the internal layer differential.
    """

    __slots__ = ("poset", "layers", "cross")

    def __init__(self, poset, layers, cross):
        self.poset = poset
        self.layers = dict(layers)
        self.cross = dict(cross)
        for (i, j) in self.cross:
            if not (poset.leq(j, i) and i != j):
                raise ValueError(f"cross map for non-ordered pair ({i},{j})")


def validate(t):
    """All three twisted-complex conditions, checked exactly."""
    for (i, j), f in t.cross.items():
        for d, m in f.comps.items():
            src = t.layers[j].term(d)
            tgt = t.layers[i].term(d + 1)
            if m.rows != tgt.dim or m.cols != src.dim:
                return Verdict(FAIL, reason=f"shape mismatch in d[{i},{j}]")
            if not (m * src.x_action - tgt.x_action * m).is_zero():
                return Verdict(FAIL,
                               reason=f"d[{i},{j}] is not an intertwiner")
    for j in t.poset.elements:
        for i in t.poset.elements:
            if not t.poset.leq(j, i) or i == j:
                continue
            lo = t.layers[j].min_deg - 1
            hi = t.layers[j].max_deg + 1
            for d in range(lo, hi + 1):
                acc = Matrix.zeros(t.layers[j].alg.ring,
                                   t.layers[i].term(d + 2).dim,
                                   t.layers[j].term(d).dim)
                for k in t.poset.interval(j, i):
                    acc = acc + _dblock(t, i, k, d + 1) * _dblock(t, k, j, d)
                if not acc.is_zero():
                    return Verdict(
                        FAIL, reason=f"Maurer-Cartan fails at ({i},{j},{d})")
    return Verdict(PASS)


def _dblock(t, i, j, d):
    """Block (i, j) of the twisted differential in degree d."""
    if i == j:
        return t.layers[i].diff(d)
    f = t.cross.get((i, j))
    ring = t.layers[j].alg.ring
    if f is None:
        return Matrix.zeros(ring, t.layers[i].term(d + 1).dim,
                            t.layers[j].term(d).dim)
    return f.comp(d)


def _tot_layout(t, order, d):
    out = []
    off = 0
    for lab in order:
        dim = t.layers[lab].term(d).dim
        out.append((lab, off, dim))
        off += dim
    return out, off


def tot(t, order=None):
    """Total complex: direct sum of layers with the twisted differential.

    The total is a checked Complex: block (i, j) of d^2 is the Maurer-Cartan
    sum of the pair, so its d^2 = 0 check covers every pair at once.  Only
    when that check fails does validate run, to name the pair and degree."""
    try:
        return _assemble_tot(t, order)
    except ValueError:
        v = validate(t)
        if v.passed:
            raise
        raise CurvatureViolation(v.reason) from None


def _assemble_tot(t, order):
    if order is None:
        order = t.poset.linear_extension()
    nonzero = [lab for lab in order if not t.layers[lab].is_zero()]
    if not nonzero:
        alg = next(iter(t.layers.values())).alg
        return zero_complex(alg)
    alg = t.layers[nonzero[0]].alg
    ring = alg.ring
    lo = min(t.layers[lab].min_deg for lab in nonzero)
    hi = max(t.layers[lab].max_deg for lab in nonzero)
    terms = [direct_sum_modules(*(t.layers[lab].term(d) for lab in order))
             for d in range(lo, hi + 1)]
    diffs = []
    for d in range(lo, hi):
        slay, _ = _tot_layout(t, order, d)
        tlay, _ = _tot_layout(t, order, d + 1)
        grid = [[None] * len(slay) for _ in range(len(tlay))]
        for si, (j, _, sdim) in enumerate(slay):
            if sdim == 0:
                continue
            for ti, (i, _, tdim) in enumerate(tlay):
                if tdim == 0:
                    continue
                if i == j or (t.poset.leq(j, i) and (i, j) in t.cross):
                    b = _dblock(t, i, j, d)
                    if (b.rows, b.cols) != (tdim, sdim):
                        raise ValueError(f"block ({i},{j}) has the wrong "
                                         f"shape in degree {d}")
                    if not b.is_zero():
                        grid[ti][si] = b
        diffs.append(_stack(ring, grid, [x[2] for x in tlay],
                            [x[2] for x in slay]))
    return Complex(alg, lo, terms, diffs)


class SimplifyResult:
    __slots__ = ("twisted", "total", "incl", "proj", "h")

    def __init__(self, twisted, total, incl, proj, h):
        self.twisted = twisted
        self.total = total
        self.incl = incl
        self.proj = proj
        self.h = h


def simplify_layers(t, retracts=None, order=None):
    """Replace each layer by a deformation retract and transfer the twisted
    differential by homological perturbation.

    Returns the new twisted complex plus a verified equivalence pair between
    the totalizations.  The perturbation series terminates because the cross
    part strictly decreases the poset.
    """
    if order is None:
        order = t.poset.linear_extension()
    T = tot(t, order=order)
    alg = T.alg
    ring = alg.ring
    if retracts is None:
        retracts = {lab: minimize(t.layers[lab]) for lab in order}
    for lab in order:
        mr = retracts[lab]
        if not maps_equal(mr.proj.compose(mr.incl),
                          identity_map(mr.minimal)):
            raise InvalidRetract(f"retract for layer {lab} fails proj.incl=id")
        defect = identity_map(t.layers[lab]) - mr.incl.compose(mr.proj)
        if not maps_equal(bracket(mr.h), defect):
            raise InvalidRetract(f"retract for layer {lab} fails homotopy id")

    min_layers = {lab: retracts[lab].minimal for lab in order}
    bare = TwistedComplex(t.poset, min_layers, {})
    M0 = tot(bare, order=order)

    def blockdiag(src_t, tgt_t, per_layer, degshift):
        comps = {}
        lo = min([src_t.layers[l].min_deg for l in order
                  if not src_t.layers[l].is_zero()] or [0])
        hi = max([src_t.layers[l].max_deg for l in order
                  if not src_t.layers[l].is_zero()] or [0])
        for d in range(lo, hi + 1):
            slay, cols = _tot_layout(src_t, order, d)
            tlay, rows = _tot_layout(tgt_t, order, d + degshift)
            if cols == 0 or rows == 0:
                continue
            grid = [[None] * len(slay) for _ in range(len(tlay))]
            nz = False
            for si, (j, _, sd) in enumerate(slay):
                for ti, (i, _, td) in enumerate(tlay):
                    if i == j:
                        b = per_layer(i).comp(d)
                        if not b.is_zero():
                            grid[ti][si] = b
                            nz = True
            if nz:
                comps[d] = _stack(ring, grid, [x[2] for x in tlay],
                                  [x[2] for x in slay])
        return comps

    i0 = ChainMap(M0, T, 0, blockdiag(bare, t, lambda l: retracts[l].incl, 0),
                  check=False)
    p0 = ChainMap(T, M0, 0, blockdiag(t, bare, lambda l: retracts[l].proj, 0),
                  check=False)
    h0 = Homotopy(T, T, -1, blockdiag(t, t, lambda l: retracts[l].h, -1))

    # the perturbation: cross part of the twisted differential
    delta_comps = {}
    for d in range(T.min_deg, T.max_deg):
        slay, _ = _tot_layout(t, order, d)
        tlay, _ = _tot_layout(t, order, d + 1)
        grid = [[None] * len(slay) for _ in range(len(tlay))]
        nz = False
        for si, (j, _, sd) in enumerate(slay):
            for ti, (i, _, td) in enumerate(tlay):
                if i != j and (i, j) in t.cross:
                    b = _dblock(t, i, j, d)
                    if not b.is_zero():
                        grid[ti][si] = b
                        nz = True
        if nz:
            delta_comps[d] = _stack(ring, grid, [x[2] for x in tlay],
                                    [x[2] for x in slay])
    delta = ChainMap(T, T, 1, delta_comps, check=False)

    # A = delta (1 + h0 delta)^{-1}, a finite geometric series by nilpotency;
    # the homotopy enters with a sign because 1 - incl.proj = d h + h d here
    hneg = ChainMap(T, T, -1, {d: -m for d, m in h0.comps.items()},
                    check=False)
    A = delta
    term = delta
    for _ in range(len(order) + 1):
        term = term.compose(hneg).compose(delta)
        if term.is_zero():
            break
        A = A + term
    assert term.is_zero(), "perturbation series failed to terminate"

    pAi = p0.compose(A).compose(i0)
    # extract the transferred cross maps and rebuild the twisted complex
    cross = {}
    for j in order:
        for i in order:
            if i == j or not t.poset.leq(j, i):
                continue
            comps = {}
            Lj, Li = min_layers[j], min_layers[i]
            if Lj.is_zero() or Li.is_zero():
                continue
            for d in range(Lj.min_deg, Lj.max_deg + 1):
                slay, _ = _tot_layout(bare, order, d)
                tlay, _ = _tot_layout(bare, order, d + 1)
                soff = [o for (l, o, dim) in slay if l == j][0]
                toff = [o for (l, o, dim) in tlay if l == i][0]
                m = pAi.comp(d)
                if m.is_zero():
                    continue
                b = m.submatrix(range(toff, toff + Li.term(d + 1).dim),
                                range(soff, soff + Lj.term(d).dim))
                if not b.is_zero():
                    comps[d] = b
            if comps:
                cross[(i, j)] = ChainMap(Lj, Li, 1, comps, check=False)
    # blocks of pAi outside the strict order must vanish
    for d, m in pAi.comps.items():
        slay, _ = _tot_layout(bare, order, d)
        tlay, _ = _tot_layout(bare, order, d + 1)
        for (j, so, sd) in slay:
            for (i, to, td) in tlay:
                if sd and td and not (t.poset.leq(j, i) and i != j):
                    if not m.submatrix(range(to, to + td),
                                       range(so, so + sd)).is_zero():
                        raise CurvatureViolation(
                            "transferred differential escapes the poset order")
    out_t = TwistedComplex(t.poset, min_layers, cross)
    v = validate(out_t)
    if not v.passed:
        raise CurvatureViolation(f"transfer broke the twisted identity: {v.reason}")
    Tmin = tot(out_t, order=order)

    hAi = hneg.compose(A).compose(i0)
    pAh = p0.compose(A).compose(hneg)
    hAh = h0.compose(A).compose(h0)
    incl = ChainMap(Tmin, T, 0,
                    {d: i0.comp(d) + hAi.comp(d) for d in Tmin.degrees()})
    proj = ChainMap(T, Tmin, 0,
                    {d: p0.comp(d) + pAh.comp(d) for d in T.degrees()})
    hh = Homotopy(T, T, -1,
                  {d: h0.comp(d) - hAh.comp(d)
                   for d in set(h0.comps) | set(hAh.comps)})
    assert maps_equal(proj.compose(incl), identity_map(Tmin)), \
        "perturbation retract identity fails"
    defect = identity_map(T) - incl.compose(proj)
    assert maps_equal(bracket(hh), defect), \
        "perturbation homotopy identity fails"
    return SimplifyResult(out_t, Tmin, incl, proj, hh)


# -- zigzags ------------------------------------------------------------------

def zigzag_twisted(layers, gmaps):
    """Twisted complex of a zigzag: odd layers are sources and get shifted.

    Edge k joins X_k and X_{k+1}; the odd-indexed end is the source of
    gmaps[k].  After shifting odd layers by [1], each g becomes a degree-1
    cross map and there are no compositions to correct.
    """
    L = len(layers)
    if len(gmaps) != max(0, L - 1):
        raise ValueError("need one map per adjacent pair")
    rel = set()
    for k in range(L - 1):
        src, tgt = (k + 1, k) if k % 2 == 0 else (k, k + 1)
        rel.add((src, tgt))
        g = gmaps[k]
        if g is not None:
            if g.degree != 0:
                raise NotAChainMap("zigzag maps must have degree 0")
            if not (g.src == layers[src] or layers[src].is_zero()):
                raise NotAChainMap(f"map {k} source mismatch")
            if not (g.tgt == layers[tgt] or layers[tgt].is_zero()):
                raise NotAChainMap(f"map {k} target mismatch")
    poset = Poset(range(L), rel)
    tl = {k: (shift(layers[k], 1) if k % 2 else layers[k]) for k in range(L)}
    cross = {}
    for k in range(L - 1):
        src, tgt = (k + 1, k) if k % 2 == 0 else (k, k + 1)
        g = gmaps[k]
        if g is None or layers[src].is_zero() or layers[tgt].is_zero():
            continue
        comps = {}
        for d in range(tl[src].min_deg, tl[src].max_deg + 1):
            m = g.comp(d + 1)
            if not m.is_zero():
                comps[d] = m
        if comps:
            cross[(tgt, src)] = ChainMap(tl[src], tl[tgt], 1, comps,
                                         check=False)
    return TwistedComplex(poset, tl, cross)


def zigzag_tot(layers, gmaps):
    """Total complex of a zigzag, layers ordered by their index."""
    t = zigzag_twisted(layers, gmaps)
    return tot(t, order=list(range(len(layers))))
