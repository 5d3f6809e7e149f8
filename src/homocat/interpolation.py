"""Truncated interpolation complexes, their periodicity endomorphisms, the
partial operators on cones, quasi-idempotents, projectors, and structural
checks relating the zigzag description to the twisted-module description."""

from .exactlinalg import Matrix
from .modulecat import trivial_module
from .complexes import (
    ChainMap, Verdict, PASS, FAIL, INCONCLUSIVE,
    atom, zero_complex, shift, direct_sum, tensor, tensor_layout, tensor_maps,
    cone, homology, identity_map, solve_null_homotopy, homotopy_inverse,
    restrict, restrict_map, equivalent, complex_to_json, complex_from_json,
)
from .convolutions import (
    Poset, TwistedComplex, tot, zigzag_tot, NotAChainMap, CurvatureViolation,
)
from .eigen import Eigenmap, ScalarShift, is_eigenobject


class SmallnessViolated(Exception):
    pass


class MissingCertificates(Exception):
    pass


class NotAnEigenobject(Exception):
    pass


#: Default truncation direction: "above" keeps a genuine top degree and the
#: repeating part extends downward; "below" mirrors every construction.
DEFAULT_DIRECTION = "above"


class TruncationWindow:
    """depth: how many repeating columns are kept; edge: how many degrees
    next to the truncation edge are excluded from judgments."""

    __slots__ = ("depth", "edge")

    def __init__(self, depth, edge):
        depth = int(depth)
        edge = int(edge)
        if depth < 1:
            raise ValueError("depth must be at least 1")
        if edge < 1:
            raise ValueError("edge must be at least 1")
        self.depth = depth
        self.edge = edge

    def deeper(self, extra=2):
        return TruncationWindow(self.depth + extra, self.edge)

    def __eq__(self, other):
        return (isinstance(other, TruncationWindow)
                and self.depth == other.depth and self.edge == other.edge)

    def __repr__(self):
        return f"TruncationWindow(depth={self.depth}, edge={self.edge})"


def default_window(f):
    """Depth 12, edge twice the length of the operator complex plus two."""
    return TruncationWindow(12, 2 * (f.max_deg - f.min_deg + 1) + 2)


EMPTY_WINDOW = "stable window is empty"


def window_bounds(c, w, direction=DEFAULT_DIRECTION):
    """Degree range of the stable window of a truncated complex."""
    if direction == "above":
        return (c.min_deg + w.edge, c.max_deg)
    return (c.min_deg, c.max_deg - w.edge)


def window_restrict(c, w, direction=DEFAULT_DIRECTION):
    lo, hi = window_bounds(c, w, direction)
    if lo > hi:
        return None
    return restrict(c, lo, hi)


def shift_map(f, n):
    """The same components viewed between shifted source and target; valid
    for degree-zero maps, where no sign enters."""
    return ChainMap(shift(f.src, n), shift(f.tgt, n), f.degree,
                    {d - n: m for d, m in f.comps.items()}, check=False)


def _unit_atom(alg):
    return atom(trivial_module(alg))


# -- the truncated periodic container -------------------------------------

class TruncatedPeriodic:
    """A finite truncation of a semi-infinite periodic complex.

    complex       the assembled total complex
    window        the TruncationWindow it was built with
    period_shift  homological degrees per period of the repeating part
    provenance    construction tag ("Cab", "Cba", "P:<i>", ...)
    kind          "plain" (no head layer), "head", "tensor", or "json"
    tot_layers    per-layer complexes, in layout order, so that
                  complex.term(d) = (+)_i tot_layers[i].term(d)
    """

    __slots__ = ("complex", "window", "period_shift", "provenance", "kind",
                 "a", "b", "tot_layers", "direction")

    def __init__(self, cx, window, period_shift, provenance, kind="plain",
                 a=None, b=None, tot_layers=None,
                 direction=DEFAULT_DIRECTION, check=True):
        self.complex = cx
        self.window = window
        self.period_shift = period_shift
        self.provenance = provenance
        self.kind = kind
        self.a = a
        self.b = b
        self.tot_layers = tot_layers
        self.direction = direction
        if check and tot_layers is not None and kind in ("plain", "head"):
            start = 0 if kind == "plain" else 1
            for i in range(start, len(tot_layers) - 2):
                if tot_layers[i + 2] != shift(tot_layers[i], period_shift):
                    raise ValueError(
                        f"layer {i + 2} is not the period-shift of layer {i}")

    def __repr__(self):
        return (f"TruncatedPeriodic({self.provenance}, depth="
                f"{self.window.depth}, {self.complex!r})")


def truncated_to_json(tp):
    obj = complex_to_json(tp.complex)
    obj["depth"] = tp.window.depth
    obj["edge"] = tp.window.edge
    obj["period_shift"] = tp.period_shift
    obj["provenance"] = tp.provenance
    return obj


def truncated_from_json(alg, obj):
    cx = complex_from_json(alg, obj)
    w = TruncationWindow(obj["depth"], obj["edge"])
    return TruncatedPeriodic(cx, w, obj["period_shift"], obj["provenance"],
                             kind="json", check=False)


# -- zigzag builders --------------------------------------------------------

def _f_layer(a, b, k):
    """F-column number k (1-based)."""
    na, nb = a.scalar.n, b.scalar.n
    return shift(a.map.tgt, (k - 1) * na - k * nb)


def _s_layer(a, b, k, alg):
    """Scalar column number k, before the odd-layer shift of the zigzag."""
    na, nb = a.scalar.n, b.scalar.n
    return shift(_unit_atom(alg), k * (na - nb))


def _alpha_k(a, b, k):
    na, nb = a.scalar.n, b.scalar.n
    return shift_map(a.map, k * (na - nb) - na)


def _beta_k(a, b, k, sign=-1):
    na, nb = a.scalar.n, b.scalar.n
    m = shift_map(b.map, k * (na - nb) - nb)
    if sign == 1:
        return m
    return m.scale(m.src.alg.ring.coerce(-1))


def _check_pair(a, b, direction):
    if not isinstance(a, Eigenmap) or not isinstance(b, Eigenmap):
        raise TypeError("expected eigenmaps")
    if a.map.tgt != b.map.tgt:
        raise ValueError("eigenmaps must target the same complex")
    per = a.scalar.n - b.scalar.n
    if not ScalarShift(per).is_small(direction):
        raise SmallnessViolated(
            f"scalar ratio shift {per} is not small ({direction})")
    return per


def _plain_zigzag(a, b, N, beta_sign=-1, drop_tail=False):
    """Columns (F_k, s_k) for k = 1..N, with a gluing up-left and sign*b
    gluing down-right.  drop_tail omits the final scalar column."""
    alg = a.map.tgt.alg
    layers, gmaps = [], []
    for k in range(1, N + 1):
        layers.append(_f_layer(a, b, k))
        if k > 1:
            gmaps.append(_beta_k(a, b, k - 1, beta_sign))
        if k == N and drop_tail:
            break
        layers.append(_s_layer(a, b, k, alg))
        gmaps.append(_alpha_k(a, b, k))
    return layers, gmaps


def _head_zigzag(a, b, N, beta_sign=1):
    """A unit head glued into the first F-column, then N - 1 full columns
    and a final F-column.  The head arrow is always unscaled: the
    periodicity ladder is a chain map only when the head arrow matches the
    interior arrows, so flipping beta_sign alone is a genuine control."""
    alg = a.map.tgt.alg
    hmap = shift_map(b.map, -b.scalar.n)
    layers = [zero_complex(alg), _unit_atom(alg)]
    gmaps = [None]
    for k in range(1, N + 1):
        layers.append(_f_layer(a, b, k))
        gmaps.append(hmap if k == 1 else _beta_k(a, b, k - 1, beta_sign))
        if k < N:
            layers.append(_s_layer(a, b, k, alg))
            gmaps.append(_alpha_k(a, b, k))
    return layers, gmaps


def _tot_layers_of(layers, extra_shift=0):
    out = []
    for i, L in enumerate(layers):
        s = (1 if i % 2 else 0) + extra_shift
        out.append(shift(L, s) if s else L)
    return out


def build_Cab(a, b, w, direction=DEFAULT_DIRECTION, flip=False):
    """First truncation: copies of Cone(a) glued by -b.  flip negates the
    interior gluing sign (a deliberately broken control)."""
    if direction == "below":
        return _build_head_kind(b, a, w, "Cab", direction, flip)
    return _build_plain_kind(a, b, w, "Cab", direction, flip)


def build_Cba(a, b, w, direction=DEFAULT_DIRECTION, flip=False):
    """Second truncation: a unit head plus copies of Cone(b), shifted down
    by one.  flip negates the interior gluing sign only, breaking its
    coupling with the head arrow (a deliberately broken control)."""
    if direction == "below":
        return _build_plain_kind(b, a, w, "Cba", direction, flip)
    return _build_head_kind(a, b, w, "Cba", direction, flip)


def _build_plain_kind(a, b, w, tag, direction, flip=False):
    per = _check_pair(a, b, direction)
    layers, gmaps = _plain_zigzag(a, b, w.depth, 1 if flip else -1)
    cx = zigzag_tot(layers, gmaps)
    return TruncatedPeriodic(cx, w, per, tag, kind="plain", a=a, b=b,
                             tot_layers=_tot_layers_of(layers),
                             direction=direction)


def _build_head_kind(a, b, w, tag, direction, flip=False):
    per = _check_pair(a, b, direction)
    layers, gmaps = _head_zigzag(a, b, w.depth, -1 if flip else 1)
    cx = shift(zigzag_tot(layers, gmaps), -1)
    return TruncatedPeriodic(cx, w, per, tag, kind="head", a=a, b=b,
                             tot_layers=_tot_layers_of(layers, extra_shift=-1),
                             direction=direction)


# -- layout helpers ----------------------------------------------------------

def _layer_offsets(layers, d):
    out = []
    off = 0
    for i, L in enumerate(layers):
        dim = L.term(d).dim
        out.append((i, off, dim))
        off += dim
    return out


def _block_map(src_layers, tgt_layers, src_cx, tgt_cx, index_map,
               src_degree_shift=0, extra=None, block_sign=None):
    """Components of a degree-zero map placing identity blocks from source
    layer i into target layer index_map(i).  src_cx.term(d) must decompose
    along src_layers at degree d + src_degree_shift.  extra maps a degree to
    a list of (row, col, value) entries added on top.  block_sign(j) gives
    an integer coefficient for the block landing in target layer j."""
    ring = tgt_cx.alg.ring
    comps = {}
    for d in range(src_cx.min_deg, src_cx.max_deg + 1):
        sd = d + src_degree_shift
        rows = tgt_cx.term(d).dim
        cols = src_cx.term(d).dim
        if rows == 0 or cols == 0:
            continue
        soffs = _layer_offsets(src_layers, sd)
        toffs = {i: (off, dim)
                 for (i, off, dim) in _layer_offsets(tgt_layers, d)}
        ent = [ring.zero()] * (rows * cols)
        any_nz = False
        for i, soff, sdim in soffs:
            if sdim == 0:
                continue
            j = index_map(i)
            if j is None:
                continue
            toff, tdim = toffs[j]
            assert tdim == sdim
            val = ring.one() if block_sign is None \
                else ring.coerce(block_sign(j))
            for r in range(sdim):
                ent[(toff + r) * cols + (soff + r)] = val
            any_nz = True
        if extra and d in extra:
            for (r, c_, v) in extra[d]:
                ent[r * cols + c_] = v
                any_nz = True
        if any_nz:
            comps[d] = Matrix(ring, rows, cols, ent, _trusted=True)
    return comps


def periodicity_map(tp):
    """The column-shift endomorphism: identity on columns that have a shift
    target, zero on the columns falling off the truncation edge."""
    if tp.kind not in ("plain", "head"):
        raise ValueError("periodicity is defined for single zigzag builds")
    n = len(tp.tot_layers)
    if tp.kind == "plain":
        src_shift = tp.period_shift

        def index_map(i):
            return i + 2 if i + 2 < n else None
    else:
        src_shift = -tp.period_shift

        def index_map(i):
            return i - 2 if i - 2 >= 1 else None
    src = shift(tp.complex, src_shift)
    comps = _block_map(tp.tot_layers, tp.tot_layers, src, tp.complex,
                       index_map, src_shift)
    return ChainMap(src, tp.complex, 0, comps)


# -- triangle and the canonical decomposition map ---------------------------

def _head_build(a, b, w, direction, flip=False):
    if direction == "below":
        return build_Cab(a, b, w, direction, flip)
    return build_Cba(a, b, w, direction, flip)


def _plain_build(a, b, w, direction, flip=False):
    if direction == "below":
        return build_Cba(a, b, w, direction, flip)
    return build_Cab(a, b, w, direction, flip)


def head_projection(tp):
    """Projection of a head-kind truncation onto its unit head layer."""
    if tp.kind != "head":
        raise ValueError("head projection needs a head-kind build")
    ring = tp.complex.alg.ring
    head = tp.tot_layers[1]
    d0 = head.min_deg
    offs = {i: (off, dim)
            for (i, off, dim) in _layer_offsets(tp.tot_layers, d0)}
    hoff, hdim = offs[1]
    full = tp.complex.term(d0).dim
    ent = [ring.zero()] * (hdim * full)
    for r in range(hdim):
        ent[r * full + hoff + r] = ring.one()
    return ChainMap(tp.complex, head, 0,
                    {d0: Matrix(ring, hdim, full, ent, _trusted=True)})


def _interior_plain(a, b, w):
    """The plain zigzag with the trailing scalar column dropped; it embeds
    into the head-kind build as the complement of the head."""
    layers, gmaps = _plain_zigzag(a, b, w.depth, drop_tail=True)
    return zigzag_tot(layers, gmaps), _tot_layers_of(layers)


def canonical_map(a, b, w, direction=DEFAULT_DIRECTION):
    """The chain map (interior first truncation)[-1] -> second truncation
    whose cone realizes the unit: inclusion of everything except the head."""
    htp = _head_build(a, b, w, direction)
    if direction == "below":
        icx, ilayers = _interior_plain(b, a, w)
    else:
        icx, ilayers = _interior_plain(a, b, w)
    src = shift(icx, -1)
    src_layers = [shift(L, -1) for L in ilayers]
    comps = _block_map(src_layers, htp.tot_layers, src, htp.complex,
                       lambda i: i + 2,
                       block_sign=lambda j: (-1) ** (j // 2))
    return ChainMap(src, htp.complex, 0, comps), htp


def _cone_collapse(htp, ptp, cn, hmap_signed):
    """cone(head projection) -> plain build: identity on the shared layers,
    zero on the head pair, with the gluing correction on the unit column."""
    head = htp.tot_layers[1]
    src_layers = [shift(L, 1) for L in htp.tot_layers] + [head]
    nh = len(htp.tot_layers)

    def index_map(i):
        if i < 2 or i >= nh:
            return None
        return i - 2
    # correction: the appended unit column maps by minus the head gluing
    # into the first F-layer (which sits at offset zero)
    d0 = head.min_deg
    ring = cn.alg.ring
    ucol = htp.complex.term(d0 + 1).dim
    hm = hmap_signed.comp(d0)
    extra = {d0: [(r, ucol, ring.neg(hm[r, 0])) for r in range(hm.rows)
                  if hm[r, 0] != ring.zero()]}
    comps = _block_map(src_layers, ptp.tot_layers, cn, ptp.complex,
                       index_map, 0, extra,
                       block_sign=lambda j: (-1) ** (j // 2))
    return ChainMap(cn, ptp.complex, 0, comps)


def _stable(run, w):
    """Run a windowed judgment at depth and depth + 2; demand agreement and
    matching homology tables on the shared interior window."""
    v1, t1 = run(w)
    v2, t2 = run(w.deeper())
    if v1.status == INCONCLUSIVE:
        return v1
    if v2.status == INCONCLUSIVE:
        return v2
    if v1.status != v2.status:
        return Verdict(INCONCLUSIVE,
                       reason=f"depth {w.depth} gives {v1.status} but depth "
                              f"{w.depth + 2} gives {v2.status}")
    if t1 is not None and t2 is not None:
        c1, lo1, hi1 = t1
        c2, lo2, hi2 = t2
        lo = max(lo1, lo2) + 1
        hi = min(hi1, hi2)
        h1 = {d: v for d, v in homology(c1).items() if lo <= d <= hi}
        h2 = {d: v for d, v in homology(c2).items() if lo <= d <= hi}
        if h1 != h2:
            return Verdict(INCONCLUSIVE,
                           reason="stable-window homology changed with depth")
    return Verdict(v1.status, witness=v1.witness, reason=v1.reason)


def triangle_check(a, b, w, direction=DEFAULT_DIRECTION, seed=0xC0FFEE):
    """Cone of the head projection against the plain truncation, judged on
    the stable window at the given depth and at depth + 2."""

    def run(wk):
        htp = _head_build(a, b, wk, direction)
        ptp = _plain_build(a, b, wk, direction)
        pi = head_projection(htp)
        cn = cone(pi)
        bb = a if direction == "below" else b
        hmap_signed = shift_map(bb.map, -bb.scalar.n)
        try:
            phi = _cone_collapse(htp, ptp, cn, hmap_signed)
        except (ValueError, NotAChainMap):
            phi = None
        lo1, hi1 = window_bounds(cn, wk, direction)
        lo2, hi2 = window_bounds(ptp.complex, wk, direction)
        if direction == "above":
            lo, hi = max(lo1, lo2), max(hi1, hi2)
        else:
            lo, hi = min(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return Verdict(INCONCLUSIVE, reason=EMPTY_WINDOW), None
        r1 = restrict(cn, lo, hi)
        r2 = restrict(ptp.complex, lo, hi)
        cand = restrict_map(phi, lo, hi) if phi is not None else None
        v = equivalent(r1, r2, candidate=cand, seed=seed)
        return v, (r2, lo, hi)
    return _stable(run, w)


# -- partial operators and the compact description ---------------------------

def partial_map(a, b):
    """The operator on Cone(a) built from -b: its only component feeds the
    scalar part of a shifted copy into the underlying part."""
    na, nb = a.scalar.n, b.scalar.n
    cn = cone(a.map)
    src = shift(cn, nb - na - 1)
    ring = cn.alg.ring
    comps = {}
    for d, m in b.map.comps.items():
        rows = cn.term(d).dim
        cols = src.term(d).dim
        if rows == 0 or cols == 0:
            continue
        foff = rows - a.map.tgt.term(d).dim
        ent = [ring.zero()] * (rows * cols)
        for r in range(m.rows):
            for c_ in range(m.cols):
                ent[(foff + r) * cols + c_] = ring.neg(m[r, c_])
        mat = Matrix(ring, rows, cols, ent, _trusted=True)
        if not mat.is_zero():
            comps[d] = mat
    return ChainMap(src, cn, 0, comps)


def _copy_data(tp):
    """Copies, layout positions, cross maps and poset of the compact
    description of a single zigzag build."""
    a, b = tp.a, tp.b
    na, nb = a.scalar.n, b.scalar.n
    per = na - nb
    N = tp.window.depth
    copies, where = [], []
    cross = {}
    if tp.kind == "plain":
        g = a.map
        for k in range(N):
            copies.append(shift(cone(g), k * per - nb))
            where.append({0: 2 * k + 1, 1: 2 * k})
        par = partial_map(a, b)
        m = par.comps.get(-nb)
        for k in range(N - 1):
            if m is not None:
                cross[(k + 1, k)] = ChainMap(
                    copies[k], copies[k + 1], 1,
                    {-(k + 1) * per - 1: m}, check=False)
        rel = {(j, i) for i in range(N) for j in range(i + 1)}
    else:
        g = b.map
        for k in range(N):
            copies.append(shift(cone(g), k * per - nb - 1))
            where.append({0: (1 if k == 0 else 2 * k + 1), 1: 2 * k + 2})
        par = partial_map(b, a)
        m = par.comps.get(-na)
        for k in range(N - 1):
            if m is not None:
                cross[(k, k + 1)] = ChainMap(
                    copies[k + 1], copies[k], 1,
                    {-(k + 1) * per: m}, check=False)
        rel = {(i, j) for i in range(N) for j in range(i + 1)}
    poset = Poset(range(N), rel)
    return copies, where, cross, poset, g


def _degree_perms(tp, copies, where, g, predicted):
    """Per degree, list mapping predicted coordinates (copies in order,
    scalar part before underlying part) to actual zigzag coordinates."""
    out = {}
    cone_min = cone(g).min_deg
    for d in range(predicted.min_deg, predicted.max_deg + 1):
        n = predicted.term(d).dim
        perm = [None] * n
        aoffs = [off for (_, off, _) in _layer_offsets(tp.tot_layers, d)]
        poff = 0
        for k, cn in enumerate(copies):
            tdim = cn.term(d).dim
            if tdim == 0:
                continue
            t = cone_min - cn.min_deg
            sdim = g.src.term(d + t + 1).dim
            fdim = g.tgt.term(d + t).dim
            assert sdim + fdim == tdim
            si, fi = where[k][0], where[k][1]
            for r in range(sdim):
                perm[poff + r] = aoffs[si] + r
            for r in range(fdim):
                perm[poff + sdim + r] = aoffs[fi] + r
            poff += tdim
        out[d] = perm
    return out


def _compare_perm(actual, predicted, perms):
    lo = min(actual.min_deg, predicted.min_deg)
    hi = max(actual.max_deg, predicted.max_deg)
    for d in range(lo, hi + 1):
        if actual.term(d).dim != predicted.term(d).dim:
            return f"term dimension differs in degree {d}"
    for d in range(lo, hi):
        pd = predicted.diff(d)
        ad = actual.diff(d)
        ps = perms.get(d) or []
        pt = perms.get(d + 1) or []
        for r in range(pd.rows):
            for c_ in range(pd.cols):
                if pd[r, c_] != ad[pt[r], ps[c_]]:
                    return (f"differential mismatch in degree {d} at "
                            f"predicted entry ({r}, {c_})")
    return None


def verify_compact_description(a, b, w, kind="Cab",
                               direction=DEFAULT_DIRECTION,
                               zero_partial=False):
    """Rebuild the truncation as a chain of cone copies with the partial
    operator as the only cross term, and compare entrywise after aligning
    the block orders.  zero_partial replaces the cross terms by zero (the
    naive direct sum), which must fail the comparison."""
    tp = (build_Cab if kind == "Cab" else build_Cba)(a, b, w, direction)
    copies, where, cross, poset, g = _copy_data(tp)
    if zero_partial:
        cross = {}
    twisted = TwistedComplex(poset, dict(enumerate(copies)), cross)
    try:
        predicted = tot(twisted, order=list(range(len(copies))), check=True)
    except (CurvatureViolation, ValueError) as e:
        return Verdict(FAIL, reason=f"predicted rebuild is not a complex: {e}")
    perms = _degree_perms(tp, copies, where, g, predicted)
    bad = _compare_perm(tp.complex, predicted, perms)
    if bad is None:
        return Verdict(PASS, witness=predicted)
    return Verdict(FAIL, reason=bad)


# -- quasi-idempotents and projectors ----------------------------------------

def _required_certs(maps, i):
    need = [("w", j) for j in range(len(maps)) if j != i]
    for j in range(len(maps)):
        for k in range(j + 1, len(maps)):
            need.append(("z", j, k))
    return need


def _certs_verdict(maps, i, certificates):
    missing = [key for key in _required_certs(maps, i)
               if certificates is None or key not in certificates]
    if missing:
        return Verdict(INCONCLUSIVE,
                       reason=f"missing certificates: {missing}")
    bad = [key for key in _required_certs(maps, i)
           if not getattr(certificates[key], "passed", False)]
    if bad:
        return Verdict(INCONCLUSIVE, reason=f"failed certificates: {bad}")
    return None


def build_K(maps, i, ordering=None):
    """Tensor product of the cones of all maps except the i-th."""
    idx = ordering if ordering is not None else \
        [j for j in range(len(maps)) if j != i]
    if i in idx:
        raise ValueError("ordering must omit the excluded index")
    out = _unit_atom(maps[i].map.tgt.alg)
    for j in idx:
        out = tensor(out, cone(maps[j].map))
    return out


def quasi_idempotent_check(maps, i, certificates=None, candidate=None,
                           seed=0xC0FFEE):
    """K_i (x) K_i against the scalar-doubled K_i; requires obstruction
    certificates on file, otherwise inconclusive."""
    gate = _certs_verdict(maps, i, certificates)
    if gate is not None:
        return gate
    alg = maps[i].map.tgt.alg
    K = build_K(maps, i)
    lhs = tensor(K, K)
    rhs = K
    ni = maps[i].scalar.n
    for j in range(len(maps)):
        if j == i:
            continue
        sc = direct_sum(shift(_unit_atom(alg), ni),
                        shift(_unit_atom(alg), maps[j].scalar.n + 1))
        rhs = tensor(sc, rhs)
    return equivalent(lhs, rhs, candidate=candidate, seed=seed)


def _factor_builds(maps, i, w, direction):
    out = []
    for j in range(len(maps)):
        if j == i:
            continue
        if j > i:
            out.append((j, build_Cab(maps[j], maps[i], w, direction)))
        else:
            out.append((j, build_Cba(maps[i], maps[j], w, direction)))
    return out


def _check_ladder(maps, direction):
    for j in range(len(maps) - 1):
        d = maps[j + 1].scalar.n - maps[j].scalar.n
        if not ScalarShift(d).is_small(direction):
            raise SmallnessViolated(
                f"consecutive scalars {j}, {j + 1} differ by {d}")


def build_P(maps, i, w, ordering=None, direction=DEFAULT_DIRECTION):
    """Tensor of the truncated interpolation factors around index i."""
    _check_ladder(maps, direction)
    factors = dict(_factor_builds(maps, i, w, direction))
    idx = ordering if ordering is not None else \
        [j for j in range(len(maps)) if j != i]
    if len(idx) == 1:
        tp = factors[idx[0]]
        return TruncatedPeriodic(tp.complex, w, tp.period_shift, f"P:{i}",
                                 kind=tp.kind, a=tp.a, b=tp.b,
                                 tot_layers=tp.tot_layers,
                                 direction=direction)
    cx = factors[idx[0]].complex
    for j in idx[1:]:
        cx = tensor(cx, factors[j].complex)
    g = 0
    for j in idx:
        p = abs(factors[j].period_shift)
        while p:
            g, p = p, g % p
    wP = TruncationWindow(w.depth, w.edge * len(idx))
    return TruncatedPeriodic(cx, wP, g, f"P:{i}", kind="tensor",
                             direction=direction, check=False)


def verify_P_koszul(maps, i, w, direction=DEFAULT_DIRECTION,
                    zero_partial=False):
    """Rebuild the truncated projector as a grid of cone-copy tensors with
    the signed partial operators as cross terms, and compare entrywise."""
    _check_ladder(maps, direction)
    factors = _factor_builds(maps, i, w, direction)
    if len(factors) == 1:
        j, _ = factors[0]
        if j > i:
            return verify_compact_description(maps[j], maps[i], w, "Cab",
                                              direction, zero_partial)
        return verify_compact_description(maps[i], maps[j], w, "Cba",
                                          direction, zero_partial)
    if len(factors) != 2:
        raise NotImplementedError(
            "grid comparison implemented for at most two factors")
    preds, perms_all, tps = [], [], []
    for j, tp in factors:
        copies, where, cross, poset, g = _copy_data(tp)
        if zero_partial:
            cross = {}
        twisted = TwistedComplex(poset, dict(enumerate(copies)), cross)
        try:
            p = tot(twisted, order=list(range(len(copies))), check=True)
        except (CurvatureViolation, ValueError) as e:
            return Verdict(FAIL,
                           reason=f"predicted rebuild is not a complex: {e}")
        preds.append(p)
        perms_all.append(_degree_perms(tp, copies, where, g, p))
        tps.append(tp)
    actual = tensor(tps[0].complex, tps[1].complex)
    predicted = tensor(preds[0], preds[1])
    bad = _tensor_compare(tps[0].complex, tps[1].complex, preds[0], preds[1],
                          perms_all[0], perms_all[1], actual, predicted)
    if bad is None:
        return Verdict(PASS, witness=predicted)
    return Verdict(FAIL, reason=bad)


def _tensor_compare(a1, a2, p1, p2, perm1, perm2, actual, predicted):
    """Entrywise comparison of two binary tensor products whose factors
    match up to the given per-degree coordinate permutations."""

    def perm_at(n):
        lay_p = tensor_layout(p1, p2, n)
        lay_a = tensor_layout(a1, a2, n)
        apos = {(i_, j_): off for (i_, j_, off, _) in lay_a}
        out = [None] * predicted.term(n).dim
        for (i_, j_, off, _) in lay_p:
            d2 = p2.term(j_).dim
            aoff = apos[(i_, j_)]
            q1 = perm1[i_]
            q2 = perm2[j_]
            for r1 in range(p1.term(i_).dim):
                for r2 in range(d2):
                    out[off + r1 * d2 + r2] = aoff + q1[r1] * d2 + q2[r2]
        return out

    if (actual.min_deg, actual.max_deg) != (predicted.min_deg,
                                            predicted.max_deg):
        return "support differs"
    for n in range(predicted.min_deg, predicted.max_deg + 1):
        if actual.term(n).dim != predicted.term(n).dim:
            return f"term dimension differs in degree {n}"
    pn = perm_at(predicted.min_deg)
    for n in range(predicted.min_deg, predicted.max_deg):
        pn1 = perm_at(n + 1)
        pd = predicted.diff(n)
        ad = actual.diff(n)
        for r in range(pd.rows):
            for c_ in range(pd.cols):
                if pd[r, c_] != ad[pn1[r], pn[c_]]:
                    return f"differential mismatch in tensor degree {n}"
        pn = pn1
    return None


# -- eigen action ---------------------------------------------------------

def rho(a_num, a_den, m):
    """Quotient action of one eigenmap by another on a genuine eigenobject:
    invert the denominator action up to homotopy, compose with the
    numerator action."""
    v = is_eigenobject(a_den, m)
    if not v.passed:
        raise NotAnEigenobject(
            f"not an eigenobject for the denominator: {v.reason}")
    f = tensor_maps(a_den.map, identity_map(m))
    hv = homotopy_inverse(f)
    if not hv.passed:
        raise NotAnEigenobject("denominator action has no homotopy inverse")
    psi = hv.witness[0]
    return psi.compose(tensor_maps(a_num.map, identity_map(m)))


def verify_eigenaction(maps, i, w, certificates=None,
                       direction=DEFAULT_DIRECTION, j=None, flip=False,
                       zero_quotient=False):
    """Periodicity against the scalar quotient on each truncated factor: the
    two induced maps into F (x) C must differ by a boundary on the stable
    window, at the given depth and at depth + 2.  zero_quotient replaces the
    periodicity map by zero: the comparison must then fail."""
    gate = _certs_verdict(maps, i, certificates)
    if gate is not None:
        return gate
    if j is not None and j == i:
        return Verdict(PASS, reason="same index: both maps coincide")
    js = [j] if j is not None else [k for k in range(len(maps)) if k != i]

    def run_one(jj, wk):
        if jj > i:
            tp = build_Cab(maps[jj], maps[i], wk, direction, flip)
        else:
            tp = build_Cba(maps[i], maps[jj], wk, direction, flip)
        C = tp.complex
        try:
            u = periodicity_map(tp)
        except ValueError as e:
            return Verdict(FAIL, reason=f"periodicity is not a chain map "
                                        f"under this convention: {e}"), None
        if zero_quotient:
            u = ChainMap(u.src, u.tgt, 0, {}, check=False)
        m1 = tensor_maps(maps[jj].map, identity_map(C))
        m2 = tensor_maps(maps[i].map, u)
        if m1.src != m2.src or m1.tgt != m2.tgt:
            return Verdict(FAIL, reason="induced maps live on different "
                                        "complexes"), None
        lo, hi = window_bounds(m1.tgt, wk, direction)
        if lo > hi:
            return Verdict(INCONCLUSIVE, reason=EMPTY_WINDOW), None
        v = solve_null_homotopy(m1 - m2, equation_degrees=(lo, hi))
        clo, chi = window_bounds(C, wk, direction)
        return v, (restrict(C, clo, chi), clo, chi)

    for jj in js:
        v = _stable(lambda wk, _j=jj: run_one(_j, wk), w)
        if not v.passed:
            return v
    return Verdict(PASS)
