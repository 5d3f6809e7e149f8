"""Obstruction calculus for commutativity of mapping cones and zigzag
totals: commutation homotopies, secondary obstruction cycles, the self
obstruction, bounding homotopies, explicit commutation equivalences, and
certificates that re-verify from raw data on every use."""

from .exactlinalg import Matrix, matrix_to_json, matrix_from_json
from .complexes import (
    Complex, ChainMap, Homotopy, atom, shift, tensor, tensor_maps,
    bracket, maps_equal, _is_invertible,
    identity_map, zero_map, swap, cone, direct_sum, tensor_layout,
    solve_null_homotopy, is_contractible, equivalent,
    complex_to_json, complex_from_json,
    Verdict, PASS, FAIL, INCONCLUSIVE,
)
from .convolutions import zigzag_twisted, zigzag_tot, tot


class HomotopyEquationViolated(Exception):
    pass


class MissingCertificate(Exception):
    pass


def _require_equation(h, rhs, what):
    if not maps_equal(bracket(h), rhs):
        raise HomotopyEquationViolated(
            f"{what} does not satisfy its defining equation")


class CommutationCertificate:
    """Named homotopies together with the equations they must satisfy.

    subject: tuple of labels identifying the pair of objects/maps involved.
    homotopies: dict name -> graded map.
    obligations: list of (name, rhs) with [d, homotopies[name]] == rhs.
    Every access path re-verifies; nothing is trusted from storage.
    """

    __slots__ = ("subject", "homotopies", "obligations")

    def __init__(self, subject, homotopies, obligations):
        self.subject = tuple(subject)
        self.homotopies = dict(homotopies)
        self.obligations = list(obligations)
        self.reverify(strict=True)

    def reverify(self, strict=False):
        for name, rhs in self.obligations:
            h = self.homotopies.get(name)
            if h is None:
                if strict:
                    raise MissingCertificate(f"no homotopy named {name!r}")
                return Verdict(FAIL, reason=f"no homotopy named {name!r}")
            if not maps_equal(bracket(h), rhs):
                if strict:
                    raise HomotopyEquationViolated(
                        f"stored homotopy {name!r} fails its equation")
                return Verdict(FAIL,
                               reason=f"homotopy {name!r} fails its equation")
        return Verdict(PASS)

    @property
    def passed(self):
        return self.reverify().passed

    def get(self, name):
        if name not in self.homotopies:
            raise MissingCertificate(f"certificate has no {name!r}")
        return self.homotopies[name]


# -- primary obstruction -------------------------------------------------------

def _commutation_defect(g, F, phi0=None, phi1=None):
    """phi1 (g (x) id_F) - (id_F (x) g) phi0 for g: G0 -> G1."""
    if phi0 is None:
        phi0 = swap(g.src, F)
    if phi1 is None:
        phi1 = swap(g.tgt, F)
    lhs = phi1.compose(tensor_maps(g, identity_map(F)))
    rhs = tensor_maps(identity_map(F), g).compose(phi0)
    return lhs - rhs


def commutation_homotopy(a, f):
    """Homotopy h with [d, h] = defect of commuting the map of a past f.

    With the braiding of the base category the defect vanishes strictly for
    maps whose components sit in even degrees, and h = 0 is returned; in
    general an exact linear solve is attempted."""
    g = a.map if hasattr(a, "map") else a
    defect = _commutation_defect(g, f)
    if defect.is_zero():
        h = Homotopy(defect.src, defect.tgt, -1, {})
        return Verdict(PASS, witness=h)
    return solve_null_homotopy(defect)


def commutation_certificate(a, f, subject=("map", "object")):
    v = commutation_homotopy(a, f)
    if not v.passed:
        return None, v
    g = a.map if hasattr(a, "map") else a
    return CommutationCertificate(
        subject, {"h": v.witness},
        [("h", _commutation_defect(g, f))]), v


# -- secondary obstruction -----------------------------------------------------

def _phi(phis, i, j, g_i, f_j):
    if phis is not None and (i, j) in phis:
        return phis[(i, j)]
    return swap(g_i, f_j)


def _hk_obligations(f, g, phis):
    """Right-hand sides of the h/k equations, keyed h0, k0, h1, k1:
    [d, h_i] = phi_{i,1} (id_{G_i} (x) f) - (f (x) id_{G_i}) phi_{i,0},
    [d, k_i] = phi_{1,i} (g (x) id_{F_i}) - (id_{F_i} (x) g) phi_{0,i}."""
    G = [g.src, g.tgt]
    F = [f.src, f.tgt]
    out = {}
    for i in (0, 1):
        out[f"h{i}"] = _phi(phis, i, 1, G[i], F[1]).compose(
            tensor_maps(identity_map(G[i]), f)) \
            - tensor_maps(f, identity_map(G[i])).compose(
                _phi(phis, i, 0, G[i], F[0]))
        out[f"k{i}"] = _phi(phis, 1, i, G[1], F[i]).compose(
            tensor_maps(g, identity_map(F[i]))) \
            - tensor_maps(identity_map(F[i]), g).compose(
                _phi(phis, 0, i, G[0], F[i]))
    return out


def z_cycle(f, g, hs, ks, phis=None):
    """Secondary obstruction to commuting the cones of f and g.

    f: F0 -> F1 and g: G0 -> G1; hs = (h0, h1) and ks = (k0, k1) satisfy
    the equations of _hk_obligations.  Both families are re-verified before
    the cycle
    z = h1 (g (x) id) - (id (x) g) h0 - k1 (id (x) f) + (f (x) id) k0
    is assembled and checked to be closed."""
    F = [f.src, f.tgt]
    G = [g.src, g.tgt]
    rhs = _hk_obligations(f, g, phis)
    for name, h in (("h0", hs[0]), ("h1", hs[1]), ("k0", ks[0]),
                    ("k1", ks[1])):
        _require_equation(h, rhs[name], name)
    z = hs[1].compose(tensor_maps(g, identity_map(F[0]))) \
        - tensor_maps(identity_map(F[1]), g).compose(hs[0]) \
        - ks[1].compose(tensor_maps(identity_map(G[0]), f)) \
        + tensor_maps(f, identity_map(G[1])).compose(ks[0])
    if bracket(z).is_zero():
        return z, Verdict(PASS)
    return z, Verdict(FAIL, reason="assembled element is not a cycle")


def bound_cycle(z):
    """Bounding homotopy for a degree -1 cycle: [d, l] = z with |l| = -2."""
    if z.is_zero():
        return Verdict(PASS, witness=Homotopy(z.src, z.tgt, z.degree - 1, {}))
    return solve_null_homotopy(z)


def secondary_certificate(f, g, hs, ks, phis=None,
                          subject=("cone(f)", "cone(g)")):
    """Full certificate for commuting Cone(f) past Cone(g): the h/k
    homotopies, the obstruction cycle, and a bounding homotopy for it."""
    z, v = z_cycle(f, g, hs, ks, phis)
    if not v.passed:
        return None, v
    bv = bound_cycle(z)
    if not bv.passed:
        return None, Verdict(FAIL,
                             reason="obstruction cycle is not bounded: "
                                    + (bv.reason or ""))
    homotopies = {"l": bv.witness, "h0": hs[0], "k0": ks[0],
                  "h1": hs[1], "k1": ks[1]}
    obligations = list(_hk_obligations(f, g, phis).items())
    obligations.append(("l", z))
    return CommutationCertificate(subject, homotopies, obligations), \
        Verdict(PASS)


# -- self obstruction ------------------------------------------------------------

def w_cycle(a, h):
    """Self obstruction w = h (id_lam (x) a) for an eigenmap a with
    commutation homotopy h; re-verifies h and checks w is a cycle."""
    g = a.map if hasattr(a, "map") else a
    lam = g.src
    F = g.tgt
    bh = bracket(h)
    if not (maps_equal(bh, _commutation_defect(g, F))
            or maps_equal(bh, tensor_maps(g, identity_map(F))
                          - tensor_maps(identity_map(F), g).compose(
                              swap(lam, F)))):
        raise HomotopyEquationViolated(
            "h does not satisfy its defining equation")
    w = h.compose(tensor_maps(identity_map(lam), g))
    if bracket(w).is_zero():
        return w, Verdict(PASS)
    return w, Verdict(FAIL, reason="assembled element is not a cycle")


# -- cone bookkeeping --------------------------------------------------------------

def _tindex(A, B, n):
    """(deg_A, deg_B, row_in_A, row_in_B) -> position in (A (x) B)_n."""
    out = {}
    for (i, j, off, _dim) in tensor_layout(A, B, n):
        da, db = A.term(i).dim, B.term(j).dim
        for p in range(da):
            for q in range(db):
                out[(i, j, p, q)] = off + p * db + q
    return out


def cone_assoc_left(g, F, inverse=False):
    """Strict iso Cone(g) (x) F -> Cone(g (x) id_F) (or its inverse).

    Both sides have the same summands in each degree; the identification is
    the identity on every basis vector."""
    ring = F.alg.ring
    C = cone(g)
    prod = tensor(C, F)
    gi = tensor_maps(g, identity_map(F))
    cn = cone(gi)
    comps = {}
    for n in range(prod.min_deg, prod.max_deg + 1):
        dp, dc = prod.term(n).dim, cn.term(n).dim
        if dp == 0 or dc == 0:
            continue
        xdim = gi.src.term(n + 1).dim
        xi = _tindex(g.src, F, n + 1)
        yi = _tindex(g.tgt, F, n)
        rows, cols = (dp, dc) if inverse else (dc, dp)
        e = [ring.zero()] * (rows * cols)
        for (i, j, off, _dim) in tensor_layout(C, F, n):
            g0 = g.src.term(i + 1).dim
            dF = F.term(j).dim
            for p in range(C.term(i).dim):
                for q in range(dF):
                    a = off + p * dF + q
                    if p < g0:
                        b = xi[(i + 1, j, p, q)]
                    else:
                        b = xdim + yi[(i, j, p - g0, q)]
                    r, c = (a, b) if inverse else (b, a)
                    e[r * cols + c] = ring.one()
        comps[n] = Matrix(ring, rows, cols, e, _trusted=True)
    if inverse:
        return ChainMap(cn, prod, 0, comps)
    return ChainMap(prod, cn, 0, comps)


def cone_assoc_right(F, g, inverse=False):
    """Strict iso Cone(id_F (x) g) -> F (x) Cone(g) (or its inverse).

    The shifted summand picks up the sign (-1)^(F-degree): moving the
    suspension past the left tensor factor costs one braiding per odd
    degree."""
    ring = F.alg.ring
    C = cone(g)
    prod = tensor(F, C)
    ig = tensor_maps(identity_map(F), g)
    cn = cone(ig)
    comps = {}
    for n in range(prod.min_deg, prod.max_deg + 1):
        dp, dc = prod.term(n).dim, cn.term(n).dim
        if dp == 0 or dc == 0:
            continue
        xdim = ig.src.term(n + 1).dim
        rows, cols = (dc, dp) if inverse else (dp, dc)
        e = [ring.zero()] * (rows * cols)
        tl = {(j, i): off for (j, i, off, _d) in tensor_layout(F, C, n)}
        for (b, a, off, _dim) in tensor_layout(F, g.src, n + 1):
            i = a - 1
            dF, dG = F.term(b).dim, g.src.term(a).dim
            cdim = C.term(i).dim
            toff = tl.get((b, i))
            if toff is None:
                continue
            sgn = ring.coerce((-1) ** b)
            for q in range(dF):
                for p in range(dG):
                    s = off + q * dG + p
                    t = toff + q * cdim + p
                    r, c = (s, t) if inverse else (t, s)
                    e[r * cols + c] = sgn
        for (b, i, off, _dim) in tensor_layout(F, g.tgt, n):
            dF, dG = F.term(b).dim, g.tgt.term(i).dim
            g0 = g.src.term(i + 1).dim
            cdim = C.term(i).dim
            toff = tl.get((b, i))
            if toff is None:
                continue
            for q in range(dF):
                for p in range(dG):
                    s = xdim + off + q * dG + p
                    t = toff + q * cdim + g0 + p
                    r, c = (s, t) if inverse else (t, s)
                    e[r * cols + c] = ring.one()
        comps[n] = Matrix(ring, rows, cols, e, _trusted=True)
    if inverse:
        return ChainMap(prod, cn, 0, comps)
    return ChainMap(cn, prod, 0, comps)


def cone_square_map(top, bottom, left, right, corner):
    """Functorial map Cone(top) -> Cone(bottom) of a square commuting up to
    the supplied corner homotopy: [d, corner] = right top - bottom left.

    The equation is re-verified exactly; the induced map has blocks
    [[left, 0], [corner, right]] in cone coordinates."""
    rhs = right.compose(top) - bottom.compose(left)
    _require_equation(corner, rhs, "corner")
    ring = top.src.alg.ring
    Ct, Cb = cone(top), cone(bottom)
    comps = {}
    for n in range(Ct.min_deg, Ct.max_deg + 1):
        rows, cols = Cb.term(n).dim, Ct.term(n).dim
        if rows == 0 or cols == 0:
            continue
        a = top.src.term(n + 1).dim
        c = bottom.src.term(n + 1).dim
        L = left.comp(n + 1)
        R = right.comp(n)
        H = corner.comp(n + 1)
        e = [ring.zero()] * (rows * cols)
        for r in range(c):
            for q in range(a):
                e[r * cols + q] = L[r, q]
        for r in range(bottom.tgt.term(n).dim):
            for q in range(a):
                e[(c + r) * cols + q] = H[r, q]
            for q in range(top.tgt.term(n).dim):
                e[(c + r) * cols + (a + q)] = R[r, q]
        comps[n] = Matrix(ring, rows, cols, e, _trusted=True)
    return ChainMap(Ct, Cb, 0, comps)


def cone_commuting_map(g, F, phi0=None, phi1=None, k=None):
    """Chain map Cone(g) (x) F -> F (x) Cone(g) induced by the square with
    verticals phi0, phi1 and corner k ([d, k] = phi1 (g (x) id) - (id (x) g) phi0)."""
    if phi0 is None:
        phi0 = swap(g.src, F)
    if phi1 is None:
        phi1 = swap(g.tgt, F)
    top = tensor_maps(g, identity_map(F))
    bottom = tensor_maps(identity_map(F), g)
    if k is None:
        k = Homotopy(top.src, bottom.tgt, -1, {})
    inner = cone_square_map(top, bottom, phi0, phi1, k)
    return cone_assoc_right(F, g).compose(
        inner).compose(cone_assoc_left(g, F))


def _sector_left(g, F, n):
    """Positions of the two cone sectors inside (Cone(g) (x) F)_n.

    Returns (sub -> pos) for the shifted sector (sub indexing
    (G0 (x) F)_{n+1}) and for the plain sector (sub indexing (G1 (x) F)_n)."""
    C = cone(g)
    xi = _tindex(g.src, F, n + 1)
    yi = _tindex(g.tgt, F, n)
    out0, out1 = {}, {}
    for (i, j, off, _dim) in tensor_layout(C, F, n):
        g0 = g.src.term(i + 1).dim
        dF = F.term(j).dim
        for p in range(C.term(i).dim):
            for q in range(dF):
                pos = off + p * dF + q
                if p < g0:
                    out0[xi[(i + 1, j, p, q)]] = pos
                else:
                    out1[yi[(i, j, p - g0, q)]] = pos
    return out0, out1


def _sector_right(F, g, n):
    """Positions and signs of the cone sectors inside (F (x) Cone(g))_n.

    Returns (sub -> (pos, sign)); the shifted sector carries the braiding
    sign (-1)^(F-degree), matching cone_assoc_right."""
    C = cone(g)
    tl = {(j, i): off for (j, i, off, _d) in tensor_layout(F, C, n)}
    out0, out1 = {}, {}
    for (b, a, off, _dim) in tensor_layout(F, g.src, n + 1):
        i = a - 1
        dF, dG = F.term(b).dim, g.src.term(a).dim
        cdim = C.term(i).dim
        toff = tl.get((b, i))
        if toff is None:
            continue
        sg = (-1) ** b
        for q in range(dF):
            for p in range(dG):
                out0[off + q * dG + p] = (toff + q * cdim + p, sg)
    for (b, i, off, _dim) in tensor_layout(F, g.tgt, n):
        dF, dG = F.term(b).dim, g.tgt.term(i).dim
        g0 = g.src.term(i + 1).dim
        cdim = C.term(i).dim
        toff = tl.get((b, i))
        if toff is None:
            continue
        for q in range(dF):
            for p in range(dG):
                out1[off + q * dG + p] = (toff + q * cdim + g0 + p, 1)
    return out0, out1


def _outer_corner(g, F0, F1, h0, h1, l):
    """Corner homotopy Cone(g) (x) F0 -> F1 (x) Cone(g) of the outer square.

    Sector blocks are -h0 (shifted to shifted), -l (shifted to plain) and
    h1 (plain to plain); the sign on h0 counteracts the suspension of the
    source sector."""
    ring = F0.alg.ring
    src = tensor(cone(g), F0)
    tgt = tensor(F1, cone(g))
    comps = {}
    zr = ring.zero()
    for n in range(src.min_deg, src.max_deg + 1):
        rows, cols = tgt.term(n - 1).dim, src.term(n).dim
        if rows == 0 or cols == 0:
            continue
        c0, c1 = _sector_left(g, F0, n)
        r0, r1 = _sector_right(F1, g, n - 1)
        e = [zr] * (rows * cols)
        M = h0.comp(n + 1)
        for sc, gc in c0.items():
            for sr, (gr, sg) in r0.items():
                v = M[sr, sc]
                if v != zr:
                    e[gr * cols + gc] = v * ring.coerce(-sg)
        L = l.comp(n + 1)
        for sc, gc in c0.items():
            for sr, (gr, sg) in r1.items():
                v = L[sr, sc]
                if v != zr:
                    e[gr * cols + gc] = v * ring.coerce(-sg)
        M1 = h1.comp(n)
        for sc, gc in c1.items():
            for sr, (gr, sg) in r1.items():
                v = M1[sr, sc]
                if v != zr:
                    e[gr * cols + gc] = v * ring.coerce(sg)
        m = Matrix(ring, rows, cols, e, _trusted=True)
        if not m.is_zero():
            comps[n] = m
    return Homotopy(src, tgt, -1, comps)


def strict_iso_verdict(psi):
    """PASS when each component of a degree-0 chain map is invertible."""
    for n in range(min(psi.src.min_deg, psi.tgt.min_deg),
                   max(psi.src.max_deg, psi.tgt.max_deg) + 1):
        m = psi.comp(n)
        if m.rows != m.cols:
            return Verdict(FAIL, reason=f"components in degree {n} have "
                                        f"different dimensions")
        if m.rows == 0:
            continue
        if not _is_invertible(m):
            return Verdict(FAIL,
                           reason=f"component in degree {n} not invertible")
    return Verdict(PASS, witness=psi)


def equivalence_verdict(psi):
    """PASS when psi is an equivalence: a strictly invertible map is
    accepted directly, otherwise the cone is checked contractible by an
    exact homotopy solve."""
    v = strict_iso_verdict(psi)
    if v.passed:
        return v
    cv = is_contractible(cone(psi))
    if cv.passed:
        return Verdict(PASS, witness=psi)
    return Verdict(FAIL, reason="cone of the candidate is not contractible")


def cones_commute_equivalence(f, g, certificate, phis=None):
    """Explicit equivalence Cone(g) (x) Cone(f) -> Cone(f) (x) Cone(g).

    The certificate must hold h0, h1 (commuting f past G0, G1), k0, k1
    (commuting g past F0, F1) and the bounding homotopy l of the secondary
    obstruction cycle; all equations are re-verified before assembly.  The
    equivalence is the cone-functorial map of the outer square whose
    verticals commute Cone(g) past F0 and F1 and whose corner is built from
    (-h0, -l, h1)."""
    return equivalence_verdict(_cones_commute_psi(f, g, certificate, phis))


def _cones_commute_psi(f, g, certificate, phis=None):
    """The explicit chain map underlying cones_commute_equivalence."""
    certificate.reverify(strict=True)
    h0, h1 = certificate.get("h0"), certificate.get("h1")
    k0, k1 = certificate.get("k0"), certificate.get("k1")
    l = certificate.get("l")
    F = [f.src, f.tgt]
    Phi = [cone_commuting_map(g, F[j],
                              _phi(phis, 0, j, g.src, F[j]),
                              _phi(phis, 1, j, g.tgt, F[j]),
                              (k0, k1)[j])
           for j in (0, 1)]
    Cg = cone(g)
    top = tensor_maps(identity_map(Cg), f)
    bottom = tensor_maps(f, identity_map(Cg))
    H = _outer_corner(g, F[0], F[1], h0, h1, l)
    inner = cone_square_map(top, bottom, Phi[0], Phi[1], H)
    psi = cone_assoc_left(f, Cg, inverse=True).compose(
        inner).compose(cone_assoc_right(Cg, f, inverse=True))
    return ChainMap(psi.src, psi.tgt, 0, dict(psi.comps))


# -- self obstruction: consequence -----------------------------------------------

def scalar_commutation_defect(a):
    """a F - F a for a map a from a scalar object: (a (x) id_F) minus
    (id_F (x) a) conjugated by the braiding on the source."""
    g = a.map if hasattr(a, "map") else a
    F = g.tgt
    return tensor_maps(g, identity_map(F)) \
        - tensor_maps(identity_map(F), g).compose(swap(g.src, F))


def self_obstruction_certificate(a, subject=("map",)):
    """Certificate holding h with [d, h] = a F - F a and k bounding the
    self obstruction w = h (id (x) a); both found by exact solves."""
    g = a.map if hasattr(a, "map") else a
    defect = scalar_commutation_defect(a)
    hv = solve_null_homotopy(defect)
    if not hv.passed:
        return None, Verdict(FAIL, reason="the map does not commute with "
                                          "its target up to homotopy")
    h = hv.witness
    w = h.compose(tensor_maps(identity_map(g.src), g))
    kv = solve_null_homotopy(w)
    if not kv.passed:
        return None, Verdict(FAIL,
                             reason="self obstruction cycle is not bounded")
    cert = CommutationCertificate(subject, {"h": h, "k": kv.witness},
                                  [("h", defect), ("k", w)])
    return cert, Verdict(PASS)


def _assemble_m(g, h, k):
    """Null-homotopy candidate for g (x) id_Cone(g) from the proof diagram:
    braiding block into the shifted sector, h into the plain sector, -k on
    the long diagonal."""
    ring = g.src.alg.ring
    lam = g.src
    F = g.tgt
    C = cone(g)
    src = tensor(lam, C)
    tgt = tensor(F, C)
    tau = swap(lam, F)
    zr = ring.zero()
    comps = {}
    for n in range(src.min_deg, src.max_deg + 1):
        rows, cols = tgt.term(n - 1).dim, src.term(n).dim
        if rows == 0 or cols == 0:
            continue
        c0, c1 = _sector_right(lam, g, n)
        r0, r1 = _sector_right(F, g, n - 1)
        e = [zr] * (rows * cols)
        for (M, cmap, rmap, s, use_row_sign) in (
                (tau.comp(n), c1, r0, 1, True),
                (h.comp(n), c1, r1, 1, False),
                (k.comp(n + 1), c0, r1, -1, False)):
            for sc, (gc, sgc) in cmap.items():
                for sr, (gr, sgr) in rmap.items():
                    v = M[sr, sc]
                    if v != zr:
                        sgn = s * (sgr if use_row_sign else 1) * sgc
                        e[gr * cols + gc] = e[gr * cols + gc] \
                            + v * ring.coerce(sgn)
        m = Matrix(ring, rows, cols, e, _trusted=True)
        if not m.is_zero():
            comps[n] = m
    return Homotopy(src, tgt, -1, comps)


def cone_collapse_map(f, m):
    """Strict iso Cone(f) -> Cone(0) from a null-homotopy m of f
    ([d, m] = f): blocks [[id, 0], [m, id]]."""
    ring = f.src.alg.ring
    Cn = cone(f)
    Cz = cone(zero_map(f.src, f.tgt))
    zr = ring.zero()
    comps = {}
    for n in range(Cn.min_deg, Cn.max_deg + 1):
        rows, cols = Cz.term(n).dim, Cn.term(n).dim
        if rows == 0 or cols == 0:
            continue
        a = f.src.term(n + 1).dim
        e = [zr] * (rows * cols)
        for r in range(a):
            e[r * cols + r] = ring.one()
        M = m.comp(n + 1)
        for r in range(f.tgt.term(n).dim):
            for q in range(a):
                v = M[r, q]
                if v != zr:
                    e[(a + r) * cols + q] = v
            e[(a + r) * cols + (a + r)] = ring.one()
        comps[n] = Matrix(ring, rows, cols, e, _trusted=True)
    return ChainMap(Cn, Cz, 0, comps)


def _collapse_distribute(g, C):
    """Strict iso Cone(0: lam (x) C -> F (x) C) -> (F (+) lam[1]) (x) C."""
    ring = g.src.alg.ring
    lam, F = g.src, g.tgt
    z0 = zero_map(tensor(lam, C), tensor(F, C))
    Cz = cone(z0)
    FS = direct_sum(F, shift(lam, 1))
    tg = tensor(FS, C)
    zr = ring.zero()
    comps = {}
    for n in range(Cz.min_deg, Cz.max_deg + 1):
        rows, cols = tg.term(n).dim, Cz.term(n).dim
        if rows == 0 or cols == 0:
            continue
        xdim = z0.src.term(n + 1).dim
        e = [zr] * (rows * cols)
        ti = _tindex(FS, C, n)
        for (i, j, p, q), pos in _tindex(lam, C, n + 1).items():
            fdim = F.term(i - 1).dim
            e[ti[(i - 1, j, fdim + p, q)] * cols + pos] = ring.one()
        for (i, j, p, q), pos in _tindex(F, C, n).items():
            e[ti[(i, j, p, q)] * cols + (xdim + pos)] = ring.one()
        comps[n] = Matrix(ring, rows, cols, e, _trusted=True)
    return ChainMap(Cz, tg, 0, comps)


def self_obstruction_consequence(a, certificate):
    """Consequence of a bounded self obstruction: the square of the cone of
    a map a from a scalar object splits as (target (+) source[1]) tensored
    with the cone.

    The certificate must hold h ([d, h] = a F - F a) and the bounding k of
    w = h (id (x) a).  The null-homotopy m of a (x) id_Cone(a) is assembled
    from the proof diagram and its equation is checked exactly; the verdict
    carries the explicit equivalence
    Cone(a) (x) Cone(a) -> (F (+) lam[1]) (x) Cone(a)."""
    g = a.map if hasattr(a, "map") else a
    h = certificate.get("h")
    k = certificate.get("k")
    C = cone(g)
    m = _assemble_m(g, h, k)
    gid = tensor_maps(g, identity_map(C))
    residue = bracket(m) - gid
    bad = [n for n in m.src.degrees() if not residue.comp(n).is_zero()]
    if bad:
        return Verdict(FAIL,
                       reason="candidate null-homotopy fails its equation "
                              f"in degrees {bad}")
    psi = _collapse_distribute(g, C).compose(
        cone_collapse_map(gid, m)).compose(cone_assoc_left(g, C))
    psi = ChainMap(psi.src, psi.tgt, 0, dict(psi.comps))
    return equivalence_verdict(psi)


# -- zigzags -----------------------------------------------------------------

def _cross_ends(k):
    """Edge k of a zigzag joins layers k and k+1; the odd end is the source."""
    return (k + 1, k) if k % 2 == 0 else (k, k + 1)


def _fold_sum(parts):
    out = parts[0]
    for p in parts[1:]:
        out = direct_sum(out, p)
    return out


def _sum_offsets(parts, n):
    offs, off = [], 0
    for p in parts:
        offs.append(off)
        off += p.term(n).dim
    return offs, off


def _summand_map(parts, whole, i, into):
    ring = whole.alg.ring
    comps = {}
    for n in whole.degrees():
        offs, total = _sum_offsets(parts, n)
        d = parts[i].term(n).dim
        if d == 0 or total == 0:
            continue
        big, small = (total, d)
        e = [ring.zero()] * (big * small)
        for r in range(d):
            if into:
                e[(offs[i] + r) * d + r] = ring.one()
            else:
                e[r * total + (offs[i] + r)] = ring.one()
        if into:
            comps[n] = Matrix(ring, total, d, e, _trusted=True)
        else:
            comps[n] = Matrix(ring, d, total, e, _trusted=True)
    if into:
        return ChainMap(parts[i], whole, 0, comps, check=False)
    return ChainMap(whole, parts[i], 0, comps, check=False)


def _summand_incl(parts, whole, i):
    return _summand_map(parts, whole, i, True)


def _summand_proj(parts, whole, i):
    return _summand_map(parts, whole, i, False)


def zigzag_map(src_layers, src_gmaps, tgt_layers, tgt_gmaps, maps,
               homotopies=None):
    """Ladder map between zigzag totals from layer maps and homotopies.

    maps[k]: src_layers[k] -> tgt_layers[k]; homotopies[e] bounds the defect
    of ladder square e, [d, H_e] = maps[t] g_e - g'_e maps[s] where (s, t)
    are the ends of edge e.  Every square is re-verified; the assembled map
    Phi has the layer maps on the diagonal and the square homotopies in the
    cross positions.  Returns (Phi, equivalence verdict for Phi)."""
    L = len(src_layers)
    ring = src_layers[0].alg.ring
    if homotopies is None:
        homotopies = [None] * len(src_gmaps)
    Hs = []
    for k in range(len(src_gmaps)):
        s, t = _cross_ends(k)
        H = homotopies[k]
        if H is None:
            H = Homotopy(src_layers[s], tgt_layers[t], -1, {})
        rhs = maps[t].compose(src_gmaps[k]) - tgt_gmaps[k].compose(maps[s])
        _require_equation(H, rhs, f"ladder square {k}")
        Hs.append(H)
    Tsrc = zigzag_tot(src_layers, src_gmaps)
    Ttgt = zigzag_tot(tgt_layers, tgt_gmaps)

    def offs(layers, n):
        out, off = [], 0
        for k, Lc in enumerate(layers):
            d = Lc.term(n + (1 if k % 2 else 0)).dim
            out.append((off, d))
            off += d
        return out

    zr = ring.zero()
    comps = {}
    for n in range(Tsrc.min_deg, Tsrc.max_deg + 1):
        rows, cols = Ttgt.term(n).dim, Tsrc.term(n).dim
        if rows == 0 or cols == 0:
            continue
        so = offs(src_layers, n)
        to = offs(tgt_layers, n)
        e = [zr] * (rows * cols)

        def put(M, ro, co):
            for r in range(M.rows):
                for c in range(M.cols):
                    v = M[r, c]
                    if v != zr:
                        e[(ro + r) * cols + (co + c)] = v

        for k in range(L):
            put(maps[k].comp(n + (1 if k % 2 else 0)), to[k][0], so[k][0])
        for k in range(len(src_gmaps)):
            s, t = _cross_ends(k)
            put(Hs[k].comp(n + 1), to[t][0], so[s][0])
        comps[n] = Matrix(ring, rows, cols, e, _trusted=True)
    phi = ChainMap(Tsrc, Ttgt, 0, comps)
    return phi, equivalence_verdict(phi)


def _zigzag_cone_data(layers, gmaps):
    """Total complex of a zigzag, the assembled map from the sum of the odd
    layers to the sum of the even layers, and the strict permutation
    isomorphisms between the total and the cone of that map."""
    L = len(layers)
    ring = layers[0].alg.ring
    odd = [k for k in range(L) if k % 2]
    even = [k for k in range(L) if k % 2 == 0]
    oparts = [layers[k] for k in odd]
    eparts = [layers[k] for k in even]
    S = _fold_sum(oparts)
    T = _fold_sum(eparts)
    ghat = zero_map(S, T)
    for k, g in enumerate(gmaps):
        s, t = _cross_ends(k)
        ghat = ghat + _summand_incl(eparts, T, even.index(t)).compose(
            g).compose(_summand_proj(oparts, S, odd.index(s)))
    ghat = ChainMap(S, T, 0, dict(ghat.comps))
    totc = zigzag_tot(layers, gmaps)
    C = cone(ghat)
    zr = ring.zero()
    pcomps, qcomps = {}, {}
    for n in range(totc.min_deg, totc.max_deg + 1):
        cdim, tdim = C.term(n).dim, totc.term(n).dim
        if cdim == 0 or tdim == 0:
            continue
        ooffs, sdim = _sum_offsets(oparts, n + 1)
        eoffs, _ = _sum_offsets(eparts, n)
        pe = [zr] * (cdim * tdim)
        qe = [zr] * (tdim * cdim)
        off = 0
        for k in range(L):
            d = layers[k].term(n + (1 if k % 2 else 0)).dim
            if k % 2:
                base = ooffs[odd.index(k)]
            else:
                base = sdim + eoffs[even.index(k)]
            for r in range(d):
                pe[(base + r) * tdim + (off + r)] = ring.one()
                qe[(off + r) * cdim + (base + r)] = ring.one()
            off += d
        pcomps[n] = Matrix(ring, cdim, tdim, pe, _trusted=True)
        qcomps[n] = Matrix(ring, tdim, cdim, qe, _trusted=True)
    P = ChainMap(totc, C, 0, pcomps)
    Q = ChainMap(C, totc, 0, qcomps)
    return totc, ghat, P, Q


def _touching_cross(m, ncross):
    """Some zigzag edge having layer m as an end of matching parity."""
    for k in ((m - 1, m) if m % 2 else (m, m - 1)):
        if 0 <= k < ncross:
            return k
    raise ValueError(f"layer {m} touches no edge")


def zigzag_commute(f_layers, f_gmaps, g_layers, g_gmaps, certificates):
    """Commute the total of one zigzag past the total of another.

    certificates maps (i, j) -> the secondary certificate for the pair of
    edge maps (f_gmaps[i], g_gmaps[j]); every pair must be on file and every
    certificate is re-verified.  The equivalence is constructed on the cone
    presentations of the totals: the layer sums are assembled, the pairwise
    h/k homotopies are scattered into block form, and the cone commutation
    equivalence is conjugated back through the strict permutation
    isomorphisms between totals and cones."""
    for i in range(len(f_gmaps)):
        for j in range(len(g_gmaps)):
            if certificates.get((i, j)) is None:
                raise MissingCertificate(
                    f"no commutation certificate for edge pair ({i}, {j})")
            certificates[(i, j)].reverify(strict=True)
    if len(f_gmaps) == 1 and len(g_gmaps) == 1:
        return cones_commute_equivalence(f_gmaps[0], g_gmaps[0],
                                         certificates[(0, 0)])
    totf, fhat, Pf, Qf = _zigzag_cone_data(f_layers, f_gmaps)
    totg, ghat, Pg, Qg = _zigzag_cone_data(g_layers, g_gmaps)
    fodd = [k for k in range(len(f_layers)) if k % 2]
    feven = [k for k in range(len(f_layers)) if k % 2 == 0]
    godd = [k for k in range(len(g_layers)) if k % 2]
    geven = [k for k in range(len(g_layers)) if k % 2 == 0]
    Fp = [[f_layers[k] for k in fodd], [f_layers[k] for k in feven]]
    Gp = [[g_layers[k] for k in godd], [g_layers[k] for k in geven]]
    Fidx = [fodd, feven]
    Gidx = [godd, geven]
    F = [fhat.src, fhat.tgt]
    G = [ghat.src, ghat.tgt]
    hs, ks = [], []
    for i in (0, 1):
        acc = zero_map(tensor(G[i], F[0]), tensor(F[1], G[i]), degree=-1)
        for ic in range(len(f_gmaps)):
            fs, ft = _cross_ends(ic)
            for mpos, m in enumerate(Gidx[i]):
                jc = _touching_cross(m, len(g_gmaps))
                h = certificates[(ic, jc)].get("h0" if m % 2 else "h1")
                acc = acc + tensor_maps(
                    _summand_incl(Fp[1], F[1], feven.index(ft)),
                    _summand_incl(Gp[i], G[i], mpos)).compose(h).compose(
                    tensor_maps(_summand_proj(Gp[i], G[i], mpos),
                                _summand_proj(Fp[0], F[0], fodd.index(fs))))
        hs.append(Homotopy(acc.src, acc.tgt, -1, dict(acc.comps)))
    for i in (0, 1):
        acc = zero_map(tensor(G[0], F[i]), tensor(F[i], G[1]), degree=-1)
        for jc in range(len(g_gmaps)):
            gs, gt = _cross_ends(jc)
            for mpos, m in enumerate(Fidx[i]):
                ic = _touching_cross(m, len(f_gmaps))
                k = certificates[(ic, jc)].get("k0" if m % 2 else "k1")
                acc = acc + tensor_maps(
                    _summand_incl(Fp[i], F[i], mpos),
                    _summand_incl(Gp[1], G[1], geven.index(gt))).compose(
                    k).compose(
                    tensor_maps(_summand_proj(Gp[0], G[0], godd.index(gs)),
                                _summand_proj(Fp[i], F[i], mpos)))
        ks.append(Homotopy(acc.src, acc.tgt, -1, dict(acc.comps)))
    cert, v = secondary_certificate(fhat, ghat, hs, ks,
                                    subject=("tot(f)", "tot(g)"))
    if not v.passed:
        return v
    psi = _cones_commute_psi(fhat, ghat, cert)
    psi_tot = tensor_maps(Qf, Qg).compose(psi).compose(tensor_maps(Pg, Pf))
    psi_tot = ChainMap(psi_tot.src, psi_tot.tgt, 0, dict(psi_tot.comps))
    return equivalence_verdict(psi_tot)


# -- certificate serialization -------------------------------------------------

def _gmap_to_json(f):
    return {"src": complex_to_json(f.src),
            "tgt": complex_to_json(f.tgt),
            "degree": f.degree,
            "comps": {str(d): matrix_to_json(m) for d, m in f.comps.items()}}


def _gmap_from_json(alg, obj):
    src = complex_from_json(alg, obj["src"])
    tgt = complex_from_json(alg, obj["tgt"])
    comps = {int(d): matrix_from_json(alg.ring, m)
             for d, m in obj["comps"].items()}
    return Homotopy(src, tgt, obj["degree"], comps)


def certificate_to_json(cert):
    return {"subject": list(cert.subject),
            "homotopies": {name: _gmap_to_json(h)
                           for name, h in cert.homotopies.items()},
            "obligations": [[name, _gmap_to_json(rhs)]
                            for name, rhs in cert.obligations]}


def certificate_from_json(alg, obj):
    """Rebuild a certificate from raw data; every stored homotopy equation
    is re-verified by the constructor, so corrupted data cannot load."""
    homotopies = {name: _gmap_from_json(alg, h)
                  for name, h in obj["homotopies"].items()}
    obligations = [(name, _gmap_from_json(alg, rhs))
                   for name, rhs in obj["obligations"]]
    return CommutationCertificate(obj["subject"], homotopies, obligations)
