"""Obstruction calculus for commutativity of mapping cones: secondary
obstruction cycles, the self obstruction, bounding homotopies, explicit
commutation equivalences, and certificates that re-verify from raw data on
every use."""

from .exactlinalg import Matrix, matrix_to_json, matrix_from_json
from .complexes import (
    ChainMap, Homotopy, shift, tensor, tensor_maps,
    bracket, maps_equal, _is_invertible,
    identity_map, zero_map, swap, cone, direct_sum, tensor_layout,
    solve_null_homotopy, is_contractible,
    complex_to_json, complex_from_json,
    Verdict, PASS, FAIL,
)


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

def _commutation_defect(g, F):
    """tau_1 (g (x) id_F) - (id_F (x) g) tau_0 for g: G0 -> G1, with tau_i
    the braiding of G_i past F."""
    lhs = swap(g.tgt, F).compose(tensor_maps(g, identity_map(F)))
    rhs = tensor_maps(identity_map(F), g).compose(swap(g.src, F))
    return lhs - rhs


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


def secondary_certificate(f, g, hs, ks, phis=None):
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
    return CommutationCertificate(("cone(f)", "cone(g)"), homotopies,
                                  obligations), \
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
#
# A sector is one summand of a degree-n term, as a dict sub -> (pos, sign):
# sub indexes the summand's own basis, pos the term's basis, and sign is the
# Koszul sign the summand carries there.

def _tindex(A, B, n):
    """(deg_A, deg_B, row_in_A, row_in_B) -> position in (A (x) B)_n."""
    out = {}
    for (i, j, off, _dim) in tensor_layout(A, B, n):
        da, db = A.term(i).dim, B.term(j).dim
        for p in range(da):
            for q in range(db):
                out[(i, j, p, q)] = off + p * db + q
    return out


def _cone_sectors(f, n):
    """The sectors of Cone(f)_n: the shifted source, then the target."""
    a = f.src.term(n + 1).dim
    return ({s: (s, 1) for s in range(a)},
            {s: (a + s, 1) for s in range(f.tgt.term(n).dim)})


def _sector_left(g, C, F, n):
    """The sectors of (C (x) F)_n, C = Cone(g): the shifted one indexed as
    (G0 (x) F)_{n+1}, the plain one as (G1 (x) F)_n."""
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
                    out0[xi[(i + 1, j, p, q)]] = (pos, 1)
                else:
                    out1[yi[(i, j, p - g0, q)]] = (pos, 1)
    return out0, out1


def _sector_right(F, g, C, n):
    """The sectors of (F (x) C)_n, C = Cone(g): the shifted one indexed as
    (F (x) G0)_{n+1}, with the braiding sign (-1)^(F-degree), the plain one
    as (F (x) G1)_n."""
    tl = {(j, i): off for (j, i, off, _d) in tensor_layout(F, C, n)}
    out0, out1 = {}, {}
    for (b, a, off, _dim) in tensor_layout(F, g.src, n + 1):
        dF, dG = F.term(b).dim, g.src.term(a).dim
        cdim = C.term(a - 1).dim
        toff = tl[(b, a - 1)]
        sg = (-1) ** b
        for q in range(dF):
            for p in range(dG):
                out0[off + q * dG + p] = (toff + q * cdim + p, sg)
    for (b, i, off, _dim) in tensor_layout(F, g.tgt, n):
        dF, dG = F.term(b).dim, g.tgt.term(i).dim
        g0 = g.src.term(i + 1).dim
        cdim = C.term(i).dim
        toff = tl[(b, i)]
        for q in range(dF):
            for p in range(dG):
                out1[off + q * dG + p] = (toff + q * cdim + g0 + p, 1)
    return out0, out1


def _sector_blocks(src, tgt, degree, blocks):
    """Components of a degree-`degree` map src -> tgt built from blocks
    between sectors.

    blocks(n) lists (M, cols, rows, s) for degree n: entry (i, j) of M
    lands at (rows[i], cols[j]), times s and the two sector signs.  Only
    the nonzeros of each block are visited."""
    ring = src.alg.ring
    comps = {}
    for n in range(src.min_deg, src.max_deg + 1):
        nr, nc = tgt.term(n + degree).dim, src.term(n).dim
        if nr == 0 or nc == 0:
            continue
        placed = []
        for M, cols, rows, s in blocks(n):
            for i, row in enumerate(M.data):
                if i not in rows:
                    continue
                r, sr = rows[i]
                for j, v in row.items():
                    if j in cols:
                        c, sc = cols[j]
                        placed.append(
                            (r, c, v if s * sr * sc == 1 else ring.neg(v)))
        comps[n] = Matrix._placed(ring, nr, nc, placed)
    return comps


def _sector_iso(src, tgt, sectors, inverse=False):
    """The signed permutation src -> tgt that sends each basis vector of a
    sector of src to its namesake in the matching sector of tgt; sectors(n)
    lists the (src, tgt) pairs of degree n.  With inverse, its transpose
    tgt -> src, which is its inverse."""
    ring = src.alg.ring
    comps = _sector_blocks(src, tgt, 0, lambda n: [
        (Matrix.identity(ring, len(s)), s, t, 1) for s, t in sectors(n)])
    if inverse:
        return ChainMap(tgt, src, 0,
                        {n: m.transpose() for n, m in comps.items()})
    return ChainMap(src, tgt, 0, comps)


def cone_assoc_left(g, F, inverse=False):
    """Strict iso Cone(g) (x) F -> Cone(g (x) id_F) (or its inverse).

    Both sides have the same summands in each degree; the identification is
    the identity on every basis vector."""
    gi = tensor_maps(g, identity_map(F))
    C = cone(g)
    return _sector_iso(tensor(C, F), cone(gi), lambda n: zip(
        _sector_left(g, C, F, n), _cone_sectors(gi, n)), inverse)


def cone_assoc_right(F, g, inverse=False):
    """Strict iso Cone(id_F (x) g) -> F (x) Cone(g) (or its inverse).

    The shifted summand picks up the sign (-1)^(F-degree): moving the
    suspension past the left tensor factor costs one braiding per odd
    degree."""
    ig = tensor_maps(identity_map(F), g)
    C = cone(g)
    return _sector_iso(cone(ig), tensor(F, C), lambda n: zip(
        _cone_sectors(ig, n), _sector_right(F, g, C, n)), inverse)


def _cone_square(top, bottom, left, right, corner):
    """The map Cone(top) -> Cone(bottom) with blocks [[left, 0],
    [corner, right]] in cone coordinates; its equation is the caller's."""
    Ct, Cb = cone(top), cone(bottom)

    def blocks(n):
        (t0, t1), (b0, b1) = _cone_sectors(top, n), _cone_sectors(bottom, n)
        return [(left.comp(n + 1), t0, b0, 1), (corner.comp(n + 1), t0, b1, 1),
                (right.comp(n), t1, b1, 1)]
    return ChainMap(Ct, Cb, 0, _sector_blocks(Ct, Cb, 0, blocks))


def cone_square_map(top, bottom, left, right, corner):
    """Functorial map Cone(top) -> Cone(bottom) of a square commuting up to
    the supplied corner homotopy: [d, corner] = right top - bottom left.

    The equation is re-verified exactly; the induced map has blocks
    [[left, 0], [corner, right]] in cone coordinates."""
    rhs = right.compose(top) - bottom.compose(left)
    _require_equation(corner, rhs, "corner")
    return _cone_square(top, bottom, left, right, corner)


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


def _outer_corner(g, F0, F1, h0, h1, l):
    """Corner homotopy Cone(g) (x) F0 -> F1 (x) Cone(g) of the outer square.

    Sector blocks are -h0 (shifted to shifted), -l (shifted to plain) and
    h1 (plain to plain); the sign on h0 counteracts the suspension of the
    source sector."""
    C = cone(g)
    src = tensor(C, F0)
    tgt = tensor(F1, C)

    def blocks(n):
        c0, c1 = _sector_left(g, C, F0, n)
        r0, r1 = _sector_right(F1, g, C, n - 1)
        return [(h0.comp(n + 1), c0, r0, -1), (l.comp(n + 1), c0, r1, -1),
                (h1.comp(n), c1, r1, 1)]
    return Homotopy(src, tgt, -1, _sector_blocks(src, tgt, -1, blocks))


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


def self_obstruction_certificate(a):
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
    cert = CommutationCertificate(("map",), {"h": h, "k": kv.witness},
                                  [("h", defect), ("k", w)])
    return cert, Verdict(PASS)


def _assemble_m(g, h, k):
    """Null-homotopy candidate for g (x) id_Cone(g) from the proof diagram:
    braiding block into the shifted sector, h into the plain sector, -k on
    the long diagonal."""
    lam, F = g.src, g.tgt
    C = cone(g)
    src = tensor(lam, C)
    tgt = tensor(F, C)
    tau = swap(lam, F)

    def blocks(n):
        c0, c1 = _sector_right(lam, g, C, n)
        r0, r1 = _sector_right(F, g, C, n - 1)
        return [(tau.comp(n), c1, r0, 1), (h.comp(n), c1, r1, 1),
                (k.comp(n + 1), c0, r1, -1)]
    return Homotopy(src, tgt, -1, _sector_blocks(src, tgt, -1, blocks))


def cone_collapse_map(f, m):
    """Strict iso Cone(f) -> Cone(0) from a null-homotopy m of f
    ([d, m] = f): blocks [[id, 0], [m, id]]."""
    return _cone_square(f, zero_map(f.src, f.tgt), identity_map(f.src),
                        identity_map(f.tgt), m)


def _collapse_distribute(g, C):
    """Strict iso Cone(0: lam (x) C -> F (x) C) -> (F (+) lam[1]) (x) C."""
    lam, F = g.src, g.tgt
    z0 = zero_map(tensor(lam, C), tensor(F, C))
    FS = direct_sum(F, shift(lam, 1))

    def sectors(n):
        ti = _tindex(FS, C, n)
        shifted = {pos: (ti[(i - 1, j, F.term(i - 1).dim + p, q)], 1)
                   for (i, j, p, q), pos in _tindex(lam, C, n + 1).items()}
        plain = {pos: (ti[key], 1) for key, pos in _tindex(F, C, n).items()}
        return zip(_cone_sectors(z0, n), (shifted, plain))
    return _sector_iso(cone(z0), tensor(FS, C), sectors)


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
