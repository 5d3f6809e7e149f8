"""Bounded cochain complexes of modules over cyclic algebras.

Differentials raise degree by one; the underlined/distinguished term of a
construction sits in degree 0 and shifting by [1] moves terms down one degree
and negates the differential.  All homotopy-theoretic verdicts reduce to exact
linear algebra: homotopies are sought in intertwiner coordinates and solved
over the ground ring (Diophantine-exact over Z).
"""

from .exactlinalg import (
    Matrix, IntegerRingUnsupported, rref, solve, kernel, snf,
    matrix_to_json, matrix_from_json,
)
from .modulecat import (
    AlgebraPresentation, Module, ModuleMap, Decomposition,
    decompose, direct_sum_modules, tensor_modules, hom_basis, zero_module,
)


PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"


class Verdict:
    __slots__ = ("status", "witness", "reason")

    def __init__(self, status, witness=None, reason=None):
        assert status in (PASS, FAIL, INCONCLUSIVE)
        self.status = status
        self.witness = witness
        self.reason = reason

    @property
    def passed(self):
        return self.status == PASS

    def __repr__(self):
        extra = f", {self.reason}" if self.reason else ""
        return f"Verdict({self.status}{extra})"


class Complex:
    """terms[i] sits in degree min_deg + i; diffs[i]: terms[i] -> terms[i+1]."""

    __slots__ = ("alg", "min_deg", "terms", "diffs")

    def __init__(self, alg, min_deg, terms, diffs, check=True):
        if len(diffs) != max(0, len(terms) - 1):
            raise ValueError("need one differential per adjacent pair")
        # trim zero-dimensional edge terms for a canonical presentation
        lo = 0
        while lo < len(terms) and terms[lo].dim == 0:
            lo += 1
        hi = len(terms)
        while hi > lo and terms[hi - 1].dim == 0:
            hi -= 1
        if lo or hi != len(terms):
            min_deg += lo
            terms = terms[lo:hi]
            diffs = diffs[lo:hi - 1] if hi > lo else []
        self.alg = alg
        self.min_deg = min_deg
        self.terms = tuple(terms)
        self.diffs = tuple(diffs)
        if check:
            ring = alg.ring
            for t in terms:
                if t.alg != alg:
                    raise ValueError("algebra mismatch in terms")
            for i, d in enumerate(self.diffs):
                if d.rows != self.terms[i + 1].dim or d.cols != self.terms[i].dim:
                    raise ValueError("differential shape mismatch")
                lhs = d * self.terms[i].x_action
                rhs = self.terms[i + 1].x_action * d
                if not (lhs - rhs).is_zero():
                    raise ValueError("differential is not an intertwiner")
            for i in range(len(self.diffs) - 1):
                if not (self.diffs[i + 1] * self.diffs[i]).is_zero():
                    raise ValueError("d^2 != 0")

    # -- access ----------------------------------------------------------
    @property
    def max_deg(self):
        return self.min_deg + len(self.terms) - 1

    def degrees(self):
        return range(self.min_deg, self.min_deg + len(self.terms))

    def term(self, d):
        i = d - self.min_deg
        if 0 <= i < len(self.terms):
            return self.terms[i]
        return zero_module(self.alg)

    def diff(self, d):
        i = d - self.min_deg
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        return Matrix.zeros(self.alg.ring, self.term(d + 1).dim, self.term(d).dim)

    def total_dim(self):
        return sum(t.dim for t in self.terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Complex) and self.alg == other.alg
                and self.min_deg == other.min_deg
                and self.terms == other.terms and self.diffs == other.diffs)

    def __hash__(self):
        return hash((self.alg, self.min_deg, self.terms, self.diffs))

    def __repr__(self):
        dims = " ".join(f"{d}:{self.term(d).dim}" for d in self.degrees())
        return f"Complex[{dims}]" if self.terms else "Complex[0]"


def atom(module, degree=0):
    """A single module concentrated in one degree."""
    return Complex(module.alg, degree, [module], [], check=False)


def zero_complex(alg):
    return Complex(alg, 0, [], [], check=False)


def shift(c, n):
    """c[n]: term(d) of the result is c.term(d + n); differential gains (-1)^n."""
    sign = 1 if n % 2 == 0 else -1
    diffs = [d if sign == 1 else -d for d in c.diffs]
    return Complex(c.alg, c.min_deg - n, list(c.terms), diffs, check=False)


def direct_sum(c1, c2):
    if c1.is_zero():
        return c2
    if c2.is_zero():
        return c1
    lo = min(c1.min_deg, c2.min_deg)
    hi = max(c1.max_deg, c2.max_deg)
    terms, diffs = [], []
    for d in range(lo, hi + 1):
        terms.append(direct_sum_modules(c1.term(d), c2.term(d)))
    ring = c1.alg.ring
    for d in range(lo, hi):
        diffs.append(_block2(ring, c1.diff(d), None, None, c2.diff(d),
                             (c1.term(d + 1).dim, c2.term(d + 1).dim),
                             (c1.term(d).dim, c2.term(d).dim)))
    return Complex(c1.alg, lo, terms, diffs, check=False)


def _block2(ring, a, b, c, d, rdims, cdims):
    """2x2 block matrix with explicit row/col dims (blocks may be None)."""
    r1, r2 = rdims
    c1, c2 = cdims
    def blk(m, r, c_):
        return m if m is not None else Matrix.zeros(ring, r, c_)
    top = blk(a, r1, c1).hstack(blk(b, r1, c2))
    bot = blk(c, r2, c1).hstack(blk(d, r2, c2))
    return top.vstack(bot)


# -- tensor ------------------------------------------------------------------

def tensor_layout(c1, c2, n):
    """Block layout of (c1 (x) c2) in degree n: [(i, j, offset, dim)]."""
    out = []
    off = 0
    for i in c1.degrees():
        j = n - i
        d = c1.term(i).dim * c2.term(j).dim
        if d:
            out.append((i, j, off, d))
            off += d
    return out


def tensor(c1, c2):
    """Tensor product with d(x (x) y) = dx (x) y + (-1)^i x (x) dy."""
    if c1.alg != c2.alg:
        raise ValueError("algebra mismatch")
    alg = c1.alg
    ring = alg.ring
    if c1.is_zero() or c2.is_zero():
        return zero_complex(alg)
    lo = c1.min_deg + c2.min_deg
    hi = c1.max_deg + c2.max_deg
    terms = []
    for n in range(lo, hi + 1):
        t = zero_module(alg)
        for (i, j, _, _) in tensor_layout(c1, c2, n):
            t = direct_sum_modules(t, tensor_modules(c1.term(i), c2.term(j)))
        terms.append(t)
    diffs = []
    for n in range(lo, hi):
        src = tensor_layout(c1, c2, n)
        tgt = tensor_layout(c1, c2, n + 1)
        tpos = {(i, j): (off, dim) for (i, j, off, dim) in tgt}
        rows = terms[n + 1 - lo].dim
        cols = terms[n - lo].dim
        dmat = [[None] * len(src) for _ in range(len(tgt))]
        for sidx, (i, j, soff, sdim) in enumerate(src):
            # d1 (x) id : block (i, j) -> (i + 1, j)
            if (i + 1, j) in tpos:
                blkm = c1.diff(i).kron(Matrix.identity(ring, c2.term(j).dim))
                tidx = [k for k, t in enumerate(tgt) if (t[0], t[1]) == (i + 1, j)][0]
                dmat[tidx][sidx] = blkm
            # (-1)^i id (x) d2 : block (i, j) -> (i, j + 1)
            if (i, j + 1) in tpos:
                blkm = Matrix.identity(ring, c1.term(i).dim).kron(c2.diff(j))
                if i % 2:
                    blkm = -blkm
                tidx = [k for k, t in enumerate(tgt) if (t[0], t[1]) == (i, j + 1)][0]
                dmat[tidx][sidx] = blkm
        diffs.append(_assemble(ring, dmat,
                               [t[3] for t in tgt], [s[3] for s in src],
                               rows, cols))
    return Complex(alg, lo, terms, diffs, check=False)


def _assemble(ring, grid, rdims, cdims, rows, cols):
    if not rdims or not cdims:
        return Matrix.zeros(ring, rows, cols)
    full = [[grid[i][j] if grid[i][j] is not None
             else Matrix.zeros(ring, rdims[i], cdims[j])
             for j in range(len(cdims))] for i in range(len(rdims))]
    return Matrix.block(ring, full)


# -- chain maps / homotopies ---------------------------------------------------

class ChainMap:
    """A degree-k map f with components f_d: src.term(d) -> tgt.term(d + k).

    The chain condition is the graded commutator [d, f] = d f - (-1)^k f d = 0,
    verified at construction unless check=False.
    """

    __slots__ = ("src", "tgt", "degree", "comps")

    def __init__(self, src, tgt, degree, comps, check=True):
        self.src = src
        self.tgt = tgt
        self.degree = degree
        clean = {}
        for d, m in comps.items():
            if m.rows != tgt.term(d + degree).dim or m.cols != src.term(d).dim:
                raise ValueError(f"component shape mismatch in degree {d}")
            if not m.is_zero():
                clean[d] = m
        self.comps = clean
        if check:
            for d, m in clean.items():
                lhs = m * src.term(d).x_action
                rhs = tgt.term(d + degree).x_action * m
                if not (lhs - rhs).is_zero():
                    raise ValueError("component is not an intertwiner")
            defect = bracket(self)
            if not defect.is_zero():
                raise ValueError(
                    f"chain condition fails in degree {min(defect.comps)}")

    def comp(self, d):
        if d in self.comps:
            return self.comps[d]
        return Matrix.zeros(self.src.alg.ring,
                            self.tgt.term(d + self.degree).dim,
                            self.src.term(d).dim)

    def is_zero(self):
        return not self.comps

    def __add__(self, other):
        assert self.degree == other.degree
        out = {}
        for d in set(self.comps) | set(other.comps):
            out[d] = self.comp(d) + other.comp(d)
        return ChainMap(self.src, self.tgt, self.degree, out, check=False)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ChainMap(self.src, self.tgt, self.degree,
                        {d: -m for d, m in self.comps.items()}, check=False)

    def scale(self, c):
        return ChainMap(self.src, self.tgt, self.degree,
                        {d: m.scale(c) for d, m in self.comps.items()},
                        check=False)

    def compose(self, other):
        """self after other (degrees add, no extra sign)."""
        out = {}
        for d in other.src.degrees():
            m = self.comp(d + other.degree) * other.comp(d)
            if not m.is_zero():
                out[d] = m
        return ChainMap(other.src, self.tgt, self.degree + other.degree,
                        out, check=False)

    def __repr__(self):
        return f"ChainMap(deg={self.degree}, comps@{sorted(self.comps)})"


def bracket(f):
    """[d, f] = d f - (-1)^{|f|} f d, one degree higher than f."""
    k = f.degree
    sgn = 1 if k % 2 == 0 else -1
    comps = {}
    for d in range(f.src.min_deg - 1, f.src.max_deg + 2):
        m = f.tgt.diff(d + k) * f.comp(d) \
            - (f.comp(d + 1) * f.src.diff(d)).scale(sgn)
        if not m.is_zero():
            comps[d] = m
    return ChainMap(f.src, f.tgt, k + 1, comps, check=False)


def identity_map(c):
    return ChainMap(c, c, 0,
                    {d: Matrix.identity(c.alg.ring, c.term(d).dim)
                     for d in c.degrees()}, check=False)


def zero_map(src, tgt, degree=0):
    return ChainMap(src, tgt, degree, {}, check=False)


class Homotopy(ChainMap):
    """A degree-(k) collection of components with no chain condition."""

    def __init__(self, src, tgt, degree, comps):
        super().__init__(src, tgt, degree, comps, check=False)


def tensor_maps(f, g):
    """(f (x) g)(x (x) y) = (-1)^{|g| i} f(x) (x) g(y) on the degree-i part."""
    src = tensor(f.src, g.src)
    tgt = tensor(f.tgt, g.tgt)
    ring = f.src.alg.ring
    k = f.degree + g.degree
    comps = {}
    for n in range(src.min_deg, src.max_deg + 1):
        sl = tensor_layout(f.src, g.src, n)
        tl = tensor_layout(f.tgt, g.tgt, n + k)
        if not sl or not tl:
            continue
        tpos = {(i, j): idx for idx, (i, j, _, _) in enumerate(tl)}
        grid = [[None] * len(sl) for _ in range(len(tl))]
        nz = False
        for sidx, (i, j, _, _) in enumerate(sl):
            key = (i + f.degree, j + g.degree)
            if key not in tpos:
                continue
            blk = f.comp(i).kron(g.comp(j))
            if g.degree % 2 and i % 2:
                blk = -blk
            if not blk.is_zero():
                grid[tpos[key]][sidx] = blk
                nz = True
        if nz:
            comps[n] = _assemble(ring, grid, [t[3] for t in tl],
                                 [s[3] for s in sl],
                                 tgt.term(n + k).dim, src.term(n).dim)
    return ChainMap(src, tgt, k, comps, check=False)


def swap(c1, c2):
    """Koszul braiding c1 (x) c2 -> c2 (x) c1 with sign (-1)^{ij}."""
    src = tensor(c1, c2)
    tgt = tensor(c2, c1)
    ring = c1.alg.ring
    comps = {}
    for n in range(src.min_deg, src.max_deg + 1):
        sl = tensor_layout(c1, c2, n)
        tl = tensor_layout(c2, c1, n)
        if not sl:
            continue
        tpos = {(j, i): idx for idx, (j, i, _, _) in enumerate(tl)}
        grid = [[None] * len(sl) for _ in range(len(tl))]
        for sidx, (i, j, _, _) in enumerate(sl):
            di, dj = c1.term(i).dim, c2.term(j).dim
            sgn = -1 if (i % 2 and j % 2) else 1
            ent = [ring.zero()] * (di * dj * di * dj)
            for p in range(di):
                for q in range(dj):
                    ent[(q * di + p) * (di * dj) + (p * dj + q)] = \
                        ring.coerce(sgn)
            grid[tpos[(j, i)]][sidx] = Matrix(ring, dj * di, di * dj, ent,
                                              _trusted=True)
        comps[n] = _assemble(ring, grid, [t[3] for t in tl],
                             [s[3] for s in sl],
                             tgt.term(n).dim, src.term(n).dim)
    return ChainMap(src, tgt, 0, comps)


# -- cones --------------------------------------------------------------------

def cone(f):
    """Cone(f) = src[1] (+) tgt with differential [[-d, 0], [f, d]]."""
    if f.degree != 0:
        raise ValueError("cone needs a degree-0 chain map")
    X, Y = f.src, f.tgt
    alg = X.alg
    ring = alg.ring
    if X.is_zero() and Y.is_zero():
        return zero_complex(alg)
    lo = min(X.min_deg - 1, Y.min_deg)
    hi = max(X.max_deg - 1, Y.max_deg)
    terms = [direct_sum_modules(X.term(d + 1), Y.term(d))
             for d in range(lo, hi + 1)]
    diffs = []
    for d in range(lo, hi):
        diffs.append(_block2(
            ring, -X.diff(d + 1), None, f.comp(d + 1), Y.diff(d),
            (X.term(d + 2).dim, Y.term(d + 1).dim),
            (X.term(d + 1).dim, Y.term(d).dim)))
    return Complex(alg, lo, terms, diffs, check=False)


def cone_inclusion(f, c=None):
    """iota: tgt -> Cone(f)."""
    c = cone(f) if c is None else c
    ring = f.src.alg.ring
    comps = {}
    for d in f.tgt.degrees():
        dy = f.tgt.term(d).dim
        dx = f.src.term(d + 1).dim
        m = Matrix.zeros(ring, dx, dy).vstack(Matrix.identity(ring, dy))
        comps[d] = m
    return ChainMap(f.tgt, c, 0, comps, check=False)


def cone_projection(f, c=None):
    """pi: Cone(f) -> src[1]."""
    c = cone(f) if c is None else c
    sh = shift(f.src, 1)
    ring = f.src.alg.ring
    comps = {}
    for d in c.degrees():
        dx = f.src.term(d + 1).dim
        dy = f.tgt.term(d).dim
        comps[d] = Matrix.identity(ring, dx).hstack(Matrix.zeros(ring, dx, dy))
    return ChainMap(c, sh, 0, comps, check=False)


# -- homology -------------------------------------------------------------------

def homology(c):
    """Field: dict degree -> dimension.  Z: dict degree -> (free_rank, torsion)."""
    ring = c.alg.ring
    out = {}
    if ring.is_field:
        for d in c.degrees():
            dim = c.term(d).dim
            rk_out = rref(c.diff(d)).rank if c.term(d + 1).dim else 0
            rk_in = rref(c.diff(d - 1)).rank if c.term(d - 1).dim else 0
            h = dim - rk_out - rk_in
            if h:
                out[d] = h
        return out
    for d in c.degrees():
        if c.term(d).dim == 0:
            continue
        K = kernel(c.diff(d))
        B = c.diff(d - 1)
        if B.cols == 0:
            Y = Matrix.zeros(ring, K.cols, 0)
        else:
            Y = solve(K, B)
            assert Y is not None, "image must lie in the saturated kernel"
        if Y.cols == 0:
            rank_img = 0
            invf = []
        else:
            dd, _, _ = snf(Y)
            n = min(dd.rows, dd.cols)
            invf = [dd[i, i] for i in range(n) if dd[i, i] != 0]
            rank_img = len(invf)
        free = K.cols - rank_img
        torsion = tuple(v for v in invf if v not in (1, -1))
        if free or torsion:
            out[d] = (free, torsion)
    return out


# -- homotopy solver -------------------------------------------------------------

def _hom_bases(src, tgt, degree):
    """Per-degree intertwiner bases for maps src -> tgt of the given degree."""
    bases = {}
    for d in src.degrees():
        if src.term(d).dim and tgt.term(d + degree).dim:
            b = hom_basis(src.term(d), tgt.term(d + degree))
            if b:
                bases[d] = [m.mat for m in b]
    return bases


class _Unknowns:
    """Unknown graded maps in per-degree intertwiner coordinates.

    groups: list of (name, src, tgt, degree).  Each basis element of each
    component is one column; columns are ordered by group, then degree.
    """

    def __init__(self, ring, groups):
        self.ring = ring
        self.groups = {}
        n = 0
        for name, src, tgt, degree in groups:
            bases = _hom_bases(src, tgt, degree)
            cols = {}
            for d in sorted(bases):
                cols[d] = (n, bases[d])
                n += len(bases[d])
            self.groups[name] = (src, tgt, degree, cols)
        self.ncols = n

    def system(self, equations):
        """(A, b) stacking the equations in order.

        An equation (rows, cols, terms, rhs) says that the sum over its terms
        (name, d, fn) of fn(component d of the unknown name), a rows x cols
        matrix, equals rhs (None for zero); fn must be linear.  Empty
        equations are dropped.
        """
        ring = self.ring
        ncols = self.ncols
        zero = ring.zero()
        equations = [e for e in equations if e[0] * e[1]]
        nrows = sum(rows * cols for rows, cols, _, _ in equations)
        a = [zero] * (nrows * ncols)
        b = []
        for rows, cols, terms, rhs in equations:
            nent = rows * cols
            base = len(b) * ncols
            for name, d, fn in terms:
                off, basis = self.groups[name][3].get(d, (0, ()))
                for bi, bm in enumerate(basis):
                    col = slice(base + off + bi, base + nent * ncols, ncols)
                    a[col] = map(ring.add, a[col], fn(bm).entries)
            b.extend([zero] * nent if rhs is None else rhs.entries)
        return (Matrix(ring, nrows, ncols, a, _trusted=True),
                Matrix(ring, nrows, 1, b, _trusted=True))

    def comps(self, name, x, j=0):
        """Components {degree: Matrix} given by column j of x."""
        src, tgt, degree, cols = self.groups[name]
        ring = self.ring
        zero = ring.zero()
        out = {}
        for d, (off, basis) in cols.items():
            m = Matrix.zeros(ring, tgt.term(d + degree).dim, src.term(d).dim)
            for bi, bm in enumerate(basis):
                cval = x[off + bi, j]
                if cval != zero:
                    m = m + bm.scale(cval)
            if not m.is_zero():
                out[d] = m
        return out


def _in_window(d, equation_degrees):
    return equation_degrees is None or \
        equation_degrees[0] <= d <= equation_degrees[1]


def solve_null_homotopy(f, equation_degrees=None):
    """Find h of degree |f|-1 with [d, h] = d h - (-1)^{|h|} h d = f.

    h is sought with intertwiner components; the system is solved exactly
    (Diophantine over Z).  If equation_degrees is given, only equations for
    source degrees in that range are imposed (used for windowed verdicts).
    """
    src, tgt = f.src, f.tgt
    ring = src.alg.ring
    k = f.degree
    hdeg = k - 1
    sgn = ring.coerce(-1 if hdeg % 2 == 0 else 1)  # -(-1)^{|h|}
    u = _Unknowns(ring, [("h", src, tgt, hdeg)])
    A, rhs = u.system(
        (tgt.term(d + k).dim, src.term(d).dim,
         [("h", d, lambda b, dt=tgt.diff(d + hdeg): dt * b),
          ("h", d + 1, lambda b, ds=src.diff(d): (b * ds).scale(sgn))],
         f.comp(d))
        for d in range(src.min_deg - 1, src.max_deg + 2)
        if _in_window(d, equation_degrees))
    if not A.rows:
        return Verdict(PASS, witness=Homotopy(src, tgt, hdeg, {}))
    part = solve(A, rhs)
    if part is None:
        return Verdict(FAIL, reason="no null-homotopy exists")
    h = Homotopy(src, tgt, hdeg, u.comps("h", part))
    if equation_degrees is None:
        assert maps_equal(bracket(h), f), "solver returned a bad homotopy"
    return Verdict(PASS, witness=h)


def is_contractible(c, equation_degrees=None):
    if c.is_zero():
        return Verdict(PASS, witness=None)
    return solve_null_homotopy(identity_map(c), equation_degrees)


def homotopy_inverse(f, equation_degrees=None):
    """Find psi, h, h' with psi f = id + [d, h] and f psi = id + [d, h'].

    Verdict PASS carries (psi, h, h'); all three are found by one joint exact
    linear solve in intertwiner coordinates (psi is additionally constrained
    to be a chain map).
    """
    if f.degree != 0:
        raise ValueError("homotopy inverse needs a degree-0 map")
    C, D = f.src, f.tgt
    ring = C.alg.ring
    u = _Unknowns(ring, [("psi", D, C, 0), ("h", C, C, -1),
                         ("hp", D, D, -1)])
    eqs = []
    for d in range(min(C.min_deg, D.min_deg) - 1,
                   max(C.max_deg, D.max_deg) + 2):
        if not _in_window(d, equation_degrees):
            continue
        fd = f.comp(d)
        # chain condition: d_C psi_d - psi_{d+1} d_D = 0
        eqs.append((C.term(d + 1).dim, D.term(d).dim,
                    [("psi", d, lambda b, dc=C.diff(d): dc * b),
                     ("psi", d + 1, lambda b, dd=D.diff(d): -(b * dd))],
                    None))
        # psi f - [d, h] = id_C  (h odd: [d,h] = d h + h d)
        r = C.term(d).dim
        eqs.append((r, r,
                    [("psi", d, lambda b, fd=fd: b * fd),
                     ("h", d, lambda b, dc=C.diff(d - 1): -(dc * b)),
                     ("h", d + 1, lambda b, dc=C.diff(d): -(b * dc))],
                    Matrix.identity(ring, r)))
        # f psi - [d, h'] = id_D
        r = D.term(d).dim
        eqs.append((r, r,
                    [("psi", d, lambda b, fd=fd: fd * b),
                     ("hp", d, lambda b, dd=D.diff(d - 1): -(dd * b)),
                     ("hp", d + 1, lambda b, dd=D.diff(d): -(b * dd))],
                    Matrix.identity(ring, r)))
    A, rhs = u.system(eqs)
    if not A.rows:
        return Verdict(PASS, witness=(zero_map(D, C), Homotopy(C, C, -1, {}),
                                      Homotopy(D, D, -1, {})))
    part = solve(A, rhs)
    if part is None:
        return Verdict(FAIL, reason="no homotopy inverse")
    psi = ChainMap(D, C, 0, u.comps("psi", part),
                   check=(equation_degrees is None))
    h = Homotopy(C, C, -1, u.comps("h", part))
    hp = Homotopy(D, D, -1, u.comps("hp", part))
    return Verdict(PASS, witness=(psi, h, hp))


# -- restriction (windows) -------------------------------------------------------

def restrict(c, lo, hi):
    """Hard truncation to degrees [lo, hi]; stays a complex."""
    terms = [c.term(d) for d in range(lo, hi + 1)]
    diffs = [c.diff(d) for d in range(lo, hi)]
    return Complex(c.alg, lo, terms, diffs, check=False)


def restrict_map(f, lo, hi):
    src = restrict(f.src, lo, hi)
    tgt = restrict(f.tgt, lo, hi)
    comps = {d: f.comp(d) for d in range(lo, hi + 1)
             if lo <= d + f.degree <= hi and not f.comp(d).is_zero()}
    return ChainMap(src, tgt, f.degree, comps, check=False)


# -- splitting and minimization ---------------------------------------------------

class SplitComplex:
    """An isomorphic copy of a complex with block-diagonal terms.

    blocks[d] is a list of (tag, offset, dim) describing the indecomposable
    summands of term(d); to_orig / from_orig are inverse isomorphisms.
    """

    __slots__ = ("conj", "blocks", "to_orig", "from_orig")

    def __init__(self, conj, blocks, to_orig, from_orig):
        self.conj = conj
        self.blocks = blocks
        self.to_orig = to_orig
        self.from_orig = from_orig


def _matrix_inverse(m):
    inv = solve(m, Matrix.identity(m.ring, m.rows))
    assert inv is not None, "matrix must be invertible"
    return inv


def split_complex(c):
    """Conjugate every term into its indecomposable decomposition (fields),
    or treat each basis vector as a rank-one block over Z when x acts by 1."""
    ring = c.alg.ring
    blocks = {}
    basis = {}
    if ring.is_field:
        for d in c.degrees():
            dec = decompose(c.term(d))
            bl = []
            off = 0
            for t in dec.tags:
                bl.append((t, off, t.dim))
                off += t.dim
            blocks[d] = bl
            basis[d] = dec.basis
    elif c.alg.m == 1:
        for d in c.degrees():
            n = c.term(d).dim
            blocks[d] = [(None, i, 1) for i in range(n)]
            basis[d] = Matrix.identity(ring, n)
    else:
        raise IntegerRingUnsupported(
            "splitting over Z needs a rank-one presentation")
    terms = []
    diffs = []
    binv = {d: _matrix_inverse(basis[d]) for d in c.degrees()}
    for d in c.degrees():
        xa = binv[d] * c.term(d).x_action * basis[d]
        terms.append(Module(c.alg, c.term(d).dim, xa, check=False))
    for d in range(c.min_deg, c.max_deg):
        diffs.append(binv[d + 1] * c.diff(d) * basis[d])
    conj = Complex(c.alg, c.min_deg, terms, diffs, check=False)
    to_orig = ChainMap(conj, c, 0, {d: basis[d] for d in c.degrees()},
                       check=False)
    from_orig = ChainMap(c, conj, 0, {d: binv[d] for d in c.degrees()},
                         check=False)
    return SplitComplex(conj, blocks, to_orig, from_orig)


def _scatter(ring, rows, cols, entries_fn):
    e = [ring.zero()] * (rows * cols)
    entries_fn(e, cols)
    return Matrix(ring, rows, cols, e, _trusted=True)


def _is_invertible(m):
    if m.rows != m.cols or m.rows == 0:
        return False
    ring = m.ring
    if ring.is_field:
        return rref(m).rank == m.rows
    d, _, _ = snf(m)
    prod = 1
    for i in range(m.rows):
        prod *= d[i, i]
    return prod in (1, -1)


class MinimizeResult:
    __slots__ = ("minimal", "blocks", "incl", "proj", "h")

    def __init__(self, minimal, blocks, incl, proj, h):
        self.minimal = minimal
        self.blocks = blocks
        self.incl = incl
        self.proj = proj
        self.h = h


def maps_equal(f, g):
    if f.degree != g.degree:
        return False
    for d in set(f.comps) | set(g.comps):
        if not (f.comp(d) - g.comp(d)).is_zero():
            return False
    return True


def minimize(c, retract=True):
    """Gaussian-eliminate invertible differential blocks, keeping a strong
    deformation retract (incl, proj, h) onto the minimal complex.

    Deterministic: scan lowest degree first, then lexicographic block pairs.
    With retract=False the retract data is not accumulated (incl, proj and h
    come back as None); composing it per elimination step dominates the cost
    on large complexes, so callers that only need the minimal model should
    opt out.
    """
    sp = split_complex(c)
    cur = sp.conj
    blocks = {d: list(bl) for d, bl in sp.blocks.items()}
    incl = sp.to_orig
    proj = sp.from_orig
    h = Homotopy(c, c, -1, {})
    ring = c.alg.ring

    while True:
        found = None
        for d in sorted(blocks):
            if d + 1 not in blocks:
                continue
            for si, (stag, soff, sdim) in enumerate(blocks[d]):
                for ti, (ttag, toff, tdim) in enumerate(blocks[d + 1]):
                    if sdim != tdim or sdim == 0:
                        continue
                    sub = cur.diff(d).submatrix(range(toff, toff + tdim),
                                                range(soff, soff + sdim))
                    if _is_invertible(sub):
                        found = (d, si, ti, sub)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            break
        d, si, ti, alpha = found
        stag, soff, sdim = blocks[d][si]
        ttag, toff, tdim = blocks[d + 1][ti]
        ainv = _matrix_inverse(alpha)
        nd = cur.term(d).dim
        nd1 = cur.term(d + 1).dim
        scols = list(range(soff, soff + sdim))
        xcols = [j for j in range(nd) if j not in scols]
        trows = list(range(toff, toff + tdim))
        yrows = [i for i in range(nd1) if i not in trows]
        Dd = cur.diff(d)
        beta = Dd.submatrix(trows, xcols)
        gamma = Dd.submatrix(yrows, scols)
        delta = Dd.submatrix(yrows, xcols)
        new_dd = delta - gamma * ainv * beta

        # assemble the new complex
        terms = []
        diffs = []
        for deg in cur.degrees():
            if deg == d:
                xa = cur.term(deg).x_action.submatrix(xcols, xcols)
                terms.append(Module(c.alg, len(xcols), xa, check=False))
            elif deg == d + 1:
                xa = cur.term(deg).x_action.submatrix(yrows, yrows)
                terms.append(Module(c.alg, len(yrows), xa, check=False))
            else:
                terms.append(cur.term(deg))
        for deg in range(cur.min_deg, cur.max_deg):
            if deg == d - 1:
                diffs.append(cur.diff(deg).submatrix(xcols,
                                                     range(cur.term(deg).dim)))
            elif deg == d:
                diffs.append(new_dd)
            elif deg == d + 1:
                diffs.append(cur.diff(deg).submatrix(
                    range(cur.term(deg + 1).dim), yrows))
            else:
                diffs.append(cur.diff(deg))
        new_cur = Complex(c.alg, cur.min_deg, terms, diffs, check=False)

        # step retract data (relative to cur)
        if retract:
            m_ab = (-(ainv * beta))
            iota_d = _scatter(ring, nd, len(xcols), lambda e, C: _fill_rows(
                e, C, scols, m_ab) or _fill_eye(e, C, xcols, ring))
            iota_d1 = _scatter(ring, nd1, len(yrows), lambda e, C: _fill_eye(
                e, C, yrows, ring))
            pi_d = _scatter(ring, len(xcols), nd, lambda e, C: _fill_cols_eye(
                e, C, xcols, ring))
            m_ga = -(gamma * ainv)
            pi_d1 = _scatter(ring, len(yrows), nd1, lambda e, C: _fill_cols(
                e, C, trows, m_ga) or _fill_cols_eye(e, C, yrows, ring))
            h_d1 = _scatter(ring, nd, nd1, lambda e, C: _fill_block(
                e, C, scols, trows, ainv))

            iota_comps = {}
            pi_comps = {}
            for deg in cur.degrees():
                if deg == d:
                    iota_comps[deg] = iota_d
                    pi_comps[deg] = pi_d
                elif deg == d + 1:
                    iota_comps[deg] = iota_d1
                    pi_comps[deg] = pi_d1
                else:
                    iota_comps[deg] = Matrix.identity(ring,
                                                      cur.term(deg).dim)
                    pi_comps[deg] = Matrix.identity(ring, cur.term(deg).dim)
            iota = ChainMap(new_cur, cur, 0, iota_comps, check=False)
            pi = ChainMap(cur, new_cur, 0, pi_comps, check=False)
            h_step = Homotopy(cur, cur, -1, {d + 1: h_d1})

            h = h + incl.compose(h_step).compose(proj)
            incl = incl.compose(iota)
            proj = pi.compose(proj)

        # update blocks with recomputed offsets
        newb = {}
        for deg, bl in blocks.items():
            if deg == d:
                keep = [b for k, b in enumerate(bl) if k != si]
            elif deg == d + 1:
                keep = [b for k, b in enumerate(bl) if k != ti]
            else:
                keep = bl
            off = 0
            nb = []
            for (tag, _, dim) in keep:
                nb.append((tag, off, dim))
                off += dim
            newb[deg] = nb
        blocks = newb
        cur = new_cur

    minimal = Complex(c.alg, cur.min_deg, list(cur.terms), list(cur.diffs))
    tagonly = {d: [b[0] for b in bl] for d, bl in blocks.items() if bl}
    if not retract:
        return MinimizeResult(minimal, tagonly, None, None, None)
    incl = ChainMap(minimal, c, 0,
                    {d: incl.comp(d) for d in minimal.degrees()}, check=True)
    proj = ChainMap(c, minimal, 0,
                    {d: proj.comp(d) for d in c.degrees()}, check=True)
    # exact retract identities
    assert maps_equal(proj.compose(incl), identity_map(minimal))
    defect = identity_map(c) - incl.compose(proj)
    assert maps_equal(bracket(h), defect), "retract homotopy identity fails"
    return MinimizeResult(minimal, tagonly, incl, proj, h)


def _fill_rows(e, C, rows, m):
    for i, r in enumerate(rows):
        for j in range(m.cols):
            e[r * C + j] = m[i, j]


def _fill_eye(e, C, rows, ring):
    for j, r in enumerate(rows):
        e[r * C + j] = ring.one()


def _fill_cols(e, C, cols, m):
    for i in range(m.rows):
        for j, cc in enumerate(cols):
            e[i * C + cc] = m[i, j]


def _fill_cols_eye(e, C, cols, ring):
    for i, cc in enumerate(cols):
        e[i * C + cc] = ring.one()


def _fill_block(e, C, rows, cols, m):
    for i, r in enumerate(rows):
        for j, cc in enumerate(cols):
            e[r * C + cc] = m[i, j]


# -- chain map spaces and equivalence ----------------------------------------------

def chain_map_space(src, tgt, degree=0):
    """Basis of the space/lattice of degree-k chain maps src -> tgt."""
    ring = src.alg.ring
    u = _Unknowns(ring, [("f", src, tgt, degree)])
    if u.ncols == 0:
        return []
    sgn = ring.coerce(-1 if degree % 2 == 0 else 1)  # -(-1)^k
    A, _ = u.system(
        (tgt.term(d + degree + 1).dim, src.term(d).dim,
         [("f", d, lambda b, dt=tgt.diff(d + degree): dt * b),
          ("f", d + 1, lambda b, ds=src.diff(d): (b * ds).scale(sgn))],
         None)
        for d in range(src.min_deg - 1, src.max_deg + 2))
    kb = kernel(A) if A.rows else Matrix.identity(ring, u.ncols)
    return [ChainMap(src, tgt, degree, u.comps("f", kb, j), check=False)
            for j in range(kb.cols)]


def _graded_tag_multisets(mr):
    return {d: sorted(t.sort_key() if t is not None else ((1,), (), 1)
                      for t in tags)
            for d, tags in mr.blocks.items()}


def _iso_per_degree(f):
    degs = set(f.src.degrees()) | set(f.tgt.degrees())
    for d in degs:
        m = f.comp(d)
        if f.src.term(d).dim != f.tgt.term(d).dim:
            return False
        if f.src.term(d).dim and not _is_invertible(m):
            return False
    return True


def equivalent(c1, c2, candidate=None, seed=0xC0FFEE, equation_degrees=None):
    """Homotopy equivalence verdict: PASS with witness, FAIL with invariant
    mismatch, or INCONCLUSIVE (never upgraded to FAIL by a failed search)."""
    import random as _random
    if candidate is not None:
        v = is_contractible(cone(candidate), equation_degrees)
        if v.passed:
            return Verdict(PASS, witness=candidate)
        return Verdict(FAIL, reason="candidate cone is not contractible")
    if homology(c1) != homology(c2):
        return Verdict(FAIL, reason="homology differs")
    ring = c1.alg.ring
    try:
        m1 = minimize(c1)
        m2 = minimize(c2)
    except IntegerRingUnsupported:
        return Verdict(INCONCLUSIVE,
                       reason="integers require an explicit candidate")
    if ring.is_field:
        if _graded_tag_multisets(m1) != _graded_tag_multisets(m2):
            return Verdict(FAIL, reason="graded indecomposables differ")
    if m1.minimal == m2.minimal:
        iso = m2.incl.compose(identity_map(m1.minimal)).compose(m1.proj)
        return Verdict(PASS, witness=iso)
    space = chain_map_space(m1.minimal, m2.minimal, 0)
    if not space:
        if m1.minimal.is_zero() and m2.minimal.is_zero():
            return Verdict(PASS, witness=zero_map(c1, c2))
        return Verdict(INCONCLUSIVE, reason="no candidate chain maps")
    rng = _random.Random(seed)
    n = len(space)
    tried = set()

    def materialize(coeffs):
        f = None
        for cf, b in zip(coeffs, space):
            if cf == 0:
                continue
            t = b.scale(ring.coerce(cf))
            f = t if f is None else f + t
        return f

    if ring.kind == "fp" and ring.p ** n <= 2 ** 16:
        combos = []
        for idx in range(1, ring.p ** n):
            v = idx
            cf = []
            for _ in range(n):
                cf.append(v % ring.p)
                v //= ring.p
            combos.append(tuple(cf))
    else:
        combos = None

    nsamples = 32 if ring.kind == "q" else 64
    attempts = combos if combos is not None else range(nsamples)
    for a in attempts:
        if combos is not None:
            cf = a
        else:
            if ring.kind == "fp":
                cf = tuple(rng.randrange(ring.p) for _ in range(n))
            else:
                cf = tuple(rng.randrange(-3, 4) for _ in range(n))
        if cf in tried or all(x == 0 for x in cf):
            continue
        tried.add(cf)
        f = materialize(cf)
        if f is None:
            continue
        if _iso_per_degree(f):
            iso = m2.incl.compose(f).compose(m1.proj)
            return Verdict(PASS, witness=iso)
    return Verdict(INCONCLUSIVE, reason="no isomorphism found by search")


# -- hom complexes ------------------------------------------------------------------

def _coords_in_basis(ring, basis_mats, target):
    if not basis_mats:
        assert target.is_zero()
        return []
    cols = [Matrix(ring, target.rows * target.cols, 1, list(b.entries),
                   _trusted=True) for b in basis_mats]
    A = cols[0]
    for ccc in cols[1:]:
        A = A.hstack(ccc)
    b = Matrix(ring, target.rows * target.cols, 1, list(target.entries),
               _trusted=True)
    got = solve(A, b)
    assert got is not None, "composite must lie in the intertwiner span"
    return [got[i, 0] for i in range(A.cols)]


def hom_complex(c, d):
    """Hom^*(c, d) as a complex of k-modules (modules over k[x]/(x-1)).

    Degree-n term: (+)_i Hom_A(c_i, d_{i+n}); differential f -> d f - (-1)^n f d.
    """
    ring = c.alg.ring
    triv = AlgebraPresentation(ring, [ring.neg(ring.one()), ring.one()])
    if c.is_zero() or d.is_zero():
        return zero_complex(triv)
    lo = d.min_deg - c.max_deg
    hi = d.max_deg - c.min_deg
    bases = {}
    layouts = {}
    for n in range(lo, hi + 1):
        lay = []
        off = 0
        for i in c.degrees():
            b = hom_basis(c.term(i), d.term(i + n)) \
                if c.term(i).dim and d.term(i + n).dim else []
            if b:
                lay.append((i, off, [m.mat for m in b]))
                off += len(b)
        layouts[n] = lay
        bases[n] = off
    terms = [Module(triv, bases[n], Matrix.identity(ring, bases[n]))
             for n in range(lo, hi + 1)]
    diffs = []
    for n in range(lo, hi):
        rows = bases[n + 1]
        cols = bases[n]
        ent = [ring.zero()] * (rows * cols)
        sgn = ring.coerce(-1 if n % 2 == 0 else 1)  # -(-1)^n
        tpos = {i: (off, bm) for (i, off, bm) in layouts[n + 1]}
        for (i, soff, bm) in layouts[n]:
            for bi, b in enumerate(bm):
                col = soff + bi
                # d_D . b lands in the degree-i piece of Hom^{n+1}
                if i in tpos:
                    toff, tb = tpos[i]
                    coords = _coords_in_basis(ring, tb, d.diff(i + n) * b)
                    for k, v in enumerate(coords):
                        if v != ring.zero():
                            ent[(toff + k) * cols + col] = ring.add(
                                ent[(toff + k) * cols + col], v)
                # -(-1)^n b . d_C lands in the degree-(i-1) piece
                if i - 1 in tpos:
                    toff, tb = tpos[i - 1]
                    coords = _coords_in_basis(ring, tb,
                                              (b * c.diff(i - 1)).scale(sgn))
                    for k, v in enumerate(coords):
                        if v != ring.zero():
                            ent[(toff + k) * cols + col] = ring.add(
                                ent[(toff + k) * cols + col], v)
        diffs.append(Matrix(ring, rows, cols, ent, _trusted=True))
    return Complex(triv, lo, terms, diffs)


# -- serialization -------------------------------------------------------------------

def module_to_json(m):
    return {"dim": m.dim, "x_action": matrix_to_json(m.x_action)}


def module_from_json(alg, obj):
    return Module(alg, obj["dim"], matrix_from_json(alg.ring, obj["x_action"]))


def complex_to_json(c):
    return {"min_deg": c.min_deg,
            "terms": [module_to_json(t) for t in c.terms],
            "diffs": [matrix_to_json(d) for d in c.diffs]}


def complex_from_json(alg, obj):
    terms = [module_from_json(alg, t) for t in obj["terms"]]
    diffs = [matrix_from_json(alg.ring, d) for d in obj["diffs"]]
    return Complex(alg, obj["min_deg"], terms, diffs)
