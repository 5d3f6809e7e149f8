"""Modules over cyclic algebras k[x]/(p(x)) with exact-arithmetic operations.

A module is a finite free k-module with an x-action matrix X satisfying
p(X) = 0; maps are intertwiners.  The tensor product is the Kronecker product
with x acting diagonally (x.(a (x) b) = xa (x) xb), which makes the trivial
module (x acts by 1) the monoidal unit and gives A (x) A = A^m for the regular
module over k[x]/(x^m - 1).
"""

from functools import cache
from math import gcd

from .exactlinalg import (
    Matrix, IntegerRingUnsupported, kernel, solve,
)


class UnitNotAnnihilated(Exception):
    """The trivial module needs p(1) = 0."""


# -- polynomials (ascending coefficient lists over a GroundRing) --------------

def pnormalize(ring, c):
    c = [ring.coerce(x) for x in c]
    while c and c[-1] == ring.zero():
        c.pop()
    return c


def pdeg(c):
    return len(c) - 1  # -1 for the zero polynomial


def padd(ring, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else ring.zero()
        y = b[i] if i < len(b) else ring.zero()
        out.append(ring.add(x, y))
    return pnormalize(ring, out)


def psub(ring, a, b):
    return padd(ring, a, [ring.neg(x) for x in b])


def pmul(ring, a, b):
    if not a or not b:
        return []
    out = [ring.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == ring.zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = ring.add(out[i + j], ring.mul(x, y))
    return pnormalize(ring, out)


def pdivmod(ring, a, b):
    """Euclidean division over a field (or by a monic polynomial)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [ring.zero()] * max(0, len(a) - len(b) + 1)
    inv = ring.inv(b[-1])
    while len(a) >= len(b) and a:
        c = ring.mul(a[-1], inv)
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] = ring.sub(a[d + i], ring.mul(c, y))
        a = pnormalize(ring, a)
    return pnormalize(ring, q), a


def pmonic(ring, a):
    if not a:
        return a
    inv = ring.inv(a[-1])
    return [ring.mul(inv, x) for x in a]


def pxgcd(ring, a, b):
    """Extended gcd over a field: returns (g, s, t) monic with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [ring.one()], []
    t0, t1 = [], [ring.one()]
    while r1:
        q, r = pdivmod(ring, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(ring, s0, pmul(ring, q, s1))
        t0, t1 = t1, psub(ring, t0, pmul(ring, q, t1))
    if r0:
        lead = ring.inv(r0[-1])
        r0 = [ring.mul(lead, x) for x in r0]
        s0 = [ring.mul(lead, x) for x in s0]
        t0 = [ring.mul(lead, x) for x in t0]
    return r0, s0, t0


def peval_matrix(ring, c, X):
    """p(X) for a square matrix X."""
    n = X.rows
    out = Matrix.zeros(ring, n, n)
    pw = Matrix.identity(ring, n)
    for i, coeff in enumerate(c):
        if i > 0:
            pw = pw * X
        if coeff != ring.zero():
            out = out + pw.scale(coeff)
    return out


def peval_scalar(ring, c, v):
    out = ring.zero()
    pw = ring.one()
    for i, coeff in enumerate(c):
        if i > 0:
            pw = ring.mul(pw, v)
        out = ring.add(out, ring.mul(coeff, pw))
    return out


# -- factorization -------------------------------------------------------------

def factor_over_prime_field(ring, pcoeffs):
    """Factor a monic polynomial over F_p by trial division at small degree."""
    assert ring.kind == "fp"
    rem = pmonic(ring, pnormalize(ring, pcoeffs))
    factors = []

    def monic_polys(d):
        # all monic polynomials of degree d, lexicographic in low coefficients
        total = ring.p ** d
        for idx in range(total):
            c = []
            v = idx
            for _ in range(d):
                c.append(v % ring.p)
                v //= ring.p
            yield pnormalize(ring, c + [1])

    d = 1
    while pdeg(rem) > 0:
        if d > pdeg(rem) // 2:
            factors.append((tuple(rem), 1))
            break
        found = False
        for cand in monic_polys(d):
            q, r = pdivmod(ring, rem, cand)
            if not r:
                e = 1
                rem = q
                while True:
                    q, r = pdivmod(ring, rem, cand)
                    if r:
                        break
                    e += 1
                    rem = q
                factors.append((tuple(cand), e))
                found = True
                break
        if not found:
            d += 1
    return sorted(factors, key=lambda f: (len(f[0]), f[0]))


def cyclotomic(ring, n):
    """The n-th cyclotomic polynomial over Q (or any field via recursion)."""
    num = [ring.neg(ring.one())] + [ring.zero()] * (n - 1) + [ring.one()]
    for d in range(1, n):
        if n % d == 0:
            num, r = pdivmod(ring, num, cyclotomic(ring, d))
            assert not r
    return num


def factor_x_power_minus_one(ring, m):
    """Factor x^m - 1.  Over Q: cyclotomic factors.  Over F_p: trial division."""
    pc = [ring.neg(ring.one())] + [ring.zero()] * (m - 1) + [ring.one()]
    if ring.kind == "fp":
        return factor_over_prime_field(ring, pc)
    if ring.kind == "q":
        facs = [(tuple(cyclotomic(ring, d)), 1) for d in range(1, m + 1)
                if m % d == 0]
        return sorted(facs, key=lambda f: (len(f[0]), f[0]))
    raise IntegerRingUnsupported("factorization over Z is not provided")


# -- algebra / modules / maps ---------------------------------------------------

class AlgebraPresentation:
    """k[x]/(p(x)) for a monic p, with an optional factorization of p."""

    __slots__ = ("ring", "p_coeffs", "factorization")

    def __init__(self, ring, p_coeffs, factorization=None):
        p_coeffs = pnormalize(ring, p_coeffs)
        if not p_coeffs or p_coeffs[-1] != ring.one():
            raise ValueError("presentation polynomial must be monic")
        if pdeg(p_coeffs) < 1:
            raise ValueError("presentation polynomial must be nonconstant")
        self.ring = ring
        self.p_coeffs = tuple(p_coeffs)
        if factorization is not None:
            prod = [ring.one()]
            for q, e in factorization:
                for _ in range(e):
                    prod = pmul(ring, prod, list(q))
            if prod != list(p_coeffs):
                raise ValueError("factorization does not multiply to p")
            factorization = tuple((tuple(q), e) for q, e in factorization)
        self.factorization = factorization

    @property
    def m(self):
        return pdeg(list(self.p_coeffs))

    def __eq__(self, other):
        return (isinstance(other, AlgebraPresentation)
                and self.ring == other.ring and self.p_coeffs == other.p_coeffs)

    def __hash__(self):
        return hash((self.ring, self.p_coeffs))

    def __repr__(self):
        return f"k[x]/({list(self.p_coeffs)}) over {self.ring!r}"


def cyclic_algebra(ring, m):
    """k[x]/(x^m - 1), factored when the factorization is available."""
    pc = [ring.neg(ring.one())] + [ring.zero()] * (m - 1) + [ring.one()]
    fac = None
    if ring.is_field:
        fac = factor_x_power_minus_one(ring, m)
    return AlgebraPresentation(ring, pc, fac)


class Module:
    """A k-free module of finite rank with x acting by a matrix killed by p."""

    __slots__ = ("alg", "dim", "x_action")

    def __init__(self, alg, dim, x_action, check=True):
        if x_action.rows != dim or x_action.cols != dim:
            raise ValueError("x_action must be dim x dim")
        if x_action.ring != alg.ring:
            raise ValueError("ring mismatch")
        if check and dim and not peval_matrix(alg.ring, list(alg.p_coeffs),
                                              x_action).is_zero():
            raise ValueError("p(x) does not annihilate the module")
        self.alg = alg
        self.dim = dim
        self.x_action = x_action

    def is_zero(self):
        return self.dim == 0

    def __eq__(self, other):
        return (isinstance(other, Module) and self.alg == other.alg
                and self.dim == other.dim and self.x_action == other.x_action)

    def __hash__(self):
        return hash((self.alg, self.dim, self.x_action))

    def __repr__(self):
        return f"Module(dim={self.dim})"


@cache
def zero_module(alg):
    """The zero module, one shared instance per algebra."""
    return Module(alg, 0, Matrix.zeros(alg.ring, 0, 0))


def regular_module(alg):
    """A as a module over itself: the companion matrix of p."""
    ring, m = alg.ring, alg.m
    return Module(alg, m, Matrix._placed(ring, m, m, [
        *((i, i - 1, ring.one()) for i in range(1, m)),
        *((i, m - 1, ring.neg(alg.p_coeffs[i])) for i in range(m))]))


def trivial_module(alg):
    """The monoidal unit: x acts by 1.  Needs p(1) = 0."""
    ring = alg.ring
    if peval_scalar(ring, list(alg.p_coeffs), ring.one()) != ring.zero():
        raise UnitNotAnnihilated("p(1) != 0, so x cannot act by 1")
    return Module(alg, 1, Matrix.identity(ring, 1))


def direct_sum_modules(*modules):
    """The direct sum of one or more modules, in the order given, built in
    one pass over the diagonal blocks."""
    alg = modules[0].alg
    if any(m.alg != alg for m in modules):
        raise ValueError("algebra mismatch")
    rows, off = [], 0
    for m in modules:
        rows.extend({off + j: v for j, v in r.items()} for r in m.x_action.data)
        off += m.dim
    return Module(alg, off, Matrix._of(alg.ring, off, off, rows), check=False)


def tensor_modules(a, b):
    if a.alg != b.alg:
        raise ValueError("algebra mismatch")
    return Module(a.alg, a.dim * b.dim, a.x_action.kron(b.x_action),
                  check=False)


def orbits(module):
    """The x-orbits of the basis, each as [j, xj, x^2 j, ...] from its least
    index and in the order of those, when x permutes the basis; else None."""
    n = module.dim
    one = module.alg.ring.one()
    succ = [None] * n
    for i, row in enumerate(module.x_action.data):
        if len(row) != 1:
            return None
        (j, v), = row.items()
        if v != one or succ[j] is not None:
            return None
        succ[j] = i  # x e_j = e_i
    out = []
    seen = [False] * n
    for j in range(n):
        if not seen[j]:
            orbit = []
            while not seen[j]:
                seen[j] = True
                orbit.append(j)
                j = succ[j]
            out.append(orbit)
    return out


def hom_basis(src, tgt):
    """Basis of Hom_A(src, tgt): a list of tgt.dim x src.dim matrices m
    with m * x_src = x_tgt * m.

    Over Z the basis spans a saturated sublattice (it is the full kernel of an
    integer matrix), so integral coordinates of any intertwiner exist.

    Between permutation modules a matrix intertwines exactly when it is
    constant on the x-orbits of the cells of tgt x src, so the basis is the
    orbit indicators, listed in the order the kernel path gives them (by
    their last row-major cell); nothing is solved.
    """
    if src.alg != tgt.alg:
        raise ValueError("algebra mismatch")
    ring = src.alg.ring
    if src.dim == 0 or tgt.dim == 0:
        return []
    so, to = orbits(src), orbits(tgt)
    if so is None or to is None:
        return _kernel_hom_basis(src, tgt)
    cells = []
    for t in to:
        for s in so:
            g = gcd(len(t), len(s))
            span = len(t) * len(s) // g
            for u in range(g):
                orbit = [(t[(u + k) % len(t)], s[k % len(s)])
                         for k in range(span)]
                cells.append((max(i * src.dim + j for i, j in orbit), orbit))
    cells.sort()
    one = ring.one()
    out = []
    for _, orbit in cells:
        rows = [{} for _ in range(tgt.dim)]
        for i, j in orbit:
            rows[i][j] = one
        out.append(Matrix._of(ring, tgt.dim, src.dim, rows))
    return out


def _kernel_hom_basis(src, tgt):
    """hom_basis for any modules: the kernel of the intertwiner equations."""
    ring = src.alg.ring
    # row-major vec: vec(M X_s) = (I (x) X_s^T) vec M, vec(X_t M) = (X_t (x) I) vec M
    it = Matrix.identity(ring, tgt.dim)
    isrc = Matrix.identity(ring, src.dim)
    sys = it.kron(src.x_action.transpose()) - tgt.x_action.kron(isrc)
    out = []
    for vec in kernel(sys).transpose().data:
        rows = [{} for _ in range(tgt.dim)]
        for k, v in vec.items():
            rows[k // src.dim][k % src.dim] = v
        out.append(Matrix._of(ring, tgt.dim, src.dim, rows))
    return out


# -- Krull-Schmidt decomposition over fields ------------------------------------

def _poly_matrix_snf(ring, a):
    """Smith form of a matrix of polynomials over a field.

    Returns (diag, s_inv) where diag is the list of diagonal invariant factors
    (monic, each dividing the next) and s_inv is the polynomial matrix with
    s * a * t = diag and s_inv = s^{-1}; only s^{-1} is needed by callers.
    """
    n = len(a)
    m = len(a[0]) if n else 0
    A = [[pnormalize(ring, e) for e in row] for row in a]
    # s_inv starts as the identity; every row op on A is mirrored by the
    # inverse column op on s_inv so that s_inv tracks S^{-1} exactly.
    s_inv = [[([ring.one()] if i == j else []) for j in range(n)]
             for i in range(n)]

    def row_sub(i, j, q):  # A.row_i -= q * A.row_j ; s_inv.col_j += q * s_inv.col_i
        A[i] = [psub(ring, x, pmul(ring, q, y)) for x, y in zip(A[i], A[j])]
        for r in range(n):
            s_inv[r][j] = padd(ring, s_inv[r][j], pmul(ring, q, s_inv[r][i]))

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        for r in range(n):
            s_inv[r][i], s_inv[r][j] = s_inv[r][j], s_inv[r][i]

    def row_scale(i, u):  # u a unit scalar
        A[i] = [pmul(ring, [u], x) for x in A[i]]
        uinv = ring.inv(u)
        for r in range(n):
            s_inv[r][i] = pmul(ring, [uinv], s_inv[r][i])

    def col_sub(i, j, q):  # A.col_i -= q * A.col_j (t is not tracked)
        for r in range(n):
            A[r][i] = psub(ring, A[r][i], pmul(ring, q, A[r][j]))

    def col_swap(i, j):
        for r in range(n):
            A[r][i], A[r][j] = A[r][j], A[r][i]

    k = 0
    nn = min(n, m)
    while k < nn:
        best, pr, pc = None, None, None
        for i in range(k, n):
            for j in range(k, m):
                if A[i][j]:
                    d = pdeg(A[i][j])
                    if best is None or d < best:
                        best, pr, pc = d, i, j
        if pr is None:
            break
        if pr != k:
            row_swap(k, pr)
        if pc != k:
            col_swap(k, pc)
        dirty = False
        for i in range(k + 1, n):
            if A[i][k]:
                q, _ = pdivmod(ring, A[i][k], A[k][k])
                row_sub(i, k, q)
                if A[i][k]:
                    dirty = True
        for j in range(k + 1, m):
            if A[k][j]:
                q, _ = pdivmod(ring, A[k][j], A[k][k])
                col_sub(j, k, q)
                if A[k][j]:
                    dirty = True
        if dirty:
            continue
        bad = None
        for i in range(k + 1, n):
            for j in range(k + 1, m):
                _, r = pdivmod(ring, A[i][j], A[k][k])
                if r:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_sub(k, bad, [ring.neg(ring.one())])  # fold offending row in
            continue
        if A[k][k][-1] != ring.one():
            row_scale(k, ring.inv(A[k][k][-1]))
        k += 1
    diag = [A[i][i] if i < m else [] for i in range(n)]
    return diag, s_inv


class IndecomposableTag:
    """(irreducible q, multiplicity j): the summand k[x]/(q^j)."""

    __slots__ = ("q", "j")

    def __init__(self, q, j):
        self.q = tuple(q)
        self.j = j

    @property
    def dim(self):
        return (len(self.q) - 1) * self.j

    def sort_key(self):
        return (len(self.q) - 1, self.q, self.j)

    def __eq__(self, other):
        return (isinstance(other, IndecomposableTag)
                and self.q == other.q and self.j == other.j)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __hash__(self):
        return hash((self.q, self.j))

    def __repr__(self):
        return f"({list(self.q)})^{self.j}"


class Decomposition:
    """Ordered indecomposable summands with an explicit basis change.

    basis columns are grouped by block; conjugating x_action by basis gives a
    block-diagonal matrix whose blocks realize the tags.  inverse is the
    inverse of basis.  When basis is a permutation matrix, perm lists the
    old index of each new basis vector (column k of basis is e_perm[k]);
    otherwise perm is None.
    """

    __slots__ = ("module", "tags", "basis", "inverse", "perm")

    def __init__(self, module, tags, basis, inverse, perm=None):
        self.module = module
        self.tags = tags
        self.basis = basis
        self.inverse = inverse
        self.perm = perm


def is_local(alg):
    """Whether p = (x - 1)^m is the whole factorization, so that every
    indecomposable is k[x]/(x - 1)^j (over F_p: m a power of p)."""
    one = alg.ring.one()
    fac = alg.factorization
    return fac is not None and len(fac) == 1 \
        and fac[0][0] == (alg.ring.neg(one), one)


def _nonzero_components(X):
    """Connected components of the symmetrized nonzero pattern of X."""
    parent = list(range(X.rows))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, row in enumerate(X.data):
        for j in row:
            parent[find(i)] = find(j)
    groups = {}
    for i in range(X.rows):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def decompose(module):
    """Krull-Schmidt decomposition over a field with a known factorization.

    A permutation module over a local algebra needs no Smith form: an orbit
    of size s spans k[x]/(x^s - 1) = k[x]/(x - 1)^s, which is indecomposable,
    and its walk [j, xj, ...] is the companion basis of that block, so the
    basis is a permutation.  Other modules go through _smith_decompose.
    """
    alg = module.alg
    ring = alg.ring
    if not ring.is_field:
        raise IntegerRingUnsupported("decompose requires a field")
    if alg.factorization is None:
        raise ValueError("decompose needs the factorization of p")
    orbs = orbits(module) if is_local(alg) else None
    if orbs is None:
        return _smith_decompose(module)
    orbs.sort(key=len)
    perm = [j for orbit in orbs for j in orbit]
    one = ring.one()
    rows = [None] * module.dim
    for k, j in enumerate(perm):
        rows[j] = {k: one}
    basis = Matrix._of(ring, module.dim, module.dim, rows)
    q = alg.factorization[0][0]
    return Decomposition(module, [IndecomposableTag(q, len(o)) for o in orbs],
                         basis, basis.transpose(), perm)


def _smith_decompose(module):
    """decompose for any module, through polynomial Smith forms.

    The action matrix is first split along connected components of its
    nonzero pattern, so direct sums of small modules (as produced by tensor
    products) avoid one large polynomial Smith computation; components with
    equal action matrices share one computation, and the basis is inverted
    one component at a time.
    """
    alg = module.alg
    ring = alg.ring
    n = module.dim
    X = module.x_action
    comps = _nonzero_components(X)
    shared = {}
    pieces = []  # (tag, columns on the component, component)
    for k, idx in enumerate(comps):
        sub = X.submatrix(idx, idx)
        if sub not in shared:
            shared[sub] = _cyclic_pieces(Module(alg, len(idx), sub,
                                                check=False))
        pieces.extend((tag, cols, k) for tag, cols in shared[sub])
    pieces.sort(key=lambda p: p[0].sort_key())
    # basis column j is a piece column lifted to the rows of its component
    rows = [{} for _ in range(n)]
    pos = [[] for _ in comps]
    j = 0
    for _, cols, k in pieces:
        idx = comps[k]
        for c in cols:
            pos[k].append(j)
            for r, row in enumerate(c.data):
                if row:
                    rows[idx[r]][j] = row[0]
            j += 1
    basis = Matrix._of(ring, n, n, rows)
    # each component's columns are supported on its rows: invert it alone
    inverse = [{} for _ in range(n)]
    for idx, cpos in zip(comps, pos):
        inv = solve(basis.submatrix(idx, cpos),
                    Matrix.identity(ring, len(idx)))
        assert len(cpos) == len(idx) and inv is not None, \
            "decomposition basis must be invertible"
        for j, row in zip(cpos, inv.data):
            inverse[j] = {idx[b]: v for b, v in row.items()}
    return Decomposition(module, [p[0] for p in pieces], basis,
                         Matrix._of(ring, n, n, inverse))


def _cyclic_pieces(module):
    """Primary cyclic summands of a module as (tag, column vectors) pairs."""
    alg = module.alg
    ring = alg.ring
    n = module.dim
    X = module.x_action
    # presentation of the module over k[x]: k[x]^n --(xI - X)--> k[x]^n -> V
    pres = [[pnormalize(ring,
                        [ring.neg(X[i, j])] + ([ring.one()] if i == j else []))
             for j in range(n)] for i in range(n)]
    diag, s_inv = _poly_matrix_snf(ring, pres)
    pieces = []  # (tag, list of column vectors)
    for i in range(n):
        f = diag[i]
        if pdeg(f) < 1:
            continue
        # generator of the cyclic summand k[x]/(f): evaluate column i of S^{-1}
        gen = Matrix.zeros(ring, n, 1)
        for j in range(n):
            if s_inv[j][i]:
                gen = gen + peval_matrix(ring, s_inv[j][i], X).submatrix(
                    range(n), [j])
        # split k[x]/(f) into primary parts along the factorization of p
        for q, _e in alg.factorization:
            a = 0
            rem = f
            while True:
                quo, r = pdivmod(ring, rem, list(q))
                if r:
                    break
                a += 1
                rem = quo
            if a == 0:
                continue
            qa = [ring.one()]
            for _ in range(a):
                qa = pmul(ring, qa, list(q))
            fq, _ = pdivmod(ring, f, qa)
            g, s, t = pxgcd(ring, fq, qa)
            assert pdeg(g) == 0  # coprime by construction
            idem = pmul(ring, s, fq)  # congruent to 1 mod q^a, 0 mod f/q^a
            h = peval_matrix(ring, idem, X) * gen
            cols = []
            v = h
            for _ in range(a * (len(q) - 1)):
                cols.append(v)
                v = X * v
            pieces.append((IndecomposableTag(q, a), cols))
    return pieces
