"""Exact linear algebra over Q, F_p and Z.

Elements are Fraction (Q), int in [0, p) (F_p) or int (Z); no floating point
anywhere.  Matrices are immutable, dense, row-major.  ``rref``, ``kernel``
and ``solve`` share one sparse Gauss-Jordan elimination that pivots only on
units; over Z the Smith normal form is taken only of the rows it leaves.
"""

from fractions import Fraction


class IntegerRingUnsupported(Exception):
    """Raised when a field-only operation is invoked over Z."""


class GroundRing:
    """One of F_p (p prime), Q, or Z."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("fp", "q", "z"):
            raise ValueError("ring kind must be 'fp', 'q' or 'z'")
        if kind == "fp":
            if p is None or p < 2 or p >= 2**31 or not _is_prime(p):
                raise ValueError("fp requires a prime p < 2**31")
        elif p is not None:
            raise ValueError("p only makes sense for fp")
        self.kind = kind
        self.p = p

    # -- element arithmetic ------------------------------------------------
    @property
    def is_field(self):
        return self.kind != "z"

    def zero(self):
        return Fraction(0) if self.kind == "q" else 0

    def one(self):
        return Fraction(1) if self.kind == "q" else 1

    def coerce(self, x):
        if self.kind == "q":
            return Fraction(x)
        if self.kind == "fp":
            if isinstance(x, Fraction):
                if x.denominator % self.p == 0:
                    raise ZeroDivisionError("denominator not invertible mod p")
                return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
            return int(x) % self.p
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError("non-integer over Z")
            return x.numerator
        return int(x)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "fp" else -a

    def is_unit(self, a):
        if self.kind == "z":
            return a in (1, -1)
        return a != 0

    def inv(self, a):
        if self.kind == "q":
            if a == 0:
                raise ZeroDivisionError
            return 1 / Fraction(a)
        if self.kind == "fp":
            return pow(a, -1, self.p)
        if a in (1, -1):
            return a
        raise IntegerRingUnsupported("inverse of a non-unit integer")

    def elem_to_str(self, a):
        return str(a)

    def elem_from_str(self, s):
        if self.kind == "q":
            return Fraction(s)
        v = int(s)
        if self.kind == "fp":
            if not 0 <= v < self.p:
                raise ValueError("F_p elements serialize as '0'..'p-1'")
            return v
        return v

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, GroundRing) and self.kind == other.kind
                and self.p == other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"F_{self.p}" if self.kind == "fp" else ("Q" if self.kind == "q" else "Z")


def PrimeField(p):
    return GroundRing("fp", p)


def Rationals():
    return GroundRing("q")


def Integers():
    return GroundRing("z")


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Matrix:
    """Immutable dense matrix over a GroundRing; entries row-major."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, rows, cols, entries, _trusted=False):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("bad matrix shape")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries) if _trusted else tuple(
            ring.coerce(x) for x in entries)

    # -- constructors --------------------------------------------------
    @staticmethod
    def zeros(ring, rows, cols):
        z = ring.zero()
        return Matrix(ring, rows, cols, [z] * (rows * cols), _trusted=True)

    @staticmethod
    def identity(ring, n):
        z, o = ring.zero(), ring.one()
        e = [z] * (n * n)
        for i in range(n):
            e[i * n + i] = o
        return Matrix(ring, n, n, e, _trusted=True)

    @staticmethod
    def from_rows(ring, rowlists):
        rows = len(rowlists)
        cols = len(rowlists[0]) if rows else 0
        flat = []
        for r in rowlists:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return Matrix(ring, rows, cols, flat)

    # -- access ---------------------------------------------------------
    def __getitem__(self, rc):
        i, j = rc
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def tolists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra ----------------------------------------------------------
    def _same(self, other):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        self._same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        add = self.ring.add
        return Matrix(self.ring, self.rows, self.cols,
                      [add(a, b) for a, b in zip(self.entries, other.entries)],
                      _trusted=True)

    def __sub__(self, other):
        self._same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        sub = self.ring.sub
        return Matrix(self.ring, self.rows, self.cols,
                      [sub(a, b) for a, b in zip(self.entries, other.entries)],
                      _trusted=True)

    def __neg__(self):
        neg = self.ring.neg
        return Matrix(self.ring, self.rows, self.cols,
                      [neg(a) for a in self.entries], _trusted=True)

    def scale(self, c):
        c = self.ring.coerce(c)
        mul = self.ring.mul
        return Matrix(self.ring, self.rows, self.cols,
                      [mul(c, a) for a in self.entries], _trusted=True)

    def __mul__(self, other):
        self._same(other)
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        ring = self.ring
        z = ring.zero()
        out = [z] * (self.rows * other.cols)
        oc = other.cols
        for i in range(self.rows):
            ro = i * self.cols
            for k in range(self.cols):
                a = self.entries[ro + k]
                if a == 0:
                    continue
                bo = k * oc
                io = i * oc
                if ring.kind == "fp":
                    p = ring.p
                    for j in range(oc):
                        out[io + j] = (out[io + j] + a * other.entries[bo + j]) % p
                else:
                    for j in range(oc):
                        out[io + j] = out[io + j] + a * other.entries[bo + j]
        return Matrix(ring, self.rows, other.cols, out, _trusted=True)

    def transpose(self):
        e = [self.entries[i * self.cols + j]
             for j in range(self.cols) for i in range(self.rows)]
        return Matrix(self.ring, self.cols, self.rows, e, _trusted=True)

    def kron(self, other):
        self._same(other)
        mul = self.ring.mul
        R, C = self.rows * other.rows, self.cols * other.cols
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                for j in range(self.cols):
                    a = self.entries[i * self.cols + j]
                    base = k * other.cols
                    out.extend(mul(a, other.entries[base + l])
                               for l in range(other.cols))
        return Matrix(self.ring, R, C, out, _trusted=True)

    @staticmethod
    def block(ring, grid):
        """Assemble from a 2D grid of matrices (or None for zero blocks).

        Row heights / column widths are inferred; every row/column of the grid
        must contain at least one matrix.
        """
        nbr = len(grid)
        nbc = len(grid[0]) if nbr else 0
        heights = [None] * nbr
        widths = [None] * nbc
        for i in range(nbr):
            for j in range(nbc):
                m = grid[i][j]
                if m is None:
                    continue
                if heights[i] is None:
                    heights[i] = m.rows
                elif heights[i] != m.rows:
                    raise ValueError("inconsistent block heights")
                if widths[j] is None:
                    widths[j] = m.cols
                elif widths[j] != m.cols:
                    raise ValueError("inconsistent block widths")
        if any(h is None for h in heights) or any(w is None for w in widths):
            raise ValueError("grid row/column with no matrix")
        R, C = sum(heights), sum(widths)
        z = ring.zero()
        out = [z] * (R * C)
        r0 = 0
        for i in range(nbr):
            c0 = 0
            for j in range(nbc):
                m = grid[i][j]
                if m is not None:
                    for r in range(m.rows):
                        base = (r0 + r) * C + c0
                        row = m.row(r)
                        out[base:base + m.cols] = row
                c0 += widths[j]
            r0 += heights[i]
        return Matrix(ring, R, C, out, _trusted=True)

    def hstack(self, other):
        return Matrix.block(self.ring, [[self, other]])

    def vstack(self, other):
        return Matrix.block(self.ring, [[self], [other]])

    def submatrix(self, row_idx, col_idx):
        e = [self.entries[i * self.cols + j] for i in row_idx for j in col_idx]
        return Matrix(self.ring, len(row_idx), len(col_idx), e, _trusted=True)

    # -- predicates ------------------------------------------------------
    def is_zero(self):
        z = self.ring.zero()
        return all(x == z for x in self.entries)

    def is_identity(self):
        if self.rows != self.cols:
            return False
        return self == Matrix.identity(self.ring, self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i))
                         for i in range(self.rows))
        return f"Matrix({self.ring!r} {self.rows}x{self.cols} [{body}])"


# -- serialization -----------------------------------------------------------

def matrix_to_json(m):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [m.ring.elem_to_str(x) for x in m.entries]}


def matrix_from_json(ring, obj):
    return Matrix(ring, obj["rows"], obj["cols"],
                  [ring.elem_from_str(s) for s in obj["entries"]],
                  _trusted=True)


# -- sparse elimination on unit pivots -----------------------------------------

class RrefResult:
    __slots__ = ("rank", "pivots", "reduced")

    def __init__(self, rank, pivots, reduced):
        self.rank = rank
        self.pivots = pivots
        self.reduced = reduced


def _sparse_rows(m):
    n, e = m.cols, m.entries
    return [{j: v for j, v in enumerate(e[i * n:(i + 1) * n]) if v}
            for i in range(m.rows)]


def _dense(ring, rows, nrows, ncols):
    """The nrows x ncols matrix whose leading rows are the sparse ``rows``."""
    flat = [ring.zero()] * (nrows * ncols)
    for i, row in enumerate(rows):
        for j, v in row.items():
            flat[i * ncols + j] = v
    return Matrix(ring, nrows, ncols, flat, _trusted=True)


def _reduce(ring, rows, ncols):
    """Gauss-Jordan elimination of sparse ``{col: value}`` rows on unit pivots.

    Columns ``0 .. ncols-1`` are taken in order.  The pivot is a unit (any
    nonzero over a field, +-1 over Z) in the sparsest live row that has
    one; it is scaled to 1 and cleared from every other row.  Over Z a
    column whose live entries are all non-units is deferred.  Entries in
    columns ``>= ncols`` ride along (right-hand sides).  The rows are
    consumed.

    Returns ``(pivots, prows, rest)``: the pivot columns, their rows, and
    the nonzero rows left without a pivot.  Over a field the pivot rows are
    the reduced row echelon form and ``rest`` touches only columns
    ``>= ncols``; over Z ``rest`` touches only deferred columns and those.
    Every step is invertible over the ring (unimodular over Z), so the row
    space, kernel and integer solutions are unchanged.
    """
    p = ring.p
    integral = not ring.is_field
    live = [r for r in rows if r]
    pivots, prows = [], []
    for c in range(ncols):
        best = None
        for i, r in enumerate(live):
            v = r.get(c)
            if v is not None and (not integral or v == 1 or v == -1) \
                    and (best is None or len(r) < len(live[best])):
                best = i
        if best is None:
            continue
        prow = live.pop(best)
        inv = ring.inv(prow[c])
        if inv != 1:
            prow = {j: ring.mul(inv, v) for j, v in prow.items()}
        for rows_ in (prows, live):
            for r in rows_:
                f = r.get(c)
                if f is None:
                    continue
                for j, v in prow.items():
                    w = r.get(j, 0) - f * v
                    if p:
                        w %= p
                    if w:
                        r[j] = w
                    else:
                        del r[j]
        pivots.append(c)
        prows.append(prow)
    return pivots, prows, [r for r in live if r]


def rref(m):
    """Reduced row echelon form with its pivot columns; fields only."""
    ring = m.ring
    if not ring.is_field:
        raise IntegerRingUnsupported("rref requires a field; use hnf/snf over Z")
    pivots, prows, _ = _reduce(ring, _sparse_rows(m), m.cols)
    return RrefResult(len(pivots), pivots,
                      _dense(ring, prows, m.rows, m.cols))


def _lift(ring, ncols, k, pivots, prows, assigned):
    """The ncols x k solution whose non-pivot rows are ``assigned`` (row ->
    {column: value}) and whose pivot rows satisfy the pivot equations: a
    pivot row's entries from column ``ncols`` on, minus the pivot row
    times the assigned rows."""
    p = ring.p
    out = [ring.zero()] * (ncols * k)
    for j, row in assigned.items():
        for t, v in row.items():
            out[j * k + t] = v
    for pc, prow in zip(pivots, prows):
        o = pc * k
        for j, v in prow.items():
            if j >= ncols:
                out[o + j - ncols] += v
            elif j in assigned:
                for t, w in assigned[j].items():
                    out[o + t] -= v * w
        if p:
            out[o:o + k] = [x % p for x in out[o:o + k]]
    return Matrix(ring, ncols, k, out, _trusted=True)


def _residual(ring, rest, ncols, k):
    """The rows left without a unit pivot as dense matrices: their entries
    in the columns below ``ncols`` that they touch, and their ``k`` columns
    from ``ncols`` on.  Returns (touched columns, left part, right part)."""
    cols = sorted({j for r in rest for j in r if j < ncols})
    pos = {c: i for i, c in enumerate(cols)}
    left = [{pos[j]: v for j, v in r.items() if j < ncols} for r in rest]
    right = [{j - ncols: v for j, v in r.items() if j >= ncols} for r in rest]
    return (cols, _dense(ring, left, len(rest), len(cols)),
            _dense(ring, right, len(rest), k))


# -- Hermite / Smith over Z ----------------------------------------------------

def hnf(m):
    """Row Hermite normal form: returns (h, u) with h = u*m, u unimodular."""
    if m.ring.kind != "z":
        raise ValueError("hnf is defined over Z")
    a = m.tolists()
    rows, cols = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        while True:
            best, piv = None, None
            for i in range(r, rows):
                v = a[i][c]
                if v != 0 and (best is None or abs(v) < best):
                    best, piv = abs(v), i
            if piv is None:
                break
            a[r], a[piv] = a[piv], a[r]
            u[r], u[piv] = u[piv], u[r]
            done = True
            for i in range(r + 1, rows):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if piv is None:
            continue
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    ring = m.ring
    return (Matrix.from_rows(ring, a) if rows else m,
            Matrix.from_rows(ring, u) if rows else Matrix.identity(ring, 0))


def snf(m):
    """Smith normal form: returns (d, s, t) with d = s*m*t, d_i | d_{i+1}."""
    if m.ring.kind != "z":
        raise ValueError("snf is defined over Z")
    rows, cols = m.rows, m.cols
    a = m.tolists()
    s = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    t = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r_ in range(rows):
            a[r_][i] -= q * a[r_][j]
        for r_ in range(cols):
            t[r_][i] -= q * t[r_][j]

    k = 0
    n = min(rows, cols)
    while k < n:
        best, pr, pc = None, None, None
        for i in range(k, rows):
            for j in range(k, cols):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best, pr, pc = abs(v), i, j
        if pr is None:
            break
        a[k], a[pr] = a[pr], a[k]
        s[k], s[pr] = s[pr], s[k]
        if pc != k:
            for r_ in range(rows):
                a[r_][k], a[r_][pc] = a[r_][pc], a[r_][k]
            for r_ in range(cols):
                t[r_][k], t[r_][pc] = t[r_][pc], t[r_][k]
        dirty = False
        for i in range(k + 1, rows):
            if a[i][k]:
                row_op(i, k, a[i][k] // a[k][k])
                if a[i][k]:
                    dirty = True
        for j in range(k + 1, cols):
            if a[k][j]:
                col_op(j, k, a[k][j] // a[k][k])
                if a[k][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of later entries by the pivot
        bad = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if a[i][j] % a[k][k] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(k, bad, -1)  # fold the offending row into the pivot row
            continue
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            s[k] = [-x for x in s[k]]
        k += 1
    ring = m.ring
    d = Matrix.from_rows(ring, a) if rows else Matrix.zeros(ring, rows, cols)
    sm = Matrix.from_rows(ring, s) if rows else Matrix.identity(ring, 0)
    tm = Matrix.from_rows(ring, t) if cols else Matrix.identity(ring, 0)
    return d, sm, tm


def kernel(m):
    """Basis of the right kernel as matrix columns; saturated over Z.

    One column per free column (no pivot, untouched by the residual), then,
    over Z, one per kernel vector of the residual's Smith form."""
    ring = m.ring
    pivots, prows, rest = _reduce(ring, _sparse_rows(m), m.cols)
    cols, res, _ = _residual(ring, rest, m.cols, 0)
    taken = set(pivots).union(cols)
    free = [c for c in range(m.cols) if c not in taken]
    assigned = {c: {t: ring.one()} for t, c in enumerate(free)}
    k = len(free)
    if rest:
        d, _, t = snf(res)
        n = min(d.rows, d.cols)
        null = [j for j in range(d.cols) if j >= n or d[j, j] == 0]
        for i, c in enumerate(cols):
            assigned[c] = {k + u: t[i, j] for u, j in enumerate(null)
                           if t[i, j]}
        k += len(null)
    return _lift(ring, m.cols, k, pivots, prows, assigned)


def solve(a, b):
    """Solve a*x = b exactly; returns one particular solution or None.

    b may have several columns; the particular solution then has the same
    number of columns.  Over Z the solution is Diophantine-exact: the
    residual left by unit elimination is solved through its Smith form.
    """
    if a.ring != b.ring or a.rows != b.rows:
        raise ValueError("shape/ring mismatch")
    ring = a.ring
    rows = _sparse_rows(a)
    for row, extra in zip(rows, _sparse_rows(b)):
        row.update((a.cols + j, v) for j, v in extra.items())
    pivots, prows, rest = _reduce(ring, rows, a.cols)
    assigned = {}
    if rest:
        if ring.is_field:
            return None  # some row of a reduced to zero, its b part did not
        cols, res, rhs = _residual(ring, rest, a.cols, b.cols)
        d, s, t = snf(res)
        sb = s * rhs
        n = min(d.rows, d.cols)
        y = [0] * (d.cols * b.cols)
        for i in range(d.rows):
            di = d[i, i] if i < n else 0
            for j in range(b.cols):
                v = sb[i, j]
                if (v % di if di else v) != 0:
                    return None
                if di:
                    y[i * b.cols + j] = v // di
        x = t * Matrix(ring, d.cols, b.cols, y, _trusted=True)
        for i, c in enumerate(cols):
            assigned[c] = {j: x[i, j] for j in range(b.cols) if x[i, j]}
    return _lift(ring, a.cols, b.cols, pivots, prows, assigned)
