"""Exact linear algebra over Q, F_p and Z.

Elements are Fraction (Q), int in [0, p) (F_p) or int (Z); no floating point
anywhere.  Matrices are immutable and sparse: one ``{col: value}`` dict of
nonzeros per row.  ``rref``, ``kernel`` and ``solve`` share one Gauss-Jordan
elimination on those rows that pivots only on units; over Z the Smith normal
form is taken only of the rows it leaves.
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
    """Immutable sparse matrix over a GroundRing.

    ``data`` is a tuple with one ``{col: value}`` dict per row that holds the
    row's nonzero entries only; row dicts are never mutated, so matrices may
    share them.  ``entries`` and ``row(i)`` are dense views built on demand.
    """

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring, rows, cols, entries):
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("bad matrix shape")
        entries = [ring.coerce(x) for x in entries]
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = tuple(
            {j: v for j, v in enumerate(entries[i * cols:(i + 1) * cols]) if v}
            for i in range(rows))

    @staticmethod
    def _of(ring, rows, cols, data):
        """The matrix whose rows are the nonzero-only dicts ``data``."""
        m = object.__new__(Matrix)
        m.ring, m.rows, m.cols, m.data = ring, rows, cols, tuple(data)
        return m

    @staticmethod
    def _placed(ring, rows, cols, triples):
        """The matrix that has each value of the (row, col, value) triples
        added at its position.  Values are ring elements; sums that vanish
        are dropped."""
        data = [{} for _ in range(rows)]
        add = ring.add
        for r, c, v in triples:
            row = data[r]
            w = add(row[c], v) if c in row else v
            if w:
                row[c] = w
            else:
                row.pop(c, None)
        return Matrix._of(ring, rows, cols, data)

    # -- constructors --------------------------------------------------
    @staticmethod
    def zeros(ring, rows, cols):
        return Matrix._of(ring, rows, cols, ({} for _ in range(rows)))

    @staticmethod
    def identity(ring, n):
        o = ring.one()
        return Matrix._of(ring, n, n, ({i: o} for i in range(n)))

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
        return self.data[i].get(j, self.ring.zero())

    def row(self, i):
        r, z = self.data[i], self.ring.zero()
        return tuple(r.get(j, z) for j in range(self.cols))

    @property
    def entries(self):
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def col(self, j):
        z = self.ring.zero()
        return tuple(r.get(j, z) for r in self.data)

    def tolists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    # -- algebra ----------------------------------------------------------
    def _same(self, other):
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def _combine(self, other, sign):
        """self + sign * other, row by row."""
        self._same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        p = self.ring.p
        out = []
        for a, b in zip(self.data, other.data):
            if not b:
                out.append(a)
                continue
            r = dict(a)
            for j, v in b.items():
                w = r.get(j, 0) + sign * v
                if p:
                    w %= p
                if w:
                    r[j] = w
                else:
                    del r[j]
            out.append(r)
        return Matrix._of(self.ring, self.rows, self.cols, out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        neg = self.ring.neg
        return Matrix._of(self.ring, self.rows, self.cols,
                          ({j: neg(v) for j, v in r.items()}
                           for r in self.data))

    def scale(self, c):
        c = self.ring.coerce(c)
        if not c:
            return Matrix.zeros(self.ring, self.rows, self.cols)
        mul = self.ring.mul
        return Matrix._of(self.ring, self.rows, self.cols,
                          ({j: mul(c, v) for j, v in r.items()}
                           for r in self.data))

    def __mul__(self, other):
        self._same(other)
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        p = self.ring.p
        odata = other.data
        out = []
        for row in self.data:
            acc = {}
            for k, a in row.items():
                for j, b in odata[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: w % p for j, w in acc.items() if w % p} if p
                       else {j: w for j, w in acc.items() if w})
        return Matrix._of(self.ring, self.rows, other.cols, out)

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.data):
            for j, v in r.items():
                out[j][i] = v
        return Matrix._of(self.ring, self.cols, self.rows, out)

    def kron(self, other):
        self._same(other)
        mul = self.ring.mul
        oc = other.cols
        return Matrix._of(
            self.ring, self.rows * other.rows, self.cols * oc,
            ({j * oc + l: mul(a, b)
              for j, a in ra.items() for l, b in rb.items()}
             for ra in self.data for rb in other.data))

    @staticmethod
    def block(ring, grid):
        """Assemble from a 2D grid of matrices (or None for zero blocks).

        Row heights / column widths are inferred; every row/column of the grid
        must contain at least one matrix.
        """
        heights = [{m.rows for m in row if m is not None} for row in grid]
        widths = [{m.cols for m in col if m is not None}
                  for col in zip(*grid)] if grid else []
        for sizes, what in ((heights, "heights"), (widths, "widths")):
            if any(len(x) > 1 for x in sizes):
                raise ValueError(f"inconsistent block {what}")
            if any(not x for x in sizes):
                raise ValueError("grid row/column with no matrix")
        heights, widths = ([x.pop() for x in xs] for xs in (heights, widths))
        return _stack(ring, grid, heights, widths)

    def hstack(self, other):
        return Matrix.block(self.ring, [[self, other]])

    def vstack(self, other):
        return Matrix.block(self.ring, [[self], [other]])

    def submatrix(self, row_idx, col_idx):
        data = self.data
        if col_idx == range(self.cols):
            return Matrix._of(self.ring, len(row_idx), self.cols,
                              (data[i] for i in row_idx))
        pos = {c: t for t, c in enumerate(col_idx)}
        return Matrix._of(self.ring, len(row_idx), len(col_idx),
                          ({pos[j]: v for j, v in data[i].items() if j in pos}
                           for i in row_idx))

    # -- predicates ------------------------------------------------------
    def is_zero(self):
        return not any(self.data)

    def is_identity(self):
        return self.rows == self.cols and all(
            r == {i: 1} for i, r in enumerate(self.data))

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols,
                     tuple(frozenset(r.items()) for r in self.data)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i))
                         for i in range(self.rows))
        return f"Matrix({self.ring!r} {self.rows}x{self.cols} [{body}])"


def _stack(ring, grid, heights, widths):
    """The block matrix with blocks grid[i][j] (None for a zero block) of
    the given row heights and column widths."""
    offsets = [sum(widths[:j]) for j in range(len(widths))]
    out = []
    for blocks, height in zip(grid, heights):
        placed = [(c0, m.data) for c0, m in zip(offsets, blocks)
                  if m is not None]
        for r in range(height):
            row = {}
            for c0, data in placed:
                row.update((c0 + j, v) for j, v in data[r].items())
            out.append(row)
    return Matrix._of(ring, sum(heights), sum(widths), out)


# -- serialization -----------------------------------------------------------

def matrix_to_json(m):
    return {"rows": m.rows, "cols": m.cols,
            "entries": [m.ring.elem_to_str(x) for x in m.entries]}


def matrix_from_json(ring, obj):
    return Matrix(ring, obj["rows"], obj["cols"],
                  [ring.elem_from_str(s) for s in obj["entries"]])


# -- sparse elimination on unit pivots -----------------------------------------

class RrefResult:
    __slots__ = ("rank", "pivots", "reduced")

    def __init__(self, rank, pivots, reduced):
        self.rank = rank
        self.pivots = pivots
        self.reduced = reduced


def _reduce(ring, rows, ncols):
    """Gauss-Jordan elimination of sparse ``{col: value}`` rows on unit pivots.

    Columns ``0 .. ncols-1`` are taken in order.  The pivot is a unit (any
    nonzero over a field, +-1 over Z) in the sparsest live row that has
    one, the lowest row first among equals; it is scaled to 1 and cleared
    from every other row.  Over Z a column whose live entries are all
    non-units is deferred.  Entries in columns ``>= ncols`` ride along
    (right-hand sides).  A column -> row ids index of the columns not yet
    taken lets the pivot search and the clearing visit only the rows with
    an entry in the pivot column; a column leaves the index when it is
    taken.  The rows are copied, so a matrix's ``data`` can be passed as
    it is.

    Returns ``(pivots, prows, rest)``: the pivot columns, their rows, and
    the nonzero rows left without a pivot.  Over a field the pivot rows are
    the reduced row echelon form and ``rest`` touches only columns
    ``>= ncols``; over Z ``rest`` touches only deferred columns and those.
    Every step is invertible over the ring (unimodular over Z), so the row
    space, kernel and integer solutions are unchanged.
    """
    p = ring.p
    integral = not ring.is_field
    rows = [dict(r) for r in rows if r]
    at = {}  # column below ncols -> ids of the rows that have, or had, it
    for i, r in enumerate(rows):
        for j in r:
            if j < ncols:
                at.setdefault(j, []).append(i)
    pivots, prows, done = [], [], set()
    for c in range(ncols):
        ids = at.pop(c, None)  # the column is done after this step
        if ids is None:
            continue
        best = None
        for i in ids:
            v = rows[i].get(c)
            if v is not None and i not in done \
                    and (not integral or v == 1 or v == -1) \
                    and (best is None or (len(rows[i]), i)
                         < (len(rows[best]), best)):
                best = i
        if best is None:
            continue
        prow = rows[best]
        inv = ring.inv(prow[c])
        if inv != 1:
            prow = rows[best] = {j: ring.mul(inv, v) for j, v in prow.items()}
        for i in ids:
            r = rows[i]
            f = r.get(c)
            if f is None or i == best:
                continue
            for j, v in prow.items():
                if j in r:
                    w = r[j] - f * v
                    if p:
                        w %= p
                    if w:
                        r[j] = w
                    else:
                        del r[j]
                else:
                    r[j] = -f * v % p if p else -f * v
                    if c < j < ncols:
                        at.setdefault(j, []).append(i)
        done.add(best)
        pivots.append(c)
        prows.append(prow)
    return pivots, prows, [r for i, r in enumerate(rows)
                           if r and i not in done]


def rref(m):
    """Reduced row echelon form with its pivot columns; fields only."""
    ring = m.ring
    if not ring.is_field:
        raise IntegerRingUnsupported("rref requires a field; use hnf/snf over Z")
    pivots, prows, _ = _reduce(ring, m.data, m.cols)
    prows += [{} for _ in range(m.rows - len(prows))]
    return RrefResult(len(pivots), pivots,
                      Matrix._of(ring, m.rows, m.cols, prows))


def _lift(ring, ncols, k, pivots, prows, assigned):
    """The ncols x k solution whose non-pivot rows are ``assigned`` (row ->
    {column: value}) and whose pivot rows satisfy the pivot equations: a
    pivot row's entries from column ``ncols`` on, minus the pivot row
    times the assigned rows."""
    p = ring.p
    out = [assigned.get(j, {}) for j in range(ncols)]
    for pc, prow in zip(pivots, prows):
        acc = {}
        for j, v in prow.items():
            if j >= ncols:
                acc[j - ncols] = acc.get(j - ncols, 0) + v
            elif j in assigned:
                for t, w in assigned[j].items():
                    acc[t] = acc.get(t, 0) - v * w
        out[pc] = {t: w % p for t, w in acc.items() if w % p} if p \
            else {t: w for t, w in acc.items() if w}
    return Matrix._of(ring, ncols, k, out)


def _residual(rest, ncols):
    """The rows left without a unit pivot, split into their entries in the
    columns below ``ncols`` that they touch and their entries from ``ncols``
    on.  Returns (touched columns, left rows, right rows)."""
    cols = sorted({j for r in rest for j in r if j < ncols})
    pos = {c: i for i, c in enumerate(cols)}
    left = [{pos[j]: v for j, v in r.items() if j < ncols} for r in rest]
    right = [{j - ncols: v for j, v in r.items() if j >= ncols} for r in rest]
    return cols, left, right


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
    pivots, prows, rest = _reduce(ring, m.data, m.cols)
    cols, left, _ = _residual(rest, m.cols)
    taken = set(pivots).union(cols)
    free = [c for c in range(m.cols) if c not in taken]
    assigned = {c: {t: ring.one()} for t, c in enumerate(free)}
    k = len(free)
    if rest:
        d, _, t = snf(Matrix._of(ring, len(rest), len(cols), left))
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
    rows = [{**ra, **{a.cols + j: v for j, v in rb.items()}} if rb else ra
            for ra, rb in zip(a.data, b.data)]
    pivots, prows, rest = _reduce(ring, rows, a.cols)
    assigned = {}
    if rest:
        if ring.is_field:
            return None  # some row of a reduced to zero, its b part did not
        cols, left, right = _residual(rest, a.cols)
        d, s, t = snf(Matrix._of(ring, len(rest), len(cols), left))
        sb = s * Matrix._of(ring, len(rest), b.cols, right)
        n = min(d.rows, d.cols)
        y = [{} for _ in range(d.cols)]
        for i, row in enumerate(sb.data):
            di = d[i, i] if i < n else 0
            for j, v in row.items():
                if not di or v % di:
                    return None
                y[i][j] = v // di
        x = t * Matrix._of(ring, d.cols, b.cols, y)
        for i, c in enumerate(cols):
            assigned[c] = x.data[i]
    return _lift(ring, a.cols, b.cols, pivots, prows, assigned)
