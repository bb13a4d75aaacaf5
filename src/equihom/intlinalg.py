"""Exact linear algebra over Z and Z/2.

Smith normal form with unimodular transforms, integer lattice solving, and
finitely generated abelian groups presented as subquotients of Z^g with
explicit generator lifts.  Everything runs on Python's arbitrary-precision
integers; no floating point is used anywhere in this package.

A lattice in a group's coordinates is a pair (columns, orders): the span
of the columns plus the relations d.e_i over the per-coordinate orders d
(0 for none).  _with_relations is the one place that appends the
relations to a matrix as columns.

One interface, two paths.  Where every order is 2 a lattice is a subspace
of F2^n, and _subquotient and LinearSolver work on bit masks by one XOR
elimination, _f2_eliminate; Z/2 generators are then its echelon choices.
Z and mixed orders run on smith_normal_form.  A kernel is a presentation:
coordinate_kernel_lattice reads the generators of a _subquotient.  A map
is a memo entry too: induced_hom builds and checks each distinct chain
map between two presentation objects once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, compress, groupby, islice, repeat


class LinAlgError(ValueError):
    """Malformed matrix input or an inconsistent presentation."""


class ChainConditionError(LinAlgError):
    """The composite d_out . d_in is nonzero, so the input is not a complex."""


class InternalError(AssertionError):
    """An internal consistency check failed: a bug in this package, never
    bad input.  Raised explicitly, so the checks also run under python -O."""


class IntMatrix:
    """Dense matrix of exact integers, shape fixed at construction.

    Vectors are columns.  Instances are treated as immutable; all operations
    return fresh matrices.  Entries are checked where they enter from
    outside: the constructor and from_rows check the shape and that every
    entry is an exact integer, and scale and mod check their scalar.  A
    matrix computed from IntMatrix operands is built by _matrix, which
    neither copies nor checks.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if rows < 0 or cols < 0:
            raise LinAlgError("matrix dimensions must be nonnegative")
        data = tuple(tuple(row) for row in data)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise LinAlgError(
                "entry count does not match %d x %d" % (rows, cols))
        if not all(issubclass(t, int)
                   for t in set(map(type, chain.from_iterable(data)))):
            raise LinAlgError("entries must be exact integers")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows):
        rows = [tuple(r) for r in rows]
        if not rows:
            raise LinAlgError("from_rows needs at least one row; "
                              "use IntMatrix(r, c, []) for empty matrices")
        return cls(len(rows), len(rows[0]), rows)

    @classmethod
    def from_columns(cls, rows, columns):
        """The matrix with `rows` rows whose columns are the given vectors
        of exact integers, computed by the caller; entries are not
        checked."""
        try:
            data = tuple(zip(*columns, strict=True)) if columns \
                else ((),) * rows
        except ValueError:
            raise LinAlgError("columns have different lengths") from None
        if len(data) != rows:
            raise LinAlgError("columns do not have %d entries" % rows)
        return _matrix(rows, len(columns), data)

    @classmethod
    def identity(cls, n):
        return _matrix(n, n, tuple(map(tuple, _identity_rows(n))))

    @classmethod
    def zeros(cls, rows, cols):
        return _matrix(rows, cols, ((0,) * cols,) * rows)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise LinAlgError("shape mismatch in product: %dx%d @ %dx%d"
                              % (self.rows, self.cols, other.rows, other.cols))
        odata = other.data
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for k in compress(range(self.cols), row):
                _add_multiple(acc, odata[k], row[k])
            out.append(tuple(acc))
        return _matrix(self.rows, other.cols, tuple(out))

    def mul_vector(self, vec):
        vec = list(vec)
        if len(vec) != self.cols:
            raise LinAlgError("vector length does not match column count")
        out = []
        for row in self.data:
            s = 0
            for a, b in zip(row, vec):
                if a and b:
                    s += a * b
            out.append(s)
        return out

    def scale(self, c):
        _check_scalar(c)
        return _matrix(self.rows, self.cols,
                       tuple(tuple([c * x for x in row]) for row in self.data))

    def __add__(self, other):
        self._same_shape(other)
        return _matrix(self.rows, self.cols,
                       tuple(tuple([a + b for a, b in zip(r1, r2)])
                             for r1, r2 in zip(self.data, other.data)))

    def __sub__(self, other):
        self._same_shape(other)
        return _matrix(self.rows, self.cols,
                       tuple(tuple([a - b for a, b in zip(r1, r2)])
                             for r1, r2 in zip(self.data, other.data)))

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch")

    def mod(self, m):
        _check_scalar(m)
        if m < 1:
            raise LinAlgError("modulus must be positive, got %r" % (m,))
        return _matrix(self.rows, self.cols,
                       tuple(tuple([x % m for x in row]) for row in self.data))

    def columns(self):
        return list(zip(*self.data)) if self.rows else [()] * self.cols

    def take_columns(self, indices):
        return _matrix(self.rows, len(indices),
                       tuple(tuple([row[j] for j in indices])
                             for row in self.data))

    @staticmethod
    def hstack(*mats):
        if not mats:
            raise LinAlgError("hstack of nothing")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise LinAlgError("hstack row mismatch")
        data = tuple(tuple(chain.from_iterable(parts))
                     for parts in zip(*(m.data for m in mats)))
        return _matrix(rows, sum(m.cols for m in mats), data)

    def is_zero(self):
        return all(all(x == 0 for x in row) for row in self.data)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols,
                                          [list(r) for r in self.data])


def _matrix(rows, cols, data):
    """The IntMatrix on data, a tuple of `rows` row tuples of `cols` exact
    integers computed from checked matrices, taken as it is."""
    matrix = object.__new__(IntMatrix)
    matrix.rows = rows
    matrix.cols = cols
    matrix.data = data
    return matrix


def _is_integer(x):
    # bool is a subclass of int, but true/false are not numbers
    return isinstance(x, int) and not isinstance(x, bool)


def _all_integers(values):
    """Whether every entry of values is an exact integer by the rule of
    _is_integer, tested once per distinct type, not per entry."""
    return all(issubclass(t, int) and t is not bool
               for t in set(map(type, values)))


def _check_scalar(c):
    if not _is_integer(c):
        raise LinAlgError("scalar must be an exact integer, got %r" % (c,))


def _identity_rows(n):
    return [[0] * i + [1] + [0] * (n - i - 1) for i in range(n)]


def _one_plus(M, c):
    """1 + c.M for a square matrix M: c.M with one added on the diagonal,
    no identity matrix built."""
    return _matrix(M.rows, M.cols, tuple(
        row[:i] + (row[i] + 1,) + row[i + 1:]
        for i, row in enumerate(M.scale(c).data)))


def _add_multiple(dst, src, c):
    """dst += c * src in place, touching only the nonzeros of src."""
    for t in compress(range(len(src)), src):
        dst[t] += c * src[t]


class SNFDecomposition:
    """U . M . V = D with U, V unimodular and D = diag(d1 | d2 | ...) >= 0.

    Uinv and Vinv are the exact inverses of U and V (handy for generator
    extraction; their presence also certifies det U = det V = +-1).

    The elimination computes only D.  It logs its row operations, which
    build U, and its column operations, which build V; each of the four
    transforms is built from its log on first read and then kept.
    """

    def __init__(self, D, row_ops, col_ops):
        self.D = D
        self.diag = tuple(D.data[i][i] for i in range(min(D.rows, D.cols)))
        self.rank = sum(1 for d in self.diag if d)
        self._row_ops = row_ops
        self._col_ops = col_ops

    @cached_property
    def U(self):
        return _replay(self.D.rows, self._row_ops, False, False)

    @cached_property
    def Uinv(self):
        return _replay(self.D.rows, self._row_ops, True, True)

    @cached_property
    def V(self):
        return _replay(self.D.cols, self._col_ops, False, True)

    @cached_property
    def Vinv(self):
        return _replay(self.D.cols, self._col_ops, True, False)


def _replay(n, ops, inverse, transposed):
    """The n x n identity after the row operations ops, that is their
    product P, or with inverse the transpose of P^-1; the result is
    transposed once more if asked.

    An operation is (i, j, c) for row_i += c * row_j, (i, j) for swapping
    rows i and j, or (i,) for negating row i.  Swaps and negations are
    their own inverse transposes; that of row_i += c * row_j is
    row_j -= c * row_i.
    """
    A = _identity_rows(n)
    for op in ops:
        if len(op) == 3:
            i, j, c = op
            if inverse:
                _add_multiple(A[j], A[i], -c)
            else:
                _add_multiple(A[i], A[j], c)
        elif len(op) == 2:
            i, j = op
            A[i], A[j] = A[j], A[i]
        else:
            i, = op
            A[i] = [-x for x in A[i]]
    return _matrix(n, n, tuple(zip(*A)) if transposed
                   else tuple(map(tuple, A)))


def smith_normal_form(M):
    """Smith normal form of an integer matrix.

    Deterministic: the pivot is the entry of smallest nonzero absolute
    value, ties broken by lowest row then column index.  One loop fixes
    the pivots in order.  Its scan also checks that the pivot fixed last
    divides every entry left; the first entry it does not divide is added
    to that pivot's row, which is then eliminated again.  A remainder left
    after the pivot's column or row pass sends control back to the scan,
    which then finds a smaller pivot.

    Only D is updated.  Row operations are logged as they act on U, and
    column operations as the row operations they are on V transposed
    (col_j += c * col_t is row_j += c * row_t there), in the format of
    _replay.
    """
    m, n = M.rows, M.cols
    D = [list(row) for row in M.data]
    row_ops = []
    col_ops = []

    t = 0
    while t < min(m, n):
        prev = D[t - 1][t - 1] if t else 1
        best = piv = bad = None
        for i in range(t, m):
            di = D[i]
            for j in range(t, n):
                a = di[j]
                if a:
                    if a % prev:
                        bad = i
                        break
                    a = -a if a < 0 else a
                    if best is None or a < best:
                        best = a
                        piv = (i, j)
                        if a == 1:
                            break
            if bad is not None or best == 1:
                break
        if bad is not None:
            # step back: the pivot at t - 1 does not divide row bad
            t -= 1
            _add_multiple(D[t], D[bad], 1)
            row_ops.append((t, bad, 1))
            continue
        if piv is None:
            break
        i, j = piv
        if i != t:
            D[t], D[i] = D[i], D[t]
            row_ops.append((t, i))
        if j != t:
            for r in D:
                r[t], r[j] = r[j], r[t]
            col_ops.append((t, j))
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            row_ops.append((t,))
        Dt = D[t]
        d = Dt[t]
        remainder = False
        for i in range(t + 1, m):
            Di = D[i]
            q = Di[t] // d
            if q:
                _add_multiple(Di, Dt, -q)
                row_ops.append((i, t, -q))
            if Di[t]:
                remainder = True
        if remainder:
            continue
        # column t is zero off the pivot, so col_j -= q * col_t changes
        # D in row t only
        for j in range(t + 1, n):
            q = Dt[j] // d
            if q:
                Dt[j] -= q * d
                col_ops.append((j, t, -q))
            if Dt[j]:
                remainder = True
        if not remainder:
            t += 1

    return SNFDecomposition(_matrix(m, n, tuple(map(tuple, D))),
                            row_ops, col_ops)


def _column_entries(rows, ncols):
    """The first ncols columns of the matrix with these rows, each as the
    list of (row, value) over its nonzero entries."""
    cols = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in compress(range(ncols), row):
            cols[j].append((i, row[j]))
    return cols


def _combine(cols, coeffs, n):
    """sum of coeffs[j] * cols[j], a list of length n, over the columns of
    _column_entries; only the nonzeros of coeffs and of cols are touched."""
    out = [0] * n
    for j in compress(range(len(coeffs)), coeffs):
        c = coeffs[j]
        for i, x in cols[j]:
            out[i] += c * x
    return out


# -- F2: vectors mod 2 as bit masks, bit i for coordinate i ---------------

def _all_two(orders):
    """Whether every coordinate has the order 2, so the lattice of these
    relations is worked over F2."""
    return all(d == 2 for d in orders)


def _f2_mask(values):
    """The bit mask of the odd entries of values."""
    mask = 0
    for i in compress(range(len(values)), values):
        if values[i] & 1:
            mask |= 1 << i
    return mask


def _f2_columns(M):
    """The columns of M mod 2 as bit masks."""
    return [_f2_mask(c) for c in M.columns()]


def _bits(mask):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _f2_vector(mask, n):
    """The 0/1 list of length n with the bits of mask."""
    out = [0] * n
    for i in _bits(mask):
        out[i] = 1
    return out


def _f2_eliminate(cols):
    """Column elimination over F2 of the bit-mask columns cols, by XOR.

    Returns (pivots, kernel).  pivots maps the top bit of each nonzero
    reduced column to that column and its combination, the mask of the
    input columns whose sum it is; no two share a top bit, so a mask
    reduces by pivots top bit first.  kernel holds the combinations that
    sum to zero, a basis of the kernel whose top bits are distinct: the
    index of the column each was found at."""
    pivots = {}
    kernel = []
    for j, c in enumerate(cols):
        m = 1 << j
        while c:
            top = c.bit_length() - 1
            hit = pivots.get(top)
            if hit is None:
                pivots[top] = (c, m)
                break
            c ^= hit[0]
            m ^= hit[1]
        else:
            kernel.append(m)
    return pivots, kernel


def _f2_fully_reduced(vectors):
    """The span of vectors, masks with distinct top bits, as a dict from
    lead (a top bit) to the basis vector of that lead, ascending, where no
    vector has another vector's lead set.  So a vector x of the span is
    the sum of the basis vectors at the leads set in x."""
    basis = {}
    leads = 0
    for v in sorted(vectors):
        for lead in _bits(v & leads):
            v ^= basis[lead]
        top = v.bit_length() - 1
        basis[top] = v
        leads |= 1 << top
    return basis


class LinearSolver:
    """Solve M x = b modulo the relations of a lattice (M, orders) over Z.

    When every order is 2 the system is one over F2: M's columns are
    eliminated once as bit masks, and a right-hand side reduces by their
    pivots.  Otherwise one Smith decomposition of [M | R] serves every b,
    and only the nonzeros of its transforms are kept: every column of U,
    and the columns of V at nonzero invariant factors, cut to the rows of
    x.  A right-hand side costs time in proportion to the nonzeros of the
    columns it touches, not to the size of M.
    """

    def __init__(self, lattice):
        M, orders = lattice
        self.rows, self.cols, self.orders = M.rows, M.cols, tuple(orders)
        # orders of the wrong length go on to _with_relations, which raises
        if len(self.orders) == M.rows and _all_two(self.orders):
            self._pivots = _f2_eliminate(_f2_columns(M))[0]
            return
        self._pivots = None
        snf = smith_normal_form(_with_relations(M, orders))
        self._diag = snf.diag[:snf.rank]
        self._ucols = _column_entries(snf.U.data, self.rows)
        self._vcols = _column_entries(snf.V.data[:self.cols], snf.rank)

    def solve_vector(self, b):
        """Integer coefficients x of M's columns with M x = b modulo the
        relations, or None if there are none.

        Over F2, b reduces by the pivots and x is the sum of their
        combinations.  Otherwise, with U [M | R] V = D: (x; z) = V y where
        D y = U b, so (U b)_i must be divisible by d_i, and must vanish
        where d_i = 0."""
        if len(b) != self.rows:
            raise LinAlgError("right-hand side has wrong length")
        if self._pivots is not None:
            b, x = _f2_mask(b), 0
            while b:
                hit = self._pivots.get(b.bit_length() - 1)
                if hit is None:
                    return None
                b ^= hit[0]
                x ^= hit[1]
            return _f2_vector(x, self.cols)
        c = _combine(self._ucols, b, self.rows)
        if any(c[len(self._diag):]):
            return None
        z = []
        for ci, d in zip(c, self._diag):
            q, r = divmod(ci, d)
            if r:
                return None
            z.append(q)
        return _combine(self._vcols, z, self.cols)

    def solve_matrix(self, B):
        """X with M X = B modulo the relations, or None if unsolvable."""
        cols = []
        for col in B.columns():
            x = self.solve_vector(col)
            if x is None:
                return None
            cols.append(x)
        return IntMatrix.from_columns(self.cols, cols)

    def contains(self, lattice):
        """Whether the lattice (B, orders) lies in this one.  The two must
        share their relations, so only the columns of B are solved."""
        B, orders = lattice
        if tuple(orders) != self.orders:
            raise LinAlgError("lattices live in different ambients")
        return self.solve_matrix(B) is not None


# the solver of a lattice, built once per (matrix, orders) value; equal
# lattices (IntMatrix hashes by value) share one
_solver = lru_cache(maxsize=None)(LinearSolver)


def lattices_equal(A, B):
    """Whether the lattices A and B (with the same orders) coincide."""
    return _solver(A).contains(B) and _solver(B).contains(A)


class FGAbelianGroup:
    """Isomorphism class Z^free_rank + sum Z/d_i, d_i >= 2, d_i | d_{i+1}.

    The isomorphism type only; PresentedGroup adds generators.  Equality
    and hashing look only at the type, also between presentations:
    generator choices are explicitly non-canonical.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank, torsion=()):
        torsion = tuple(torsion)
        if not all(map(_is_integer, (free_rank,) + torsion)):
            raise LinAlgError("free rank and invariant factors must be "
                              "integers")
        if free_rank < 0:
            raise LinAlgError("free rank must be nonnegative")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise LinAlgError("invariant factors must form a "
                                  "divisibility chain")
        if any(d < 2 for d in torsion):
            raise LinAlgError("invariant factors must be >= 2")
        self.free_rank = free_rank
        self.torsion = torsion

    @property
    def ngens(self):
        return self.free_rank + len(self.torsion)

    @property
    def orders(self):
        """Per-generator order, 0 meaning infinite; torsion first."""
        return self.torsion + (0,) * self.free_rank

    def f2_dim(self):
        """Dimension as a Z/2 vector space; only for elementary groups."""
        if self.free_rank or any(d != 2 for d in self.torsion):
            raise LinAlgError("%s is not an elementary abelian 2-group"
                              % self)
        return len(self.torsion)

    def __eq__(self, other):
        return (isinstance(other, FGAbelianGroup)
                and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append("Z^%d" % self.free_rank)
        for d, run in groupby(self.torsion):
            n = len(list(run))
            parts.append("Z/%d" % d if n == 1 else "(Z/%d)^%d" % (d, n))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return "FGAbelianGroup(%d, %r)" % (self.free_rank, list(self.torsion))

    def to_json(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["free_rank"], obj["torsion"])


def _relations(orders):
    """The relations d.e_i of the lattice with these per-coordinate orders
    (0 for no relation), one column per nonzero d, in coordinate order."""
    for i, d in enumerate(orders):
        if d:
            yield [0] * i + [d] + [0] * (len(orders) - i - 1)


def _with_relations(M, orders):
    """[M | R]: M followed by the relations d.e_i over the per-row orders
    d of M, one column per nonzero d."""
    if len(orders) != M.rows:
        raise LinAlgError("%d relation orders for a matrix of %d rows"
                          % (len(orders), M.rows))
    return IntMatrix.hstack(
        M, IntMatrix.from_columns(M.rows, list(_relations(orders))))


def _reduced(values, orders):
    """values with each entry reduced into [0, d) by its order d; an
    entry of order 0 is kept as it is."""
    return tuple([x % d if d else x for x, d in zip(values, orders)])


class PresentedGroup(FGAbelianGroup):
    """A subquotient (ker d_out mod relations) / (im d_in + relations) of
    Z^ambient_rank, remembering enough structure to reduce arbitrary cycles
    to canonical generator coordinates and to lift coordinates back.

    Every GroupHom endpoint is one.  generators holds one ambient cycle
    per generator, torsion generators first, then free ones, and lift
    reads them as sparse columns built once.  _cycles holds the columns
    of d_out and the relation orders of its target, for the cycle test,
    and the generator coordinates of the ambient vectors and of the
    relations, for reduce.  d_in holds its boundaries as columns and
    ambient_orders the orders of its relations d.e_i; a map out of the
    group must send both to boundaries.
    """

    __slots__ = ("ambient_rank", "generators", "_gen_cols", "_cycles",
                 "d_in", "ambient_orders")

    def reduce(self, vec):
        """Coordinates of an ambient cycle in the chosen generators.

        Raises unless vec is a cycle of the presentation with exact
        integer entries.  Torsion coordinates are returned in [0, d).
        One pass over the nonzeros of vec tests the cycle and sums the
        coordinates; only the coordinates it touches are reduced.
        """
        if not _all_integers(vec):
            raise LinAlgError("vector entries must be exact integers, got %r"
                              % (vec,))
        acc = _cycle_combination(*self._cycles, vec)
        if acc is None:
            raise LinAlgError("vector is not a cycle of this presentation")
        out = [0] * self.ngens
        torsion = self.torsion
        for i, x in acc.items():
            out[i] = x % torsion[i] if i < len(torsion) else x
        return tuple(out)

    def lift(self, coords):
        """An ambient cycle representing the given generator coordinates."""
        return tuple(_combine(self._gen_cols, _coordinates(coords, self.ngens),
                              self.ambient_rank))

    def coordinate_kernel_lattice(self, matrix, target):
        """The lattice {x in Z^ngens : matrix . x dies in target} in this
        group's coordinates, as (generators, orders): the generators of
        the presentation {x : matrix . x in R_target} / R_source, which
        span it together with the source's relations.  Raises
        ChainConditionError unless matrix sends those relations into
        R_target, that is unless it is a homomorphism."""
        K = _subquotient(matrix, IntMatrix.zeros(matrix.cols, 0),
                         self.orders, target.orders)
        return IntMatrix.from_columns(self.ngens, K.generators), self.orders


def _coordinates(coords, n):
    """coords as a list, checked to be n exact integers: generator
    coordinates entering from outside (lift, GroupHom.apply)."""
    coords = list(coords)
    if len(coords) != n:
        raise LinAlgError("coordinate vector has wrong length")
    if not _all_integers(coords):
        raise LinAlgError("coordinates must be exact integers, got %r"
                          % (coords,))
    return coords


def _cycle_combination(dcols, orders, cols, relcols, vec):
    """The combination sum x_j cols[j] + sum z_i relcols[i] for the
    ambient vector x = vec and the z with d_out . x + R . z = 0, as a
    dict from row to value over the rows it touches; None if x is not a
    cycle.  dcols are the columns of d_out, and row i of R holds the
    relation orders[i].e_i, or none when orders[i] is 0, so z comes by
    division.  One pass over the nonzeros of x sums d_out . x and the
    combination."""
    if len(vec) != len(dcols):
        raise LinAlgError("vector has wrong length for this presentation")
    b = {}
    acc = {}
    for j in compress(range(len(vec)), vec):
        c = vec[j]
        for i, x in dcols[j]:
            b[i] = b.get(i, 0) + c * x
        for i, x in cols[j]:
            acc[i] = acc.get(i, 0) + c * x
    for i, v in b.items():
        if not v:
            continue
        d = orders[i]
        if not d:
            return None
        q, rem = divmod(v, d)
        if rem:
            return None
        for k, x in relcols[i]:
            acc[k] = acc.get(k, 0) - q * x
    return acc


def _composed(outer, inner):
    """The sparse columns of the product of two matrices given by their
    sparse columns: column k combines the columns of outer by column k of
    inner.  A unit column of inner shares the column of outer it picks."""
    out = []
    for col in inner:
        if len(col) == 1 and col[0][1] == 1:
            out.append(outer[col[0][0]])
        elif col:
            acc = {}
            for j, c in col:
                for i, x in outer[j]:
                    acc[i] = acc.get(i, 0) + c * x
            out.append([e for e in acc.items() if e[1]])
        else:
            out.append(())
    return out


@lru_cache(maxsize=None)
def _subquotient(d_out, d_in, ambient_orders, target_orders):
    """The PresentedGroup {x : d_out x in R_target} / (im d_in + R_ambient),
    each relation lattice R spanned by the d.e_i over its per-coordinate
    orders d (0 for none); equal inputs give one presentation object.
    When every order is 2 the group is worked over F2 (_f2_subquotient),
    otherwise by two Smith normal forms, or by one when no boundary and
    no relation is to be presented."""
    g = d_out.cols
    if d_in.rows != g:
        raise LinAlgError("d_in lands in the wrong ambient")
    if (len(ambient_orders), len(target_orders)) != (g, d_out.rows):
        raise LinAlgError("relation orders do not match the ambients")
    if _all_two(ambient_orders) and _all_two(target_orders):
        return _f2_subquotient(d_out, d_in, ambient_orders, target_orders)
    # with U . [d_out | R] . V = D of rank r, the cycles are the top g
    # rows of the kernel basis V[:, r:], and V^-1[r:] gives coordinates
    snf = smith_normal_form(_with_relations(d_out, target_orders))
    r = snf.rank
    t = snf.V.rows - r
    kmat = _matrix(g, t, tuple(row[r:] for row in snf.V.data[:g]))
    # the cycle coordinates of (x; z) are V^-1[r:] . (x; z): its first g
    # columns act on x, the others on z, one per row of nonzero order
    vicols = _column_entries(snf.Vinv.data[r:], snf.V.rows)
    relcols = [()] * d_out.rows
    for k, i in enumerate(compress(range(d_out.rows), target_orders), g):
        relcols[i] = vicols[k]
    cycles = (_column_entries(d_out.data, g), target_orders, vicols[:g],
              relcols)
    ycols = [_boundary_coordinates(cycles, t, col) for col in
             chain(d_in.columns(), _relations(ambient_orders))]
    if not ycols:
        # nothing to present: the cycle basis generates freely
        return _presented((), t, kmat.columns(), cycles,
                          [[(j, 1)] for j in range(t)], d_in, ambient_orders)
    sy = smith_normal_form(IntMatrix.from_columns(t, ycols))
    orders_all = sy.diag + (0,) * (t - len(sy.diag))
    kept = [i for i in range(t) if orders_all[i] != 1]
    gens_ambient = kmat @ sy.Uinv.take_columns(kept)
    # the coordinates are the rows of U_y at the kept generators
    coord_cols = _column_entries([sy.U.data[i] for i in kept], t)
    return _presented([d for d in orders_all if d >= 2],
                      orders_all.count(0), gens_ambient.columns(), cycles,
                      coord_cols, d_in, ambient_orders)


def _f2_subquotient(d_out, d_in, ambient_orders, target_orders):
    """_subquotient when every order is 2: ker(d_out) / im(d_in) over F2.

    The cycles are a fully reduced basis of the kernel of d_out mod 2, so
    the cycle coordinates of x are x at their leads, which
    _cycle_combination reads as one unit column per lead and no relation
    columns.  The boundaries, in those coordinates, get a fully reduced
    basis too: the cycles at its non-pivots are the generators, and the
    coordinates of y are y plus the boundaries at its pivots, read at the
    non-pivots."""
    g = d_out.cols
    cycle_basis = _f2_fully_reduced(_f2_eliminate(_f2_columns(d_out))[1])
    leads = list(cycle_basis)
    t = len(leads)
    cols = [()] * g
    for j, lead in enumerate(leads):
        cols[lead] = ((j, 1),)
    cycles = (_column_entries(d_out.data, g), target_orders, cols,
              [()] * d_out.rows)
    pivots, _ = _f2_eliminate([
        _f2_mask(_boundary_coordinates(cycles, t, col))
        for col in d_in.columns()])
    image = _f2_fully_reduced(c for c, _ in pivots.values())
    kept = [j for j in range(t) if j not in image]
    index = {j: n for n, j in enumerate(kept)}
    coord_cols = [[(index[i], 1) for i in _bits(image[j]) if i != j]
                  if j in image else [(index[j], 1)] for j in range(t)]
    return _presented(
        [2] * len(kept), 0,
        [_f2_vector(cycle_basis[leads[j]], g) for j in kept], cycles,
        coord_cols, d_in, ambient_orders)


def _boundary_coordinates(cycles, t, col):
    """The t cycle coordinates of a boundary or relation column, cycles
    being the arguments of _cycle_combination that give them; raises
    unless it is a cycle."""
    acc = _cycle_combination(*cycles, col)
    if acc is None:
        raise ChainConditionError(
            "boundaries do not lie in the cycle lattice")
    y = [0] * t
    for i, x in acc.items():
        y[i] = x
    return y


def _presented(torsion, free_rank, generators, cycles, coord_cols, d_in,
               ambient_orders):
    """The PresentedGroup of these fields; generators are ambient
    vectors, read by lift as sparse columns.  cycles gives cycle
    coordinates, and coord_cols, the generator coordinates of the cycle
    basis, are composed into its columns once, so reduce reads generator
    coordinates in one pass."""
    grp = PresentedGroup(free_rank, torsion)
    grp.ambient_rank = d_in.rows
    grp.generators = tuple(map(tuple, generators))
    grp._gen_cols = [[(i, gen[i]) for i in compress(range(len(gen)), gen)]
                     for gen in grp.generators]
    dcols, orders, cols, relcols = cycles
    grp._cycles = (dcols, orders, _composed(coord_cols, cols),
                   _composed(coord_cols, relcols))
    grp.d_in, grp.ambient_orders = d_in, ambient_orders
    return grp


def homology_at(d_in, d_out, mod=0):
    """ker(d_out) / im(d_in) with explicit generator lifts.

    d_in : Z^s -> Z^g and d_out : Z^g -> Z^h must satisfy d_out.d_in = 0
    (mod `mod` when it is nonzero), else ChainConditionError is raised.
    mod=0 works over Z.  mod=2 works over Z/2 and is the only place the
    modulus acts: the inputs are not reduced, every coordinate of Z^g and
    Z^h gets the order 2, and the group is worked over F2.  Equal matrices
    and modulus give one presentation object.  Any other modulus raises.
    """
    if not (_is_integer(mod) and mod in (0, 2)):
        raise LinAlgError("modulus must be the integer 0 or 2, got %r"
                          % (mod,))
    return _subquotient(d_out, d_in, (mod,) * d_out.cols, (mod,) * d_out.rows)


def _canonical_matrix(target, mat):
    """mat with row i reduced by the i-th order of target."""
    return _matrix(mat.rows, mat.cols,
                   tuple([_reduced(row, repeat(d))
                          for row, d in zip(mat.data, target.orders)]))


@dataclass(frozen=True, eq=False)
class GroupHom:
    """Homomorphism between presented groups, as a matrix acting on
    generator coordinates (target coords x source coords); equal maps
    share both endpoint objects, as compose and exact_at require."""

    source: PresentedGroup
    target: PresentedGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.ngens \
                or self.matrix.cols != self.source.ngens:
            raise LinAlgError("homomorphism matrix has wrong shape")

    def __eq__(self, other):
        return (isinstance(other, GroupHom) and self.source is other.source
                and self.target is other.target
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.matrix))

    def apply(self, coords):
        return _reduced(
            self.matrix.mul_vector(_coordinates(coords, self.matrix.cols)),
            self.target.orders)

    def compose(self, inner):
        """self o inner.  The middle group must be one presentation object,
        as for exact_at: isomorphic presentations have unrelated generators
        (presentations of equal matrices are one object)."""
        if inner.target is not self.source:
            raise LinAlgError("composition endpoint mismatch")
        return GroupHom(inner.source, self.target,
                        _canonical_matrix(self.target,
                                          self.matrix @ inner.matrix))

    def is_zero(self):
        return _canonical_matrix(self.target, self.matrix).is_zero()


def hom_from_images(src, tgt, images, boundary_images):
    """The homomorphism sending the i-th generator of src to the class in
    tgt of the i-th vector of images, an ambient chain of tgt.

    boundary_images are the images of the boundaries (and relations) of
    src; each must be a boundary of tgt.  That is exactly well-definedness
    and independence of the chosen generator lifts.
    """
    for img in boundary_images:
        try:
            preserved = not any(tgt.reduce(img))
        except LinAlgError:
            preserved = False
        if not preserved:
            raise LinAlgError("map is not well defined: boundaries are not "
                              "sent to boundaries")
    cols = []
    for img in images:
        try:
            cols.append(tgt.reduce(img))
        except LinAlgError:
            raise LinAlgError("generator image fails membership in the "
                              "target cycle lattice") from None
    return GroupHom(src, tgt, IntMatrix.from_columns(tgt.ngens, cols))


def induced_hom(columns, src, tgt):
    """The map on homology induced by a chain map, given by its sparse
    columns on the ambient chains of src with rows in those of tgt.  It
    must send cycles to cycles, and boundaries and relations to
    boundaries; the image of a relation d.e_i is d times column i.

    Equal columns between the same two presentation objects give one
    GroupHom object, built and checked once (_induced_hom)."""
    return _induced_hom(
        (id(src), id(tgt), len(columns), *map(len, columns),
         *chain.from_iterable(chain.from_iterable(columns))), src, tgt)


@lru_cache(maxsize=None)
def _induced_hom(key, src, tgt):
    """induced_hom of the chain map flattened into key: the ids of src and
    tgt, the number of columns, their lengths, and their entries (row,
    value) in turn.  PresentedGroup equality compares types only, so the
    ids make equal keys mean the same two objects, which the memo keeps
    alive."""
    ncols = key[2]
    lengths, entries = key[3:3 + ncols], key[3 + ncols:]
    n = tgt.ambient_rank
    rows = entries[::2]
    if ncols != src.ambient_rank or 2 * sum(lengths) != len(entries) \
            or rows and not 0 <= min(rows) <= max(rows) < n:
        raise LinAlgError("chain map has wrong shape for these presentations")
    pairs = zip(rows, entries[1::2])
    columns = [list(islice(pairs, k)) for k in lengths]
    relation_img = [_combine([col], [d], n)
                    for col, d in zip(columns, src.ambient_orders) if d]
    return hom_from_images(
        src, tgt, [_combine(columns, gen, n) for gen in src.generators],
        [_combine(columns, z, n) for z in src.d_in.columns()] + relation_img)


def image_lattice(hom):
    """im(hom) in the target coordinates, as (matrix, target orders)."""
    return hom.matrix, hom.target.orders


def kernel_lattice(hom):
    """ker(hom) in the source coordinates, as (basis, source orders)."""
    return hom.source.coordinate_kernel_lattice(hom.matrix, hom.target)


@lru_cache(maxsize=None)
def exact_at(incoming, outgoing):
    """Whether im(incoming) = ker(outgoing) at their common group.

    The two maps must share the *same presentation object* in the middle;
    isomorphic-but-differently-presented groups would make the comparison
    meaningless.  Presentations built from equal matrices are one object.
    Memoized by value: equal maps share their endpoint objects.
    """
    if incoming.target is not outgoing.source:
        raise LinAlgError("maps do not share the middle presentation")
    if not outgoing.compose(incoming).is_zero():
        return False
    # a zero composite already puts the image inside the kernel
    return _solver(image_lattice(incoming)).contains(
        kernel_lattice(outgoing))
