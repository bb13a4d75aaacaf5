"""Equivariant homology and cohomology of finite simplicial G-complexes.

For a complex X with involution and coefficients A(k) (A = Z or Z/2, the
involution acting on Z(k) by (-1)^k), the equivariant group in degree p is
the degree-p homology of the total complex built from copies of the chain
complex placed in columns j = 0, 1, 2, ...: the component in column j and
chain degree q sits in total degree p = q - j, the vertical differential is
the boundary, and the horizontal map out of column j is 1 - (-1)^j sigma
(the twist sign is folded into sigma).  With the sign convention

    D(x at (q, j)) = boundary(x) at (q-1, j)
                     + (-1)^q (1 - (-1)^j sigma)(x) at (q, j+1)

D squares to zero exactly.  Degrees may be negative; for a point the
construction reproduces group cohomology of the group of order two.

Groups are eliminated and presented on the staircase of the Morse-reduced
chain complex (morse.py), which has the same homology; generator lifts
are vectors of that staircase.  A map within one complex is built on the
reduced staircase, and a simplicial map f between two complexes is moved
there as pi f iota.  Ordinary (co)homology and its maps run on the
staircase cut to its first column, the column-0 quotient.

Staircases are keyed by the twist k alone: A(k) enters a differential only
as the sign of sigma and the modulus only in homology_at, so Z/2 and Z
share one staircase, and what reads only the block layout takes k = 0.

An element of a group has one representation, its canonical generator
coordinates (a class, EqClass, is such coordinates); a cycle enters only
through the group's reduce.  A map has one representation, a GroupHom.
The mod-2 homology (or cohomology) of the fixed set, summed over degrees,
is one presented group (Z/2)^N laid out by fixed_offsets: the
localizations land there, and the graded pushforward, pullback, Bockstein
and parity projections are block GroupHoms on it.

Everything below: edge morphisms (column-0 projection), the eta cap
(column shift raising the twist), the two long exact sequences, the
localization maps to the mod-2 homology/cohomology of the fixed set,
degree maps, and fundamental classes of closed G-manifolds.

All inputs are immutable and the computations are pure; groups and the maps
asked for again are memoized per (complex, coefficient system, degree), total
complexes per twist, and the caches are safe for concurrent readers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .complexes import (
    COEFF_Z2,
    Coeff,
    constant_map,
    dim,
    fixed_inclusion,
    fixed_subcomplex,
    fixed_vertex_injection,
    make_gmap,
    transpose,
)
from .intlinalg import (
    FGAbelianGroup,
    GroupHom,
    IntMatrix,
    InternalError,
    LinAlgError,
    _canonical_matrix,
    _column_entries,
    _combine,
    _is_integer,
    _one_plus,
    _reduced,
    _solver,
    _subquotient,
    exact_at,
    hom_from_images,
    homology_at,
    image_lattice,
    induced_hom,
)
from .morse import reduced_chain_complex, reduced_gmap_matrices


class ExactnessError(InternalError):
    """An im = ker check failed at a named node; this signals a bug in the
    assembly of the complexes, never a mathematical failure."""


# ---------------------------------------------------------------------------
# Total complexes
# ---------------------------------------------------------------------------

class _Staircase:
    """Block layout shared by the total chain and cochain complexes, cut to
    the columns c < width if a width is given (width 1: ordinary chains).

    The blocks in total degree p are listed by column c = 0, 1, ...; the
    block in column c holds chain degree q = p + STEP * c, and only
    0 <= q <= dim X occurs.  The differential sends a block to the block
    one step down its column (the vertical map) and to the same chain
    degree in the next column, if not cut, by (-1)^q (1 - (-1)^c sigma).
    Each differential is one dense matrix placed straight from the sparse
    chain columns of the view cc, memoized per total degree: the only
    place where chain columns become a matrix.
    """

    STEP = 0  # +1 for chains, -1 for cochains

    def __init__(self, cc, width=None):
        self.cc = cc
        self.n = dim(cc.X)
        self.width = width
        self._diffs = {}
        self._blocks = {}

    def blocks(self, p):
        """List of (q, c, offset) for the column blocks in total degree p,
        columns ascending."""
        if p not in self._blocks:
            out = []
            offset = 0
            # the columns c >= 0 with 0 <= p + STEP * c <= n, below the cut
            lo, hi = (-p, self.n - p) if self.STEP == 1 else (p - self.n, p)
            if self.width is not None:
                hi = min(hi, self.width - 1)
            for c in range(max(0, lo), hi + 1):
                q = p + self.STEP * c
                out.append((q, c, offset))
                offset += self.cc.rank(q)
            self._blocks[p] = tuple(out)
        return self._blocks[p]

    def rank(self, p):
        return sum(self.cc.rank(q) for q, _, _ in self.blocks(p))

    def _diff(self, p):
        if p in self._diffs:
            return self._diffs[p]
        columns = self.cc.columns
        tgt = {c: off for _, c, off in self.blocks(p - self.STEP)}
        rows, cols = self.rank(p - self.STEP), self.rank(p)
        data = [[0] * cols for _ in range(rows)]
        for q, c, off in self.blocks(p):
            # the vertical map: the boundary, on cochains the transposed
            # one out of q + 1; none when chain degree q - STEP is off range
            if c in tgt:
                vertical = (columns[q][0] if self.STEP == 1 else
                            transpose(columns[q + 1][0], self.cc.rank(q)))
                for j, col in enumerate(vertical):
                    for i, x in col:
                        data[tgt[c] + i][off + j] = x
            # the horizontal map into the next column unless cut: sigma is
            # symmetric, so cochains take it as it is
            if c + 1 not in tgt:
                continue
            for j, col in enumerate(_horizontal(self.cc, q, c)):
                for i, x in col:
                    data[tgt[c + 1] + i][off + j] += x
        self._diffs[p] = IntMatrix(rows, cols, data)
        return self._diffs[p]


def _horizontal(cc, q, c):
    """The horizontal map (-1)^q (1 - (-1)^c sigma) out of the block of
    chain degree q in column c, as sparse columns with the rows of that
    block; the two entries of a column add up where sigma fixes the cell."""
    sign = -1 if q % 2 else 1
    flip = sign if c % 2 else -sign
    return [[(j, sign), (i, flip * s)]
            for j, ((i, s),) in enumerate(cc.sigma(q))]


class TotalComplex(_Staircase):
    """The staircase on chains: column j holds chain degree q = p + j, the
    vertical map is the boundary."""

    STEP = 1

    def diff(self, p):
        """The total differential T_p -> T_{p-1}."""
        return self._diff(p)


class TotalCochainComplex(_Staircase):
    """The staircase on cochains: column i holds cochain degree q = p - i,
    so p >= 0; the vertical map is the coboundary and sigma acts by its
    transpose, which is sigma."""

    STEP = -1

    def diff(self, p):
        """The total codifferential T^p -> T^{p+1}."""
        return self._diff(p)


@lru_cache(maxsize=None)
def reduced_total_complex_of(X, k, width=None):
    """The staircase on the critical cells of the Morse reduction of X with
    twist k, cut to `width` columns if given.  Ordinary chains are width 1
    and untwisted: no twist or modulus enters a boundary."""
    return TotalComplex(reduced_chain_complex(X, k), width)


@lru_cache(maxsize=None)
def reduced_total_cochain_complex_of(X, k, width=None):
    return TotalCochainComplex(reduced_chain_complex(X, k), width)


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def eq_homology(X, coeff, p):
    tc = reduced_total_complex_of(X, coeff.k)
    return homology_at(tc.diff(p + 1), tc.diff(p), coeff.mod)


@lru_cache(maxsize=None)
def eq_cohomology(X, coeff, p):
    tc = reduced_total_cochain_complex_of(X, coeff.k)
    return homology_at(tc.diff(p - 1), tc.diff(p), coeff.mod)


@lru_cache(maxsize=None)
def homology(X, coeff, q):
    tc = reduced_total_complex_of(X, 0, 1)
    return homology_at(tc.diff(q + 1), tc.diff(q), coeff.mod)


@lru_cache(maxsize=None)
def cohomology(X, coeff, q):
    tc = reduced_total_cochain_complex_of(X, 0, 1)
    return homology_at(tc.diff(q - 1), tc.diff(q), coeff.mod)


@lru_cache(maxsize=None)
def homology_involution(X, coeff, q):
    """The involution acting on ordinary homology (twist included)."""
    spot = homology(X, coeff, q)
    return induced_hom(reduced_chain_complex(X, coeff.k).sigma(q), spot, spot)


def cohomology_involution(X, coeff, q):
    """The involution acting on ordinary cohomology (twist included)."""
    spot = cohomology(X, coeff, q)
    # sigma is a symmetric signed permutation: it is its own transpose
    return induced_hom(reduced_chain_complex(X, coeff.k).sigma(q), spot, spot)


@lru_cache(maxsize=None, typed=True)
def group_cohomology(module, invol, p):
    """Cohomology of the order-two group with coefficients in a finitely
    generated module.

    `module` is an FGAbelianGroup (its coordinate space is torsion
    generators first, then free ones); `invol` an integer matrix acting on
    those coordinates.  Degree 0 gives the invariants; degrees >= 1 are
    the two-periodic kernels mod images of 1 -/+ invol.  Memoized by
    value (the module by its type, which fixes its orders, and typed, so
    a bool degree still raises); a rejected input raises on every call.
    """
    if not _is_integer(p) or p < 0:
        raise LinAlgError("group cohomology degree must be a nonnegative "
                          "integer, got %r" % (p,))
    n = module.ngens
    if invol.rows != n or invol.cols != n:
        raise LinAlgError("involution matrix has wrong shape")
    orders = module.orders
    # the relation lattice is diagonal, so membership is divisibility
    if not (_canonical_matrix(module, _one_plus(invol @ invol, -1)).is_zero()
            and not any(any(_reduced([d * x for x in col], orders))
                        for col, d in zip(invol.columns(), orders))):
        raise LinAlgError("matrix is not an involution of the module")
    sign = -1 if p % 2 else 1
    d_in = _one_plus(invol, sign) if p else IntMatrix.zeros(n, 0)
    return _subquotient(_one_plus(invol, -sign), d_in, orders, orders)


# ---------------------------------------------------------------------------
# Classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EqClass:
    """An element of H_p(X; G, A(k)): its coordinates in the generators of
    eq_homology(X, coeff, p), torsion entries in [0, d), so that equal
    classes are equal values."""

    X: object
    coeff: Coeff
    p: int
    coords: tuple

    def spot(self):
        return eq_homology(self.X, self.coeff, self.p)


def class_from_coords(X, coeff, p, coords):
    """The class with the given generator coordinates, in canonical form."""
    spot = eq_homology(X, coeff, p)
    return EqClass(X, coeff, p, spot.reduce(spot.lift(coords)))


# ---------------------------------------------------------------------------
# Edge morphisms and the eta cap
# ---------------------------------------------------------------------------

def _column_projection(tc, p):
    """Projection of the staircase in total degree p onto its column-0
    block, chain degree p: that block comes first when it exists, so the
    projection is the first tc.cc.rank(p) rows of the identity."""
    k = tc.cc.rank(p)
    return [[(j, 1)] if j < k else [] for j in range(tc.rank(p))]


@lru_cache(maxsize=None)
def edge_morphism(X, coeff, p):
    """e_p : H_p(X; G, A(k)) -> H_p(X, A(k)), the column-0 projection.

    The image always lands in the invariants of the twisted involution
    (checked)."""
    src = eq_homology(X, coeff, p)
    tgt = homology(X, coeff, p)
    proj = _column_projection(reduced_total_complex_of(X, 0), p)
    hom = induced_hom(proj, src, tgt)
    if tgt.ngens:
        sigma_star = homology_involution(X, coeff, p)
        if sigma_star.compose(hom).matrix != hom.matrix:
            raise InternalError(
                "edge image is not invariant under the involution")
    return hom


def edge_morphism_cohomology(X, coeff, p):
    """e^p : H^p(X; G, A(k)) -> H^p(X, A(k)), the column-0 component."""
    src = eq_cohomology(X, coeff, p)
    tgt = cohomology(X, coeff, p)
    proj = _column_projection(reduced_total_cochain_complex_of(X, 0), p)
    return induced_hom(proj, src, tgt)


def _shift_matrix(tc, p, steps=1):
    """The column shift T_p -> T_{p-steps} of the chain staircase tc,
    block (q, j) -> (q, j + steps).  The blocks of T_p are the last blocks
    of T_{p-steps}, in the same order, so the shift is the last tc.rank(p)
    columns of the identity; it depends on the ranks alone and serves
    every coefficient system (the twist rises by steps)."""
    start = tc.rank(p - steps) - tc.rank(p)
    return [[(start + j, 1)] for j in range(tc.rank(p))]


@lru_cache(maxsize=None)
def eta_cap(X, coeff, p):
    """Cap with the twist class: H_p(X;G,A(k)) -> H_{p-1}(X;G,A(k+1)),
    realized by the column shift."""
    src = eq_homology(X, coeff, p)
    tgt = eq_homology(X, coeff.shift(), p - 1)
    shift = _shift_matrix(reduced_total_complex_of(X, 0), p)
    return induced_hom(shift, src, tgt)


def cap_with_eta(cls, power=1):
    """Cap an explicit class with a power of the twist class."""
    if not _is_integer(power) or power < 0:
        raise LinAlgError("power must be a nonnegative integer")
    coeff, p, coords = cls.coeff, cls.p, cls.coords
    for _ in range(power):
        coords = eta_cap(cls.X, coeff, p).apply(coords)
        coeff, p = coeff.shift(), p - 1
    return EqClass(cls.X, coeff, p, coords)


# ---------------------------------------------------------------------------
# Long exact sequences
# ---------------------------------------------------------------------------

def _exact_nodes(sequence, p, maps):
    """One node (p, label, group) per (label, incoming, outgoing) in maps,
    at the group between the two maps; a node where the sequence is not
    exact raises ExactnessError."""
    nodes = []
    for label, incoming, outgoing in maps:
        if not exact_at(incoming, outgoing):
            raise ExactnessError(
                "%s sequence not exact at %s" % (sequence, label))
        nodes.append((p, label, outgoing.source))
    return nodes


def _edge_connecting(X, coeff, p):
    """Connecting map H_p(X, A(k)) -> H_p(X; G, A(k-1)) of the column-0
    quotient sequence of total complexes: a cycle x goes to
    (-1)^p (1 - sigma) x in column 0, which comes first: the horizontal
    map out of column 0 (sign fixed by the construction, exposed only up
    to sign)."""
    return induced_hom(_horizontal(reduced_chain_complex(X, coeff.k), p, 0),
                       homology(X, coeff, p),
                       eq_homology(X, coeff.shift(), p))


def les_edge(X, coeff, p_min, p_max):
    """The long exact sequence relating the edge morphisms and the eta cap,

      ... -> H_{p+1}(A(k-1)) --cap--> H_p(A(k)) --edge--> H_p(X, A(k))
          --conn--> H_p(A(k-1)) --cap--> H_{p-1}(A(k)) -> ...

    verified node by node over the requested degree range: the tuple of
    its nodes (degree, label, group), top degree first.  Any failure
    raises ExactnessError naming the node.
    """
    prev = coeff.shift()
    nodes = []
    for p in range(p_max, p_min - 1, -1):
        cap_in = eta_cap(X, prev, p + 1)
        edge = edge_morphism(X, coeff, p)
        conn = _edge_connecting(X, coeff, p)
        cap_out = eta_cap(X, prev, p)
        nodes += _exact_nodes("edge", p, (
            ("H_%d(X;G,%s)" % (p, coeff), cap_in, edge),
            ("H_%d(X,%s)" % (p, coeff), edge, conn),
            ("H_%d(X;G,%s)" % (p, prev), conn, cap_out)))
    return tuple(nodes)


def _times_two(X, coeff, p):
    spot = eq_homology(X, coeff, p)
    return induced_hom([[(j, 2)] for j in range(spot.ambient_rank)],
                       spot, spot)


def _mod2_reduction(X, coeff, p):
    src = eq_homology(X, coeff, p)
    tgt = eq_homology(X, COEFF_Z2, p)
    if src.ambient_rank != tgt.ambient_rank:
        raise InternalError("mod-2 reduction changes the ambient rank")
    return induced_hom([[(j, 1)] for j in range(src.ambient_rank)], src, tgt)


def _halved_boundary_hom(d, src, tgt):
    """Connecting map of a coefficient sequence whose kernel is
    multiplication by two: lift each mod-2 cycle of src integrally, apply
    the sparse columns of the integral differential d, halve, and reduce
    in tgt.  Mod-2 boundaries must halve to boundaries."""
    cols = _column_entries(d.data, d.cols)

    def halved(vec):
        w = _combine(cols, vec, d.rows)
        if any(x % 2 for x in w):
            raise InternalError("mod-2 cycle has odd boundary")
        return [x // 2 for x in w]

    return hom_from_images(src, tgt, [halved(g) for g in src.generators],
                           [halved(z) for z in src.d_in.columns()])


@lru_cache(maxsize=None)
def _coefficient_bockstein(X, coeff, p):
    """Connecting map H_p(X;G,Z/2) -> H_{p-1}(X;G,Z(k)) of the sequence
    0 -> Z(k) --2--> Z(k) -> Z/2 -> 0."""
    return _halved_boundary_hom(reduced_total_complex_of(X, coeff.k).diff(p),
                                eq_homology(X, COEFF_Z2, p),
                                eq_homology(X, coeff, p - 1))


def les_coeff(X, k, p_min, p_max):
    """The long exact sequence of 0 -> Z(k) --x2--> Z(k) -> Z/2 -> 0,
    verified node by node: the tuple of its nodes (degree, label, group),
    as for les_edge; failures raise ExactnessError."""
    coeff = Coeff("Z", k)
    nodes = []
    for p in range(p_max, p_min - 1, -1):
        bock_in = _coefficient_bockstein(X, coeff, p + 1)
        two = _times_two(X, coeff, p)
        red = _mod2_reduction(X, coeff, p)
        bock = _coefficient_bockstein(X, coeff, p)
        nodes += _exact_nodes("coefficient", p, (
            ("H_%d(X;G,%s) [x2 source]" % (p, coeff), bock_in, two),
            ("H_%d(X;G,%s) [x2 target]" % (p, coeff), two, red),
            ("H_%d(X;G,Z/2)" % p, red, bock)))
    return tuple(nodes)


@lru_cache(maxsize=None)
def ordinary_bockstein(F, p):
    """Bockstein H_{p+1}(F, Z/2) -> H_p(F, Z/2) of 0->Z/2->Z/4->Z/2->0 on
    an ordinary complex, computed as (boundary of an integer lift)/2
    reduced mod 2."""
    bnd = reduced_total_complex_of(F, 0, 1).diff(p + 1)
    return _halved_boundary_hom(bnd, homology(F, COEFF_Z2, p + 1),
                                homology(F, COEFF_Z2, p))


# ---------------------------------------------------------------------------
# Localizations to the fixed set
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def fixed_offsets(F, group):
    """Layout of the graded mod-2 group of F, the direct sum over q of
    group(F, Z/2, q) for group homology or cohomology, as one (Z/2)^N:
    degree q holds the coordinates offsets[q]:offsets[q + 1], and N is
    offsets[-1]."""
    offsets = [0]
    for q in range(dim(F) + 1):
        offsets.append(offsets[-1] + group(F, COEFF_Z2, q).ngens)
    return tuple(offsets)


@lru_cache(maxsize=None)
def _graded_group(n):
    """(Z/2)^n presented mod 2 with no boundaries and no outgoing map:
    generators and coordinates are the identity.  One object per n, so
    maps onto graded groups of equal rank compose."""
    return homology_at(IntMatrix.zeros(n, 0), IntMatrix.zeros(0, n), 2)


def _fixed_classes(src, tcf, p, chains, group):
    """The GroupHom from src to the graded mod-2 group(F) of F = tcf.cc.X
    sending the i-th generator to the class whose degree-q part is that of
    the chain-degree-q block of chains[i], a vector of the reduced
    staircase tcf of F in total degree p."""
    F = tcf.cc.X
    offsets = fixed_offsets(F, group)
    cols = []
    for y in chains:
        col = [0] * offsets[-1]
        for q, _, off in tcf.blocks(p):
            spot = group(F, COEFF_Z2, q)
            col[offsets[q]:offsets[q + 1]] = spot.reduce(
                y[off:off + spot.ambient_rank])
        cols.append(col)
    return GroupHom(src, _graded_group(offsets[-1]),
                    IntMatrix.from_columns(offsets[-1], cols))


@lru_cache(maxsize=None)
def localize_homology(X, coeff, n):
    """rho in degree n: H_n(X; G, A(k)) -> the graded mod-2 homology of
    the fixed set, laid out by fixed_offsets: reduce mod two, cap with a
    high power of the twist class, invert the inclusion of the fixed set
    (an isomorphism in negative degrees), and project away the twist
    columns.  The zero map when the fixed set is empty."""
    src = eq_homology(X, coeff, n)
    steps = dim(X) + 1
    p_low = n - steps
    # below degree zero the inclusion of the fixed set is an isomorphism
    incl = pushforward_hom(fixed_inclusion(X), COEFF_Z2, p_low)
    solver = _solver(image_lattice(incl))
    shift = _shift_matrix(reduced_total_complex_of(X, 0), n, steps)
    chains = []
    for gen in src.generators:
        sol = solver.solve_vector(incl.target.reduce(
            _combine(shift, gen, incl.target.ambient_rank)))
        if sol is None:
            raise InternalError(
                "inclusion of the fixed set could not be inverted")
        chains.append(incl.source.lift(sol))
    tcf = reduced_total_complex_of(fixed_subcomplex(X), 0)
    return _fixed_classes(src, tcf, p_low, chains, homology)


@lru_cache(maxsize=None)
def localize_cohomology(X, coeff, n):
    """beta in degree n: H^n(X; G, A(k)) -> the graded mod-2 cohomology of
    the fixed set: restrict to the fixed set, reduce mod two, split off
    the twist columns.  The zero map when the fixed set is empty."""
    src = eq_cohomology(X, coeff, n)
    restrict = _pullback_matrix(fixed_inclusion(X), n)
    tcf = reduced_total_cochain_complex_of(fixed_subcomplex(X), 0)
    return _fixed_classes(
        src, tcf, n, [_combine(restrict, gen, tcf.rank(n))
                      for gen in src.generators], cohomology)


def _graded_hom(src, tgt, blocks):
    """The GroupHom between the graded mod-2 groups with layouts src and
    tgt that acts by the matrix m from the degree-q block of the source to
    the degree-r block of the target, for each (r, q, m) in blocks."""
    cols = [[0] * tgt[-1] for _ in range(src[-1])]
    for r, q, m in blocks:
        for j, col in enumerate(m.columns(), src[q]):
            cols[j][tgt[r]:tgt[r] + m.rows] = col
    return GroupHom(_graded_group(src[-1]), _graded_group(tgt[-1]),
                    IntMatrix.from_columns(tgt[-1], cols))


def parity_projection(F, group, parity):
    """The projection of the graded mod-2 group(F) onto its degrees of the
    given parity."""
    offsets = fixed_offsets(F, group)
    return _graded_hom(offsets, offsets, [
        (q, q, IntMatrix.identity(offsets[q + 1] - offsets[q]))
        for q in range(parity, len(offsets) - 1, 2)])


def graded_bockstein(F):
    """The ordinary mod-2 Bockstein of F on its graded mod-2 homology,
    degree q + 1 to degree q."""
    offsets = fixed_offsets(F, homology)
    return _graded_hom(offsets, offsets, [
        (q, q + 1, ordinary_bockstein(F, q).matrix)
        for q in range(len(offsets) - 2)])


# ---------------------------------------------------------------------------
# Degrees, fundamental classes, pushforward
# ---------------------------------------------------------------------------

def _blockwise(tc_src, tc_tgt, p, mats):
    """The map T_p(source) -> T_p(target) of two staircases that acts by
    mats[q] from each block of chain degree q to the same column, and by
    zero where mats or the target have no such block."""
    tgt_off = {j: off for _, j, off in tc_tgt.blocks(p)}
    out = [[] for _ in range(tc_src.rank(p))]
    for q, j, off in tc_src.blocks(p):
        if j in tgt_off and q < len(mats):
            out[off:off + len(mats[q])] = [
                [(tgt_off[j] + i, x) for i, x in col] for col in mats[q]]
    return out


@lru_cache(maxsize=None)
def pushforward_hom(f, coeff, p):
    """Functoriality on equivariant homology as a homomorphism, induced by
    pi f iota block by block on the reduced staircases."""
    src = eq_homology(f.source, coeff, p)
    tgt = eq_homology(f.target, coeff, p)
    mat = _blockwise(reduced_total_complex_of(f.source, coeff.k),
                     reduced_total_complex_of(f.target, coeff.k), p,
                     reduced_gmap_matrices(f))
    return induced_hom(mat, src, tgt)


@lru_cache(maxsize=None)
def ordinary_pushforward_hom(f, coeff, q):
    """pushforward_hom on the staircases cut to column 0."""
    src = homology(f.source, coeff, q)
    tgt = homology(f.target, coeff, q)
    mat = _blockwise(reduced_total_complex_of(f.source, 0, 1),
                     reduced_total_complex_of(f.target, 0, 1), q,
                     reduced_gmap_matrices(f))
    return induced_hom(mat, src, tgt)


@lru_cache(maxsize=None)
def _pullback_matrix(f, p, width=None):
    """Pullback T^p(target) -> T^p(source) of reduced total cochain
    complexes, cut to `width` columns when given, for every coefficient
    system: pi f iota blockwise, transposed."""
    tgt = reduced_total_cochain_complex_of(f.target, 0, width)
    push = _blockwise(reduced_total_cochain_complex_of(f.source, 0, width),
                      tgt, p, reduced_gmap_matrices(f))
    return transpose(push, tgt.rank(p))


def pullback_hom(f, coeff, p):
    """Contravariant functoriality on equivariant cohomology."""
    src = eq_cohomology(f.target, coeff, p)
    tgt = eq_cohomology(f.source, coeff, p)
    return induced_hom(_pullback_matrix(f, p), src, tgt)


def fixed_map(f):
    """The restriction of an equivariant map to the fixed subcomplexes."""
    FX = fixed_subcomplex(f.source)
    FY = fixed_subcomplex(f.target)
    src_verts = fixed_vertex_injection(f.source)
    tgt_index = {v: i for i, v in enumerate(fixed_vertex_injection(f.target))}
    return make_gmap(FX, FY, [tgt_index[f.vertex_map[v]] for v in src_verts])


def graded_pushforward(f):
    """The restriction of f to the fixed sets on graded mod-2 homology."""
    fg = fixed_map(f)
    src = fixed_offsets(fg.source, homology)
    tgt = fixed_offsets(fg.target, homology)
    return _graded_hom(src, tgt, [
        (q, q, ordinary_pushforward_hom(fg, COEFF_Z2, q).matrix)
        for q in range(min(len(src), len(tgt)) - 1)])


def graded_pullback(f):
    """The restriction of f to the fixed sets on graded mod-2 cohomology."""
    fg = fixed_map(f)
    src = fixed_offsets(fg.target, cohomology)
    tgt = fixed_offsets(fg.source, cohomology)
    return _graded_hom(src, tgt, [
        (q, q, induced_hom(_pullback_matrix(fg, q, 1),
                           cohomology(fg.target, COEFF_Z2, q),
                           cohomology(fg.source, COEFF_Z2, q)).matrix)
        for q in range(min(len(src), len(tgt)) - 1)])


def pushforward(f, cls):
    """Covariant functoriality along an equivariant simplicial map."""
    if cls.X != f.source:
        raise LinAlgError("class does not live on the source of the map")
    return EqClass(f.target, cls.coeff, cls.p,
                   pushforward_hom(f, cls.coeff, cls.p).apply(cls.coords))


def equivariant_degree(cls):
    """Pushforward to the point in degree zero; defined for untwisted
    integral and mod-2 coefficients."""
    if cls.p != 0:
        raise LinAlgError("degree is defined only in degree zero")
    if cls.coeff.ring == "Z" and cls.coeff.k % 2:
        raise LinAlgError("degree needs an untwisted coefficient system")
    coords = pushforward(constant_map(cls.X), cls).coords
    return coords[0] if coords else 0


def ordinary_degree(coeff, chain0):
    """Degree of an ordinary 0-cycle of the reduced chains: the sum of its
    coefficients (iota_0 is the inclusion of the critical vertices, so
    the sum is that of its simplicial lift)."""
    total = sum(chain0)
    return total % 2 if coeff.mod else total


def graded_degree_mod2(F, coords):
    """The mod-2 degree of the H_0 block of coordinates of the graded
    mod-2 homology of F, the other degrees counting zero."""
    if F.vertex_count == 0:
        return 0
    spot = homology(F, COEFF_Z2, 0)
    return ordinary_degree(
        COEFF_Z2, spot.lift(coords[:fixed_offsets(F, homology)[1]]))


def fundamental_class(X, ring):
    """The fundamental class of a closed A-oriented G-manifold in degree
    d = dim X, lifted through the edge isomorphism; the twist parity is
    detected from the involution action on the top homology.  The lift is
    unique: T_{d+1} has no blocks, so by the edge/cap sequence the top
    edge map is injective."""
    d, untwisted = dim(X), Coeff(ring, 0)
    found = homology(X, untwisted, d)
    want = FGAbelianGroup(1) if ring == "Z" else FGAbelianGroup(0, (2,))
    if found != want:
        raise LinAlgError("H_%d(X, %s) = %s, expected %s: no fundamental "
                          "class" % (d, untwisted, found, want))
    # the involution acts on the top class by +-1 over Z, by 1 over Z/2
    action = homology_involution(X, untwisted, d).matrix.data[0][0]
    if action not in (1, -1):
        raise InternalError("involution acts on the top class by %d" % action)
    coeff = Coeff(ring, 0 if action == 1 else 1)
    # H_d(X, A(k)) is Z or Z/2 (the twist leaves the boundary alone), so
    # its one generator has coordinates (1,)
    top = (1,)
    edge = edge_morphism(X, coeff, d)
    sol = _solver(image_lattice(edge)).solve_vector(top)
    if sol is None:
        raise InternalError("edge morphism misses the fundamental cycle "
                            "(wrong twist parity?)")
    cls = class_from_coords(X, coeff, d, sol)
    if edge.apply(cls.coords) != top:
        raise InternalError("edge image mismatch")
    return cls


def represented_class(j, ring):
    """The class represented by a closed sub-G-manifold: the pushforward
    of its fundamental class along the inclusion."""
    return pushforward(j, fundamental_class(j.source, ring))
