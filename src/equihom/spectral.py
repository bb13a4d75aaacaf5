"""Second spectral-sequence pages, Galois-Maximality decisions, the
surjectivity criteria for the fixed-set localization, and duality checks.

A compact G-complex is Galois-Maximal (GM) when the total mod-2 homology of
its fixed set reaches the bound given by group cohomology of the mod-2
homology of the space; Z-GM is the integral analogue (one bound for the
even part, one for the odd part).  Both decisions are made exactly through
edge-morphism surjectivity onto invariants; the dimension counts are
computed as an independent cross-check.

The localizations are GroupHoms into the graded mod-2 group of the fixed
set (equivariant.fixed_offsets), so every span and rank question about
them is a lattice test of intlinalg, the integer kernel used everywhere
else, with the mod-2 relations 2e_i given by the orders of the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .complexes import (
    COEFF_Z,
    COEFF_Z1,
    COEFF_Z2,
    Coeff,
    connected_components,
    dim,
    fixed_subcomplex,
)
from .equivariant import (
    cohomology_involution,
    edge_morphism,
    edge_morphism_cohomology,
    eq_cohomology,
    eq_homology,
    fixed_offsets,
    fundamental_class,
    graded_degree_mod2,
    homology,
    homology_involution,
    group_cohomology,
    localize_cohomology,
    localize_homology,
    parity_projection,
)
from .intlinalg import (
    FGAbelianGroup,
    IntMatrix,
    InternalError,
    LinAlgError,
    _is_integer,
    _one_plus,
    _solver,
    image_lattice,
    kernel_lattice,
    lattices_equal,
)


# ---------------------------------------------------------------------------
# E2 page
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class E2Page:
    coeff: Coeff
    p_min: int
    q_max: int
    table: tuple  # tuple of ((p, q), FGAbelianGroup)

    def entry(self, p, q):
        return dict(self.table)[p, q]


def _e2(X, coeff, p, q):
    """The entry E2(p, q) of the second page: the one place it is read."""
    return group_cohomology(homology(X, coeff, q),
                            homology_involution(X, coeff, q).matrix, -p)


def e2_page(X, coeff, depth=None):
    """The page E2(p, q) = H^{-p}(group, H_q(X, A(k))) for -depth <= p <= 0
    and 0 <= q <= dim X.  Columns p <= -1 are verified two-periodic over Z
    and constant over Z/2."""
    if depth is None:
        depth = dim(X) + 2
    if not _is_integer(depth) or depth < 0:
        raise LinAlgError("depth must be a nonnegative integer, got %r"
                          % (depth,))
    entries = {(p, q): _e2(X, coeff, p, q) for q in range(dim(X) + 1)
               for p in range(0, -depth - 1, -1)}
    period = 1 if coeff.mod else 2
    for (p, q), grp in entries.items():
        if p <= -1 and p - period >= -depth \
                and entries[p - period, q] != grp:
            raise InternalError("period-%d periodicity broken at (%d, %d)"
                                % (period, p, q))
    return E2Page(coeff, -depth, dim(X), tuple(entries.items()))


# ---------------------------------------------------------------------------
# Edge surjectivity, GM reports
# ---------------------------------------------------------------------------

def _onto_invariants(hom, sigma):
    """Whether hom maps onto the coordinates of its target fixed by the
    involution sigma of that target."""
    spot = hom.target
    invariants = spot.coordinate_kernel_lattice(_one_plus(sigma.matrix, -1),
                                                spot)
    return lattices_equal(image_lattice(hom), invariants)


@lru_cache(maxsize=None)
def edge_surjective(X, coeff, p):
    """Whether e_p maps onto the invariants of H_p(X, A(k))."""
    hom = edge_morphism(X, coeff, p)
    if hom.target.ngens == 0:
        return True
    return _onto_invariants(hom, homology_involution(X, coeff, p))


@lru_cache(maxsize=None)
def coedge_surjective(X, coeff, p):
    """Whether e^p maps onto the invariants of H^p(X, A(k))."""
    hom = edge_morphism_cohomology(X, coeff, p)
    if hom.target.ngens == 0:
        return True
    return _onto_invariants(hom, cohomology_involution(X, coeff, p))


EDGE_FAMILIES = (("Z2", COEFF_Z2), ("Z+", COEFF_Z), ("Z-", COEFF_Z1))


@dataclass(frozen=True)
class GMReport:
    gm1: tuple  # (lhs, rhs)
    gm2: tuple
    gm3: tuple
    is_gm: bool
    is_zgm: bool
    edge_surjectivity: tuple  # ((family, degree, bool), ...)


def gm_bounds(X):
    """The three inequalities (lhs, rhs): total/even/odd mod-2 homology of
    the fixed set against anti-diagonal sums of the second page, by mod-2
    dimension: the mod-2 page at total degree -1, the integral page at
    total degrees -2 and -1.  Far-negative columns are periodic, so these
    are stabilized column sums (every mod-2 entry is degree-1 group
    cohomology; even integral rows give degree 2 to gm2 and degree 1 to
    gm3, odd rows the reverse).  lhs <= rhs is a hard check (InternalError).
    """
    offsets = fixed_offsets(fixed_subcomplex(X), homology)
    dims = [b - a for a, b in zip(offsets, offsets[1:])]
    lhs = (offsets[-1], sum(dims[0::2]), sum(dims[1::2]))
    rhs = [sum(_e2(X, coeff, n - q, q).f2_dim() for q in range(dim(X) + 1))
           for coeff, n in ((COEFF_Z2, -1), (COEFF_Z, -2), (COEFF_Z, -1))]
    bounds = tuple(zip(lhs, rhs))
    for lo, hi in bounds:
        if lo > hi:
            raise InternalError("Galois bound violated: %d > %d" % (lo, hi))
    return bounds


def gm_report(X):
    """Exact GM / Z-GM decision through edge surjectivity in every degree,
    with the dimension bounds as cross-check data."""
    gm1, gm2, gm3 = gm_bounds(X)
    table = []
    for fam, coeff in EDGE_FAMILIES:
        for p in range(dim(X) + 1):
            table.append((fam, p, edge_surjective(X, coeff, p)))
    is_gm = all(ok for fam, _, ok in table if fam == "Z2")
    is_zgm = all(ok for fam, _, ok in table if fam in ("Z+", "Z-"))
    return GMReport(gm1, gm2, gm3, is_gm, is_zgm, tuple(table))


# ---------------------------------------------------------------------------
# Surjectivity criteria for the localization in degree two
# ---------------------------------------------------------------------------

# variant -> (coefficients of the localization, of the degree-1 edge map,
# parity of the target part or None for all of it, whether the target is
# the degree-zero part)
RHO_VARIANTS = {
    "zz": (COEFF_Z2, COEFF_Z2, None, True),
    "even-z": (COEFF_Z, COEFF_Z1, 0, True),
    "odd-z": (COEFF_Z1, COEFF_Z, 1, False),
}


def rho_surjectivity_criteria(X, variant):
    """Two independently computed booleans:

      criterion_zero -- the composite (degree-1 edge, then projection to
        the degree-2 group cohomology of first homology) vanishes;
      rho_surjective -- the degree-2 localization maps onto its stated
        target (degree-zero part for 'zz', even degree-zero part for
        'even-z', odd part for 'odd-z').

    The two agree; the suite tests rather than assumes this.
    """
    if variant not in RHO_VARIANTS:
        raise LinAlgError("unknown variant %r" % (variant,))
    if connected_components(X) != 1:
        raise LinAlgError("criterion needs a connected complex")
    F = fixed_subcomplex(X)
    if variant in ("zz", "odd-z") and F.vertex_count == 0:
        raise LinAlgError("criterion needs a nonempty fixed set")
    coeff2, coeff1, parity, degree_zero = RHO_VARIANTS[variant]

    # side one: the composite through group cohomology of H_1
    e1 = edge_morphism(X, coeff1, 1)
    h2g = _e2(X, coeff1, -2, 1)
    criterion_zero = not any(any(h2g.reduce(img))
                             for img in e1.matrix.columns())

    # side two: the image of the localization, projected to the parity
    # part, against the target subspace spanned by unit vectors of that
    # part (of degree zero, and sums of two of odd degree, for the
    # degree-zero targets)
    loc = localize_homology(X, coeff2, 2)
    offsets = fixed_offsets(F, homology)
    n = offsets[-1]
    positions = range(n)
    if parity is not None:
        loc = parity_projection(F, homology, parity).compose(loc)
        positions = [i for q in range(parity, len(offsets) - 1, 2)
                     for i in range(offsets[q], offsets[q + 1])]
    units = [[int(i == j) for j in range(n)] for i in positions]
    targets = units
    if degree_zero:
        odd = [u for u in units if graded_degree_mod2(F, u)]
        targets = [u for u in units if u not in odd] + [
            [a + b for a, b in zip(u, v)] for u, v in zip(odd, odd[1:])]
    rho_surjective = _solver(image_lattice(loc)).contains(
        (IntMatrix.from_columns(n, targets), loc.target.orders))
    return criterion_zero, rho_surjective


def edge_defect_witness(X):
    """When the degree-2 cohomology edge map fails to hit all invariants
    (mod-2 coefficients), a generator of the kernel of the degree-1
    localization with nonzero edge image; None when the edge map is
    surjective.  Needs a nonempty fixed set, and a connected X when the
    edge map fails on a component without fixed points."""
    F = fixed_subcomplex(X)
    if F.vertex_count == 0:
        raise LinAlgError("witness search needs a nonempty fixed set")
    if coedge_surjective(X, COEFF_Z2, 2):
        return None
    e1 = edge_morphism_cohomology(X, COEFF_Z2, 1)
    kernel, _ = kernel_lattice(localize_cohomology(X, COEFF_Z2, 1))
    for col in kernel.columns():
        coords = tuple(x % 2 for x in col)
        if any(e1.apply(coords)):
            return coords
    if connected_components(X) != 1:
        raise LinAlgError("witness search needs a connected complex")
    raise InternalError("no witness found although the degree-2 edge map "
                        "is not surjective")


# ---------------------------------------------------------------------------
# Duality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualityEntry:
    ring: str
    i: int
    twist: int
    cohomology: FGAbelianGroup
    homology: FGAbelianGroup
    equal: bool


@dataclass(frozen=True)
class DualityReport:
    X: object
    d: int
    detected_twists: tuple
    entries: tuple

    @property
    def ok(self):
        return all(e.equal for e in self.entries)


def poincare_check(X, rings=("Z", "Z2")):
    """Isomorphism-type comparison H^i(X;G,A(l)) vs H_{d-i}(X;G,A(k-l))
    for d = dim X, -2 <= i <= d + 3 and every twist l, where k is the
    detected parity of the fundamental class.  The cap map itself is not
    constructed."""
    d = dim(X)
    entries = []
    twists = []
    for ring in rings:
        mu = fundamental_class(X, ring)
        k = mu.coeff.k
        twists.append((ring, k))
        lvals = (0, 1) if ring == "Z" else (0,)
        for i in range(-2, d + 4):
            for l in lvals:
                co = eq_cohomology(X, Coeff(ring, l), i)
                ho = eq_homology(X, Coeff(ring, (k - l) % 2), d - i)
                entries.append(DualityEntry(
                    ring, i, l, FGAbelianGroup(co.free_rank, co.torsion),
                    FGAbelianGroup(ho.free_rank, ho.torsion), co == ho))
    return DualityReport(X, d, tuple(twists), tuple(entries))
