import json
import os
import subprocess
import sys
import time

import pytest

from equihom.complexes import (
    BUILTIN_NAMES,
    COEFF_Z,
    COEFF_Z1,
    COEFF_Z2,
    ComplexError,
    barycentric_subdivide,
    builtin,
    chain_complex,
    constant_map,
    dim,
    fixed_inclusion,
    fixed_subcomplex,
    identity_map,
    make_complex,
)
from equihom.equivariant import (
    TotalCochainComplex,
    TotalComplex,
    _coefficient_bockstein,
    _column_projection,
    _edge_connecting,
    _graded_group,
    _shift_matrix,
    cap_with_eta,
    class_from_coords,
    cohomology,
    edge_morphism,
    edge_morphism_cohomology,
    eq_cohomology,
    eq_homology,
    equivariant_degree,
    eta_cap,
    fixed_offsets,
    fundamental_class,
    graded_bockstein,
    graded_degree_mod2,
    graded_pullback,
    graded_pushforward,
    group_cohomology,
    homology,
    homology_involution,
    les_coeff,
    les_edge,
    localize_cohomology,
    localize_homology,
    ordinary_degree,
    ordinary_pushforward_hom,
    parity_projection,
    pushforward,
    reduced_total_cochain_complex_of,
    reduced_total_complex_of,
    represented_class,
)
from equihom.intlinalg import (
    FGAbelianGroup,
    IntMatrix,
    LinAlgError,
    LinearSolver,
    PresentedGroup,
    exact_at,
    homology_at,
    image_lattice,
    induced_hom,
    kernel_lattice,
)
from equihom.verify import FIXED_POINT_BUILTINS, _naturality_maps
from equihom.morse import reduced_chain_complex

from chain_matrices import (
    boundary,
    dense,
    from_blocks,
    sparse,
    total_complex,
    total_complex_of,
    transpose,
)

Z = FGAbelianGroup(1)
Z2G = FGAbelianGroup(0, (2,))
TRIVIAL = FGAbelianGroup(0)
ALL_COEFFS = (COEFF_Z2, COEFF_Z, COEFF_Z1)


class TestGroupCohomology:
    def test_integers_trivial_action_degree2(self):
        got = group_cohomology(Z, IntMatrix.identity(1), 2)
        assert got == Z2G

    def test_twisted_integers_degree1(self):
        got = group_cohomology(Z, IntMatrix.identity(1).scale(-1), 1)
        assert got == Z2G
        # 3 = -1 mod 4: H^1 = ker(1 + 3) / im(1 - 3) on Z/4
        got = group_cohomology(FGAbelianGroup(0, (4,)),
                               IntMatrix.from_rows([[3]]), 1)
        assert got == Z2G

    def test_twisted_integers_no_invariants(self):
        got = group_cohomology(Z, IntMatrix.identity(1).scale(-1), 0)
        assert got == TRIVIAL

    def test_rejects_non_involution(self):
        with pytest.raises(LinAlgError):
            group_cohomology(Z, IntMatrix.from_rows([[2]]), 1)
        # 2 * 2 - 1 = 3 is not 0 mod 4
        with pytest.raises(LinAlgError, match="not an involution"):
            group_cohomology(FGAbelianGroup(0, (4,)),
                             IntMatrix.from_rows([[2]]), 1)
        # squares to the identity, but sends the relation 2 e0 to
        # 2 e0 + 2 e1, which is no relation of Z/2 + Z
        with pytest.raises(LinAlgError, match="not an involution"):
            group_cohomology(FGAbelianGroup(1, (2,)),
                             IntMatrix.from_rows([[1, 0], [1, -1]]), 1)

    @pytest.mark.parametrize("p", [2.5, 2.0, True, False, "1", None, -1])
    def test_rejects_degrees_that_are_no_nonnegative_integer(self, p):
        # a float or bool degree used to be taken for its integer value
        with pytest.raises(LinAlgError, match="nonnegative integer, got"):
            group_cohomology(Z2G, IntMatrix.identity(1), p)

    def test_swap_module_is_acyclic(self):
        swap = IntMatrix.from_rows([[0, 1], [1, 0]])
        for p in (1, 2, 3):
            assert group_cohomology(FGAbelianGroup(2), swap, p) == TRIVIAL


class TestTotalComplex:
    def test_point_untwisted_maps(self):
        window = total_complex(builtin("point"), 0, -2, 0)
        assert [window[p].data for p in (0, -1, -2)] == \
            [((0,),), ((2,),), ((0,),)]

    def test_point_twisted_maps(self):
        window = total_complex(builtin("point"), 1, -2, 0)
        assert [window[p].data for p in (0, -1, -2)] == \
            [((2,),), ((0,),), ((2,),)]

    def test_free_pair_degree_zero(self):
        tc = total_complex_of(builtin("free-pair"), 0)
        d0 = tc.diff(0)
        assert d0.rows == 2 and d0.cols == 2
        # (1 - swap): the swap-difference matrix
        assert d0 == IntMatrix.from_rows([[1, -1], [-1, 1]])

    def test_window_independence(self):
        X = builtin("circle-reflection")
        small = total_complex(X, 0, -1, 1)
        large = total_complex(X, 0, -3, 2)
        for p in (-1, 0, 1):
            assert small[p] == large[p]

    @pytest.mark.parametrize("name", BUILTIN_NAMES + ("empty",))
    def test_block_layout_matches_a_scan_of_every_column(self, name):
        X = (fixed_subcomplex(builtin("free-pair")) if name == "empty"
             else builtin(name))
        for cc in (chain_complex(X, 0), reduced_chain_complex(X, 0)):
            for tc in (TotalComplex(cc), TotalCochainComplex(cc)):
                for p in range(-50, dim(X) + 51):
                    out, offset = [], 0
                    for c in range(abs(p) + tc.n + 1):
                        q = p + tc.STEP * c
                        if 0 <= q <= tc.n:
                            out.append((q, c, offset))
                            offset += cc.rank(q)
                    assert tc.blocks(p) == tuple(out), (tc, p)

    def test_differential_squares_to_zero(self):
        for name in ("circle-antipodal", "sphere-octahedron-reflection",
                     "torus-reflection"):
            X = builtin(name)
            for coeff in ALL_COEFFS:
                tc = total_complex_of(X, coeff.k)
                for p in range(-2, dim(X) + 1):
                    sq = tc.diff(p) @ tc.diff(p + 1)
                    if coeff.mod:
                        sq = sq.mod(coeff.mod)
                    assert sq.is_zero(), (name, coeff, p)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# a fresh process per builtin: presentations are memoized by the values of
# their matrices, so in a process that presented equal matrices before, a
# group may hold the differential of another complex or degree
SHARED_STAIRCASE = r"""
import json
import sys
from equihom.complexes import (
    COEFF_Z, COEFF_Z2, barycentric_subdivide, builtin, dim)
from equihom.equivariant import (
    eq_cohomology, eq_homology, reduced_total_cochain_complex_of,
    reduced_total_complex_of)

def staircases():
    return [reduced_total_complex_of.cache_info().currsize,
            reduced_total_cochain_complex_of.cache_info().currsize]

failures, seen = [], set()
X = builtin(sys.argv[1])
for sd in (0, 1):
    # a 0-dimensional complex is its own subdivision
    new = 0 if X in seen else 1
    seen.add(X)
    before = staircases()
    for p in range(-3, dim(X) + 3):
        for group in (eq_homology, eq_cohomology):
            if group(X, COEFF_Z2, p).d_in is not group(X, COEFF_Z, p).d_in:
                failures.append([sd, group.__name__, p])
    # the groups over Z/2 and Z asked for one staircase each way, and it
    # is the untwisted one
    reduced_total_complex_of(X, 0)
    reduced_total_cochain_complex_of(X, 0)
    grown = [a - b for a, b in zip(staircases(), before)]
    if grown != [new, new]:
        failures.append([sd, "staircases", grown])
    X = barycentric_subdivide(X)
print(json.dumps(failures))
"""


class TestTwistKeysTheChainLayer:
    """The chain layer is keyed by the twist alone: Z/2 and Z share the
    untwisted view, its staircase and its differentials, and a coefficient
    system or any twist but 0 and 1 is refused there."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_z2_and_z_share_the_untwisted_staircase(self, name):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", SHARED_STAIRCASE, name],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    @pytest.mark.parametrize("sd", [0, 1])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_a_coefficient_system_is_no_twist(self, name, sd):
        X = builtin(name)
        for _ in range(sd):
            X = barycentric_subdivide(X)
        for view, k in ((chain_complex, COEFF_Z), (chain_complex, COEFF_Z2),
                        (reduced_chain_complex, 2),
                        (reduced_chain_complex, -1),
                        (reduced_total_complex_of, COEFF_Z1)):
            with pytest.raises(ComplexError, match="twist must be 0 or 1"):
                view(X, k)


def offset_column_projection(tc, p):
    """The column-0 projection found by looking up the column offsets, as
    it was written before the staircase maps read the block layout."""
    rank = tc.cc.rank(p)
    return from_blocks(
        rank, tc.rank(p), [(0, off, IntMatrix.identity(rank), 1)
                           for _, c, off in tc.blocks(p) if c == 0])


def offset_shift_matrix(tc, p, steps):
    """The column shift by offset lookup: block (q, j) -> (q, j + steps)."""
    tgt_off = {j: off for _, j, off in tc.blocks(p - steps)}
    return from_blocks(
        tc.rank(p - steps), tc.rank(p),
        [(tgt_off[j + steps], off, IntMatrix.identity(tc.cc.rank(q)), 1)
         for q, j, off in tc.blocks(p)])


def offset_edge_connecting(X, coeff, p):
    """The connecting map of the column-0 quotient sequence, with
    (-1)^p (1 - sigma) placed at the offset of column 0."""
    prev = coeff.shift()
    cc = reduced_chain_complex(X, coeff.k)
    tc_prev = reduced_total_complex_of(X, prev.k)
    one_minus_sigma = IntMatrix.identity(cc.rank(p)) - dense(cc.sigma(p),
                                                              cc.rank(p))
    chain_map = from_blocks(
        tc_prev.rank(p), cc.rank(p),
        [(off, 0, one_minus_sigma, -1 if p % 2 else 1)
         for _, j, off in tc_prev.blocks(p) if j == 0])
    return induced_hom(sparse(chain_map), homology(X, coeff, p),
                       eq_homology(X, prev, p))


class TestStaircaseMapsReadTheLayout:
    """The column-0 projection, the column shift and the connecting map
    read the block layout; entry for entry they are the maps built by
    looking up column offsets."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_against_offset_lookup(self, name):
        X = builtin(name)
        degrees = range(-4, dim(X) + 3)
        for coeff in ALL_COEFFS:
            for cc in (chain_complex(X, coeff.k),
                       reduced_chain_complex(X, coeff.k)):
                chains, cochains = TotalComplex(cc), TotalCochainComplex(cc)
                for p in degrees:
                    for tc in (chains, cochains):
                        assert dense(_column_projection(tc, p),
                                     tc.cc.rank(p)) == \
                            offset_column_projection(tc, p), (coeff, tc, p)
                    for steps in range(dim(X) + 2):
                        assert dense(_shift_matrix(chains, p, steps),
                                     chains.rank(p - steps)) == \
                            offset_shift_matrix(chains, p, steps), \
                            (coeff, p, steps)
            for p in degrees:
                assert _edge_connecting(X, coeff, p) == \
                    offset_edge_connecting(X, coeff, p), (coeff, p)


class TestEqHomology:
    @pytest.mark.parametrize("coeff", ALL_COEFFS, ids=str)
    def test_point_matches_group_cohomology(self, coeff):
        pt = builtin("point")
        module = Z2G if coeff.ring == "Z2" else Z
        sigma = IntMatrix.from_rows(
            [[-1 if (coeff.ring == "Z" and coeff.k == 1) else 1]])
        for p in range(-6, 1):
            assert eq_homology(pt, coeff, p) == \
                group_cohomology(module, sigma, -p)

    def test_free_pair(self):
        fp = builtin("free-pair")
        assert eq_homology(fp, COEFF_Z, 0) == Z
        for p in (-3, -2, -1, 1, 2):
            assert eq_homology(fp, COEFF_Z, p) == TRIVIAL

    def test_circle_reflection_mod2_dims(self):
        cr = builtin("circle-reflection")
        for p, d in [(1, 1), (0, 2), (-1, 2), (-2, 2), (-3, 2)]:
            assert eq_homology(cr, COEFF_Z2, p) == \
                FGAbelianGroup(0, (2,) * d)

    def test_cohomology_vanishes_in_negative_degrees(self):
        X = builtin("circle-reflection")
        for p in (-1, -2):
            assert eq_cohomology(X, COEFF_Z, p) == TRIVIAL


class TestSubdivisionInvariance:
    @pytest.mark.parametrize("name", ["free-pair", "circle-reflection",
                                      "circle-antipodal"])
    def test_eq_homology_is_a_homeomorphism_invariant(self, name):
        from equihom.complexes import barycentric_subdivide
        X = builtin(name)
        Y = barycentric_subdivide(X)
        for coeff in ALL_COEFFS:
            for p in range(-2, dim(X) + 2):
                assert eq_homology(X, coeff, p) == eq_homology(Y, coeff, p), \
                    (name, str(coeff), p)

    def test_sphere_reflection_subdivided_spot_checks(self):
        from equihom.complexes import barycentric_subdivide
        X = builtin("sphere-octahedron-reflection")
        Y = barycentric_subdivide(X)
        for coeff, p in [(COEFF_Z1, 2), (COEFF_Z, 0), (COEFF_Z2, -1)]:
            assert eq_homology(X, coeff, p) == eq_homology(Y, coeff, p)


class TestDisjointUnionAdditivity:
    def test_groups_add_up(self):
        from equihom.complexes import disjoint_union
        A = builtin("circle-reflection")
        B = builtin("free-pair")
        U = disjoint_union(A, B)
        for coeff in ALL_COEFFS:
            for p in range(-3, 3):
                ga = eq_homology(A, coeff, p)
                gb = eq_homology(B, coeff, p)
                gu = eq_homology(U, coeff, p)
                assert gu.free_rank == ga.free_rank + gb.free_rank
                # all torsion here is 2-primary, so the invariant factors
                # of the direct sum are the merged sorted factor lists
                assert sorted(gu.torsion) == sorted(ga.torsion + gb.torsion)


class TestEdgeMorphism:
    def test_point_identity(self):
        e = edge_morphism(builtin("point"), COEFF_Z, 0)
        assert e.matrix == IntMatrix.identity(1)

    def test_circle_antipodal_degree1_exact_image(self):
        # the invariant fundamental cycle is itself equivariant, so the
        # edge map in degree one is onto (index 1 in H_1 = Z)
        e = edge_morphism(builtin("circle-antipodal"), COEFF_Z, 1)
        assert e.source == Z and e.target == Z
        assert e.matrix == IntMatrix.from_rows([[1]])

    def test_sphere_reflection_twisted_top_edge_surjective(self):
        e = edge_morphism(builtin("sphere-octahedron-reflection"),
                          COEFF_Z1, 2)
        assert e.source == Z and e.target == Z
        assert e.matrix == IntMatrix.from_rows([[1]])


class TestEtaCap:
    def test_point_untwisted_to_twisted(self):
        s = eta_cap(builtin("point"), COEFF_Z, 0)
        assert s.source == Z and s.target == Z2G
        assert s.matrix == IntMatrix.from_rows([[1]])

    def test_double_cap_is_composite(self):
        X = builtin("circle-reflection")
        for coeff in ALL_COEFFS:
            for p in (1, 0, -1):
                once = eta_cap(X, coeff, p)
                twice = eta_cap(X, coeff.shift(), p - 1).compose(once)
                spot = once.source
                for i in range(spot.ngens):
                    coords = tuple(1 if j == i else 0
                                   for j in range(spot.ngens))
                    cls = class_from_coords(X, coeff, p, coords)
                    direct = cap_with_eta(cls, power=2)
                    assert direct.coords == twice.apply(coords)
                    assert (direct.coeff, direct.p) == (coeff, p - 2)

    def test_power_zero_is_the_class(self):
        cls = fundamental_class(builtin("circle-reflection"), "Z2")
        assert cap_with_eta(cls, 0) == cls

    @pytest.mark.parametrize("power", [-1, -3, 1.0, 0.5, True, "2"])
    def test_power_must_be_a_nonnegative_integer(self, power):
        cls = fundamental_class(builtin("circle-reflection"), "Z2")
        with pytest.raises(LinAlgError, match="nonnegative integer"):
            cap_with_eta(cls, power)

    def test_free_pair_cap_is_zero(self):
        fp = builtin("free-pair")
        for coeff in ALL_COEFFS:
            for p in (-1, 0, 1):
                assert eta_cap(fp, coeff, p).is_zero()


class TestLongExactSequences:
    """A sequence that is not exact at a node raises ExactnessError, so a
    returned tuple of (degree, label, group) nodes, three per degree, is
    an exact sequence."""

    def test_point_edge_sequence(self):
        assert len(les_edge(builtin("point"), COEFF_Z, -3, 0)) == 12

    def test_circle_reflection_edge_sequence(self):
        nodes = les_edge(builtin("circle-reflection"), COEFF_Z2, -3, 2)
        assert len(nodes) == 18
        assert nodes[0] == (2, "H_2(X;G,Z/2)",
                            eq_homology(builtin("circle-reflection"),
                                        COEFF_Z2, 2))

    def test_torus_reflection_edge_sequence(self):
        assert len(les_edge(builtin("torus-reflection"), COEFF_Z, -4, 2)) \
            == 21

    def test_point_coefficient_sequence(self):
        assert len(les_coeff(builtin("point"), 0, -3, 0)) == 12

    def test_sphere_antipodal_coefficient_sequence(self):
        assert len(les_coeff(builtin("sphere-octahedron-antipodal"),
                             0, -3, 3)) == 21

    def test_klein_bottle_bockstein_detects_torsion(self):
        K = builtin("klein-bottle-trivial")
        assert len(les_coeff(K, 0, -2, 3)) == 18
        # the connecting map out of mod-2 degree 1 is nonzero: it sees the
        # Z/2 torsion of the integral first homology
        delta = _coefficient_bockstein(K, COEFF_Z, 1)
        assert not delta.is_zero()

    def test_bockstein_costs_the_nonzeros_of_the_differential(self):
        # two copies of K_24 swapped by the involution: the differential
        # out of degree 0 is 508 x 508 with 1,016 nonzeros; applied as a
        # dense matrix to every mod-2 generator and boundary, the
        # Bockstein took about 4 s
        n = 24
        edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
        X = make_complex(2 * n, edges + [(a + n, b + n) for a, b in edges],
                         [(v + n) % (2 * n) for v in range(2 * n)])
        eq_homology(X, COEFF_Z2, 0)
        eq_homology(X, COEFF_Z, -1)
        start = time.process_time()
        _coefficient_bockstein(X, COEFF_Z, 0)
        assert time.process_time() - start < 1


class TestLocalization:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_targets_are_the_graded_presentation(self, name):
        X = builtin(name)
        F = fixed_subcomplex(X)
        for localize, group in ((localize_homology, homology),
                                (localize_cohomology, cohomology)):
            graded = _graded_group(fixed_offsets(F, group)[-1])
            assert isinstance(graded, PresentedGroup)
            for coeff in ALL_COEFFS:
                for n in range(dim(X) + 1):
                    assert localize(X, coeff, n).target is graded, \
                        (localize.__name__, coeff, n)

    def test_empty_fixed_set_gives_zero_map(self):
        X = builtin("circle-antipodal")
        loc = localize_homology(X, COEFF_Z2, 1)
        assert loc.is_zero() and loc.target == TRIVIAL

    def test_circle_reflection_degree_pattern(self):
        # each degree-zero class localizes to a point class whose mod-2
        # degree matches the equivariant degree, and each of the two
        # fixed points is the localization of a class, found by solving
        # rather than read off a generator
        X = builtin("circle-reflection")
        F = fixed_subcomplex(X)
        assert fixed_offsets(F, homology) == (0, 2)
        loc = localize_homology(X, COEFF_Z2, 0)
        spot = eq_homology(X, COEFF_Z2, 0)
        assert spot.ngens == 2
        for i in range(spot.ngens):
            coords = tuple(1 if j == i else 0 for j in range(spot.ngens))
            cls = class_from_coords(X, COEFF_Z2, 0, coords)
            assert graded_degree_mod2(F, loc.apply(coords)) == \
                equivariant_degree(cls) % 2
        solver = LinearSolver(image_lattice(loc))
        for point in ((1, 0), (0, 1)):
            cls = class_from_coords(X, COEFF_Z2, 0,
                                    solver.solve_vector(point))
            assert loc.apply(cls.coords) == point
            assert graded_degree_mod2(F, point) == \
                equivariant_degree(cls) % 2 == 1

    def test_sum_of_fixed_point_classes_has_degree_zero(self):
        X = builtin("circle-reflection")
        F = fixed_subcomplex(X)
        loc = localize_homology(X, COEFF_Z2, 0)
        solver = LinearSolver(image_lattice(loc))
        points = [solver.solve_vector(point) for point in ((1, 0), (0, 1))]
        total = class_from_coords(X, COEFF_Z2, 0,
                                  [a + b for a, b in zip(*points)])
        assert loc.apply(total.coords) == (1, 1)
        assert graded_degree_mod2(F, loc.apply(total.coords)) == 0
        assert equivariant_degree(total) % 2 == 0

    def test_fundamental_class_localizes_to_equator(self):
        X = builtin("sphere-octahedron-reflection")
        mu = fundamental_class(X, "Z")
        assert mu.coeff == COEFF_Z1 and mu.p == 2
        image = localize_homology(X, COEFF_Z1, 2).apply(mu.coords)
        off = fixed_offsets(fixed_subcomplex(X), homology)
        assert image[off[1]:off[2]] == (1,)

    @pytest.mark.parametrize("coords", [(1,), (1, 1, 1), (1, 0, 0, 0, 0)])
    def test_rejects_coordinates_of_the_wrong_length(self, coords):
        # the source, H_0 of the torus reflection over Z/2, has 4 generators
        loc = localize_homology(builtin("torus-reflection"), COEFF_Z2, 0)
        assert loc.source.ngens == 4
        with pytest.raises(LinAlgError, match="wrong length"):
            loc.apply(coords)
        beta = localize_cohomology(builtin("rp2-trivial"), COEFF_Z2, 0)
        with pytest.raises(LinAlgError, match="wrong length"):
            beta.apply(coords + (0,) * 5)


class TestRestrictionLocalization:
    def test_trivial_involution_top_component_is_edge_mod2(self):
        X = builtin("rp2-trivial")
        off = fixed_offsets(fixed_subcomplex(X), cohomology)
        for n in range(0, 3):
            src = eq_cohomology(X, COEFF_Z2, n)
            beta = localize_cohomology(X, COEFF_Z2, n)
            edge = edge_morphism_cohomology(X, COEFF_Z2, n)
            for i in range(src.ngens):
                coords = tuple(1 if j == i else 0 for j in range(src.ngens))
                top = beta.apply(coords)[off[n]:off[n + 1]]
                img = edge.apply(coords)
                assert tuple(c % 2 for c in img) == top

    def test_circle_reflection_degree_one(self):
        X = builtin("circle-reflection")
        assert fixed_offsets(fixed_subcomplex(X), cohomology) == (0, 2)
        beta = localize_cohomology(X, COEFF_Z2, 1)
        # two generators, and each point class is the image of a class
        # found by solving: beta is a bijection onto the two points
        assert beta.source.ngens == 2
        solver = LinearSolver(image_lattice(beta))
        for point in ((1, 0), (0, 1)):
            coords = solver.solve_vector(point)
            assert coords is not None and beta.apply(coords) == point

    def test_free_action_zero(self):
        X = builtin("sphere-octahedron-antipodal")
        beta = localize_cohomology(X, COEFF_Z2, 2)
        assert beta.is_zero() and beta.target == TRIVIAL


class TestCoordinatesMustBeIntegers:
    """Generator coordinates entering from outside are exact integers:
    lift, GroupHom.apply and class_from_coords refuse anything else,
    bool included, with LinAlgError."""

    @pytest.mark.parametrize("bad", [0.5, True, "1", None])
    def test_non_integers_are_refused(self, bad):
        X = builtin("circle-reflection")
        spot = eq_homology(X, COEFF_Z, 0)
        sigma = homology_involution(X, COEFF_Z2, 0)
        assert (spot.ngens, sigma.source.ngens) == (2, 1)
        for call in (lambda: class_from_coords(X, COEFF_Z2, 0, (1, bad)),
                     lambda: spot.lift((bad, 1)),
                     lambda: sigma.apply((bad,))):
            with pytest.raises(LinAlgError, match="exact integers"):
                call()

    def test_integers_pass(self):
        X = builtin("circle-reflection")
        assert class_from_coords(X, COEFF_Z2, 0, (3, -2)).coords == (1, 0)
        assert len(eq_homology(X, COEFF_Z, 0).lift((2, -1))) > 0
        assert homology_involution(X, COEFF_Z2, 0).apply((5,)) == (1,)


class TestGradedMaps:
    """The block maps on the graded mod-2 (co)homology of fixed sets."""

    @pytest.fixture(params=[(name, times) for name in FIXED_POINT_BUILTINS
                            for times in (0, 1)],
                    ids=lambda case: "%s-sd%d" % case)
    def space(self, request):
        name, times = request.param
        X = builtin(name)
        for _ in range(times):
            X = barycentric_subdivide(X)
        return X

    def test_bockstein_squares_to_zero(self, space):
        bock = graded_bockstein(fixed_subcomplex(space))
        assert bock.compose(bock).is_zero()

    def test_identity_map_gives_identities(self, space):
        F = fixed_subcomplex(space)
        f = identity_map(space)
        for hom, group in ((graded_pushforward(f), homology),
                           (graded_pullback(f), cohomology)):
            n = fixed_offsets(F, group)[-1]
            assert hom.matrix == IntMatrix.identity(n)

    def test_kernel_lattices_of_the_graded_maps(self, space):
        F = fixed_subcomplex(space)
        homs = [graded_bockstein(F)]
        for f in (identity_map(space), constant_map(space)):
            homs += [graded_pushforward(f), graded_pullback(f)]
        homs += [parity_projection(F, group, parity)
                 for group in (homology, cohomology) for parity in (0, 1)]
        for hom in homs:
            kernel = kernel_lattice(hom)
            basis, orders = kernel
            assert orders == (2,) * hom.source.ngens
            # the kernel dies, and holds every generator that dies
            assert (hom.matrix @ basis).mod(2).is_zero()
            solver = LinearSolver(kernel)
            for i, col in enumerate(hom.matrix.columns()):
                if not any(x % 2 for x in col):
                    unit = [1 if j == i else 0 for j in range(len(orders))]
                    assert solver.solve_vector(unit) is not None

    def test_parity_projections_are_exact(self, space):
        F = fixed_subcomplex(space)
        for group in (homology, cohomology):
            even, odd = (parity_projection(F, group, parity)
                         for parity in (0, 1))
            assert exact_at(even, odd) and exact_at(odd, even)

    def test_parity_projections_sum_to_the_identity(self, space):
        F = fixed_subcomplex(space)
        for group in (homology, cohomology):
            even, odd = (parity_projection(F, group, parity)
                         for parity in (0, 1))
            assert even.compose(odd).is_zero()
            assert even.matrix + odd.matrix == IntMatrix.identity(
                fixed_offsets(F, group)[-1])


class TestDegrees:
    def test_point_class(self):
        cls = class_from_coords(builtin("point"), COEFF_Z, 0, (1,))
        assert equivariant_degree(cls) == 1

    def test_free_pair_orbit_class(self):
        # the generator is the invariant sum of the two points; its
        # pushforward to the point has coefficient sum two
        fp = builtin("free-pair")
        cls = class_from_coords(fp, COEFF_Z, 0, (1,))
        assert equivariant_degree(cls) == 2
        e = edge_morphism(fp, COEFF_Z, 0)
        chain = homology(fp, COEFF_Z, 0).lift(e.apply((1,)))
        assert ordinary_degree(COEFF_Z, chain) == 2

    def test_degree_needs_degree_zero(self):
        X = builtin("circle-reflection")
        mu = fundamental_class(X, "Z2")
        with pytest.raises(LinAlgError):
            equivariant_degree(mu)

    def test_degree_rejects_twisted_integers(self):
        fp = builtin("free-pair")
        cls = class_from_coords(fp, COEFF_Z1, 0, (1,))
        with pytest.raises(LinAlgError):
            equivariant_degree(cls)


class TestFundamentalClass:
    def test_circle_antipodal_untwisted(self):
        mu = fundamental_class(builtin("circle-antipodal"), "Z")
        assert mu.coeff == COEFF_Z and mu.p == 1

    def test_sphere_reflection_twisted(self):
        mu = fundamental_class(builtin("sphere-octahedron-reflection"), "Z")
        assert mu.coeff == COEFF_Z1 and mu.p == 2

    def test_rp2_mod2(self):
        mu = fundamental_class(builtin("rp2-trivial"), "Z2")
        assert mu.coeff == COEFF_Z2 and mu.p == 2
        assert any(mu.coords)

    def test_nonorientable_has_no_integral_class(self):
        with pytest.raises(LinAlgError):
            fundamental_class(builtin("rp2-trivial"), "Z")

    def test_disconnected_rejected(self):
        with pytest.raises(LinAlgError):
            fundamental_class(builtin("free-pair"), "Z")

    @pytest.mark.parametrize("name, ring, message", [
        ("free-pair", "Z", "H_0(X, Z) = Z^2, expected Z"),
        ("free-pair", "Z2", "H_0(X, Z/2) = (Z/2)^2, expected Z/2"),
        ("klein-bottle-trivial", "Z", "H_2(X, Z) = 0, expected Z"),
        ("rp2-trivial", "Z", "H_2(X, Z) = 0, expected Z"),
    ])
    def test_one_message_names_degree_coefficients_and_groups(
            self, name, ring, message):
        with pytest.raises(LinAlgError) as info:
            fundamental_class(builtin(name), ring)
        assert str(info.value) == message + ": no fundamental class"


def mod2_reference_presentations(X):
    """(group, reference) for every Z/2 group of X in degrees -4..dim+2
    (ordinary ones in 0..dim): the reference is presented by homology_at
    on the same differentials reduced mod 2."""
    chains = reduced_total_complex_of(X, 0)
    cochains = reduced_total_cochain_complex_of(X, 0)
    cc = reduced_chain_complex(X, 0)
    for p in range(-4, dim(X) + 3):
        yield eq_homology(X, COEFF_Z2, p), homology_at(
            chains.diff(p + 1).mod(2), chains.diff(p).mod(2), 2)
        yield eq_cohomology(X, COEFF_Z2, p), homology_at(
            cochains.diff(p - 1).mod(2), cochains.diff(p).mod(2), 2)
    for q in range(dim(X) + 1):
        d_in, d_out = boundary(cc, q + 1), boundary(cc, q)
        yield homology(X, COEFF_Z2, q), homology_at(
            d_in.mod(2), d_out.mod(2), 2)
        yield cohomology(X, COEFF_Z2, q), homology_at(
            transpose(d_out).mod(2), transpose(d_in).mod(2), 2)


class TestIntegralMod2Presentations:
    """Z/2 groups are presented on integral chains, the modulus entering
    only as relation columns; each is the presentation on the chains
    reduced mod 2, up to the identity of the ambient chains."""

    @pytest.mark.parametrize("sd", [0, 1])
    @pytest.mark.parametrize("name", BUILTIN_NAMES
                             + ("circle-reflection+free-pair",))
    def test_identity_is_an_isomorphism(self, name, sd):
        X = builtin(name)
        for _ in range(sd):
            X = barycentric_subdivide(X)
        for grp, ref in mod2_reference_presentations(X):
            assert (grp.free_rank, grp.torsion) == (ref.free_rank,
                                                    ref.torsion)
            ident = IntMatrix.identity(grp.ambient_rank)
            there = induced_hom(sparse(ident), grp, ref)
            back = induced_hom(sparse(ident), ref, grp)
            assert back.compose(there).matrix == IntMatrix.identity(grp.ngens)
            assert there.compose(back).matrix == IntMatrix.identity(grp.ngens)


class TestClassVectors:
    """A class is canonical coordinates; a cycle enters through reduce."""

    def test_a_vector_of_simplicial_length_is_rejected(self):
        X = builtin("sphere-octahedron-reflection")
        mu = fundamental_class(X, "Z")
        spot = eq_homology(X, mu.coeff, mu.p)
        length = total_complex_of(X, mu.coeff.k).rank(mu.p)
        assert length != spot.ambient_rank
        with pytest.raises(LinAlgError, match="wrong length"):
            spot.reduce((0,) * length)
        with pytest.raises(LinAlgError, match="wrong length"):
            class_from_coords(X, mu.coeff, mu.p, (0,) * (spot.ngens + 1))

    def test_reduce_rejects_a_reduced_non_cycle(self):
        X = builtin("circle-antipodal")
        rejected = 0
        for coeff in ALL_COEFFS:
            tc = reduced_total_complex_of(X, coeff.k)
            for p in range(-1, 2):
                spot = eq_homology(X, coeff, p)
                n = tc.rank(p)
                for unit in (tuple(int(i == k) for i in range(n))
                             for k in range(n)):
                    image = tc.diff(p).mul_vector(unit)
                    if any(x % 2 if coeff.mod else x for x in image):
                        rejected += 1
                        with pytest.raises(LinAlgError, match="not a cycle"):
                            spot.reduce(unit)
                    else:
                        coords = spot.reduce(unit)
                        assert class_from_coords(X, coeff, p, coords).coords \
                            == coords
        assert rejected

    def test_coordinates_are_canonical(self):
        X = builtin("torus-reflection")
        cls = class_from_coords(X, COEFF_Z2, 0, (3, -1, 2, 0))
        assert cls == class_from_coords(X, COEFF_Z2, 0, (1, 1, 0, 0))
        assert cls.coords == (1, 1, 0, 0)


class TestPushforward:
    def test_identity(self):
        X = builtin("circle-reflection")
        mu = fundamental_class(X, "Z2")
        assert pushforward(identity_map(X), mu) == mu

    @pytest.mark.parametrize("name, ring", [("circle-reflection", "Z2"),
                                            ("torus-reflection", "Z")])
    def test_identity_pushforward_is_the_same_value(self, name, ring):
        # a class is its canonical coordinates, so the path that built it
        # does not show in equality or hashing
        X = builtin(name)
        mu = fundamental_class(X, ring)
        pushed = pushforward(identity_map(X), mu)
        assert mu == pushed
        assert hash(mu) == hash(pushed)

    def test_rejects_a_class_off_the_source(self):
        X = builtin("circle-reflection")
        mu = fundamental_class(builtin("circle-antipodal"), "Z2")
        with pytest.raises(LinAlgError, match="source"):
            pushforward(identity_map(X), mu)

    def test_equator_class_recorded(self):
        X = builtin("sphere-octahedron-reflection")
        j = fixed_inclusion(X)
        pushed = represented_class(j, "Z")
        assert eq_homology(X, COEFF_Z, 1) == Z2G
        assert pushed.coords == (1,)

    def test_ordinary_pushforward_is_zero_off_the_chain_degrees(self):
        # below degree 0 and past the source's dimension the source group
        # is zero, so the map is zero, as pushforward_hom is there
        for _, f in _naturality_maps():
            for coeff in ALL_COEFFS:
                for q in (-2, -1, dim(f.source) + 1):
                    hom = ordinary_pushforward_hom(f, coeff, q)
                    assert hom.source is homology(f.source, coeff, q)
                    assert hom.target is homology(f.target, coeff, q)
                    assert hom.source == TRIVIAL and hom.is_zero()

    def test_constant_map_gives_degree(self):
        X = builtin("circle-reflection")
        spot = eq_homology(X, COEFF_Z2, 0)
        for i in range(spot.ngens):
            coords = tuple(1 if j == i else 0 for j in range(spot.ngens))
            cls = class_from_coords(X, COEFF_Z2, 0, coords)
            pushed = pushforward(constant_map(X), cls)
            assert pushed.coords == (equivariant_degree(cls) % 2,)
