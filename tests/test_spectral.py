import os
import subprocess
import sys

import pytest

from equihom.complexes import (
    COEFF_Z,
    COEFF_Z1,
    COEFF_Z2,
    builtin,
    dim,
)
from equihom.equivariant import (
    edge_morphism_cohomology,
    localize_cohomology,
)
from equihom.intlinalg import FGAbelianGroup, LinAlgError
from equihom.spectral import (
    RHO_VARIANTS,
    e2_page,
    edge_defect_witness,
    edge_surjective,
    gm_bounds,
    gm_report,
    poincare_check,
    rho_surjectivity_criteria,
)
from equihom.verify import fuzz_complexes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# in a fresh process, so that no earlier computation holds the invariants:
# per builtin, coefficient system, degree and (co)homology with generators,
# the _subquotient hits and misses of H^0(G; H) after the edge test
INVARIANTS_AFTER_THE_EDGE_TEST = r"""
from equihom import intlinalg
from equihom.complexes import BUILTIN_NAMES, COEFF_BY_FLAG, builtin, dim
from equihom.equivariant import (
    cohomology, cohomology_involution, group_cohomology, homology,
    homology_involution)
from equihom.spectral import coedge_surjective, edge_surjective

# the presentations made while the edge test reads a kernel lattice
read = []
subquotient = intlinalg._subquotient
kernel_lattice = intlinalg.PresentedGroup.coordinate_kernel_lattice


def recording(*args):
    read.append(subquotient(*args))
    return read[-1]


def reading(self, matrix, target):
    intlinalg._subquotient = recording
    try:
        return kernel_lattice(self, matrix, target)
    finally:
        intlinalg._subquotient = subquotient


intlinalg.PresentedGroup.coordinate_kernel_lattice = reading
outcomes = []
for name in BUILTIN_NAMES:
    X = builtin(name)
    for coeff in COEFF_BY_FLAG.values():
        for p in range(dim(X) + 1):
            for edge, group, involution in (
                    (edge_surjective, homology, homology_involution),
                    (coedge_surjective, cohomology, cohomology_involution)):
                spot = group(X, coeff, p)
                if spot.ngens:
                    del read[:]
                    edge(X, coeff, p)
                    invariants = group_cohomology(
                        spot, involution(X, coeff, p).matrix, 0)
                    outcomes.append(
                        (len(read), any(r is invariants for r in read)))
print(len(outcomes), sorted(set(outcomes)))
"""

Z = FGAbelianGroup(1)
Z2G = FGAbelianGroup(0, (2,))
TRIVIAL = FGAbelianGroup(0)


class TestE2Page:
    def test_point_single_row(self):
        page = e2_page(builtin("point"), COEFF_Z2)
        for (p, q), grp in page.table:
            assert q == 0 and grp == Z2G

    def test_circle_reflection_two_rows_all_z2(self):
        page = e2_page(builtin("circle-reflection"), COEFF_Z2)
        assert {q for (_, q), _ in page.table} == {0, 1}
        for _, grp in page.table:
            assert grp == Z2G

    def test_sphere_antipodal_integral_rows(self):
        page = e2_page(builtin("sphere-octahedron-antipodal"), COEFF_Z)
        # row q=0: cohomology of the trivial integral module
        assert page.entry(0, 0) == Z
        assert page.entry(-1, 0) == TRIVIAL
        assert page.entry(-2, 0) == Z2G
        # row q=2: the involution negates the top class
        assert page.entry(0, 2) == TRIVIAL
        assert page.entry(-1, 2) == Z2G
        assert page.entry(-2, 2) == TRIVIAL
        # row q=1 is empty for the sphere
        assert page.entry(0, 1) == TRIVIAL

    @pytest.mark.parametrize("depth", [1.5, True, "2"])
    def test_depth_must_be_a_nonnegative_integer(self, depth):
        with pytest.raises(LinAlgError, match="depth"):
            e2_page(builtin("point"), COEFF_Z2, depth)

    def test_periodicity_is_asserted_constructively(self):
        # building a page runs the periodicity assertion internally
        e2_page(builtin("torus-reflection"), COEFF_Z)
        e2_page(builtin("torus-reflection"), COEFF_Z2)


class TestGMReport:
    def test_circle_reflection(self):
        rep = gm_report(builtin("circle-reflection"))
        assert rep.gm1 == (2, 2)
        assert rep.is_gm and rep.is_zgm

    def test_sphere_antipodal_not_gm(self):
        rep = gm_report(builtin("sphere-octahedron-antipodal"))
        assert rep.gm1 == (0, 2)
        assert not rep.is_gm and not rep.is_zgm

    def test_torus_reflection(self):
        rep = gm_report(builtin("torus-reflection"))
        assert rep.gm1 == (4, 4)
        assert rep.is_gm

    @pytest.mark.parametrize("name", [
        "point", "free-pair", "circle-antipodal", "circle-reflection",
        "sphere-octahedron-antipodal", "sphere-octahedron-reflection",
        "rp2-trivial",
    ])
    def test_edge_decision_matches_dimension_count(self, name):
        rep = gm_report(builtin(name))
        assert rep.is_gm == (rep.gm1[0] == rep.gm1[1])
        assert rep.is_zgm == (rep.gm2[0] == rep.gm2[1]
                              and rep.gm3[0] == rep.gm3[1])

    @pytest.mark.parametrize("index", range(30))
    def test_fuzz_decision_matches_bounds_and_builtin(self, index):
        # the edge-based decisions equal the bound equalities on the
        # subdivided, relabelled builtins of the verify fuzz, and equal
        # the report of the builtin itself
        label, X = fuzz_complexes(30)[index]
        rep = gm_report(X)
        assert rep.is_gm == (rep.gm1[0] == rep.gm1[1])
        assert rep.is_zgm == (rep.gm2[0] == rep.gm2[1]
                              and rep.gm3[0] == rep.gm3[1])
        want = gm_report(builtin(label.split("/")[0]))
        assert (rep.is_gm, rep.is_zgm, rep.gm1, rep.gm2, rep.gm3) == (
            want.is_gm, want.is_zgm, want.gm1, want.gm2, want.gm3)

    def test_bounds_hold_on_unions(self):
        gm_bounds(builtin("circle-reflection+free-pair"))
        gm_bounds(builtin("rp2-trivial+circle-antipodal"))

    def test_report_lists_every_edge_family(self):
        rep = gm_report(builtin("circle-reflection"))
        assert rep.gm1 == (2, 2)
        assert {fam for fam, _, _ in rep.edge_surjectivity} == {
            "Z2", "Z+", "Z-"}


class TestRhoCriteria:
    @pytest.mark.parametrize("name", [
        "point", "circle-reflection", "torus-reflection", "torus-free",
        "circle-antipodal", "rp2-trivial", "klein-bottle-trivial",
        "sphere-octahedron-reflection", "sphere-octahedron-antipodal",
    ])
    @pytest.mark.parametrize("variant", RHO_VARIANTS)
    def test_both_sides_agree(self, name, variant):
        X = builtin(name)
        try:
            zero, surjective = rho_surjectivity_criteria(X, variant)
        except LinAlgError:
            return  # precondition violated; covered below
        assert zero == surjective

    def test_circle_reflection_values(self):
        # the degree-one mod-2 edge map is onto Z/2 and the projection to
        # the group cohomology of H_1 is an isomorphism, so the composite
        # is nonzero; correspondingly the degree-2 group vanishes while
        # the target has dimension one
        zero, surjective = rho_surjectivity_criteria(
            builtin("circle-reflection"), "zz")
        assert (zero, surjective) == (False, False)

    def test_empty_fixed_set_precondition(self):
        for variant in ("zz", "odd-z"):
            with pytest.raises(LinAlgError):
                rho_surjectivity_criteria(
                    builtin("sphere-octahedron-antipodal"), variant)

    def test_disconnected_precondition(self):
        with pytest.raises(LinAlgError):
            rho_surjectivity_criteria(builtin("free-pair"), "even-z")

    def test_unknown_variant(self):
        with pytest.raises(LinAlgError):
            rho_surjectivity_criteria(builtin("point"), "both")


class TestEdgeDefectWitness:
    def test_circle_reflection_no_witness(self):
        # no degree-2 cohomology at all
        assert edge_defect_witness(builtin("circle-reflection")) is None

    @pytest.mark.parametrize("name", [
        "torus-reflection", "rp2-trivial", "klein-bottle-trivial",
        "sphere-octahedron-reflection",
    ])
    def test_contract_on_surjective_cases(self, name):
        assert edge_defect_witness(builtin(name)) is None

    def test_union_with_free_component(self):
        assert edge_defect_witness(
            builtin("circle-reflection+free-pair")) is None

    def test_needs_fixed_points(self):
        with pytest.raises(LinAlgError):
            edge_defect_witness(builtin("circle-antipodal"))

    def test_witness_on_a_component_without_fixed_points(self):
        # the degree-2 edge map fails on the free torus, and a degree-1
        # class of that component is the witness
        X = builtin("circle-reflection+torus-free")
        w = edge_defect_witness(X)
        assert any(edge_morphism_cohomology(X, COEFF_Z2, 1).apply(w))
        assert not any(localize_cohomology(X, COEFF_Z2, 1).apply(w))

    @pytest.mark.parametrize("name", [
        "point", "circle-reflection", "sphere-octahedron-reflection",
        "torus-reflection", "klein-bottle-trivial", "rp2-trivial",
    ])
    def test_no_witness_on_a_disconnected_complex(self, name):
        # the degree-2 edge map fails on the antipodal sphere, which has
        # no fixed point and no first cohomology, so no degree-1 class has
        # a nonzero edge image there: a precondition fails, not an
        # internal check
        for union in ("sphere-octahedron-antipodal+" + name,
                      name + "+sphere-octahedron-antipodal"):
            with pytest.raises(LinAlgError, match="connected"):
                edge_defect_witness(builtin(union))


class TestPoincare:
    def test_point(self):
        report = poincare_check(builtin("point"))
        assert report.ok and report.d == 0 and len(report.entries) > 10

    def test_circle_antipodal_untwisted(self):
        report = poincare_check(builtin("circle-antipodal"))
        assert report.ok and report.d == 1
        assert ("Z", 0) in report.detected_twists

    def test_sphere_reflection_twisted(self):
        report = poincare_check(builtin("sphere-octahedron-reflection"))
        assert report.ok and report.d == 2
        assert ("Z", 1) in report.detected_twists

    def test_absent_fundamental_class(self):
        with pytest.raises(LinAlgError):
            poincare_check(builtin("free-pair"))


class TestEdgeSurjectivity:
    def test_free_actions_fail_in_degree_zero(self):
        assert not edge_surjective(builtin("circle-antipodal"), COEFF_Z2, 0)
        assert not edge_surjective(
            builtin("sphere-octahedron-antipodal"), COEFF_Z2, 0)

    def test_invariants_are_the_degree_zero_group_cohomology(self):
        # the edge test reads one kernel, the invariants, and that
        # presentation is the object group_cohomology(H, sigma, 0) returns
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-c", INVARIANTS_AFTER_THE_EDGE_TEST],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        count, outcomes = proc.stdout.split(" ", 1)
        assert int(count) > 100
        assert outcomes.strip() == "[(1, True)]"

    def test_trivial_actions_surject_everywhere(self):
        X = builtin("rp2-trivial")
        for coeff in (COEFF_Z2, COEFF_Z, COEFF_Z1):
            for p in range(dim(X) + 1):
                assert edge_surjective(X, coeff, p)
