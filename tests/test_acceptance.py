"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Expected values are produced independently of the code under test:
closed-form tables are retranscribed here from the case analysis, golden
groups are written out literally, and structural checks recompute both
sides."""

import json
import time

from equihom.cli import main as cli_main
from equihom.complexes import (
    BUILTIN_NAMES,
    COEFF_Z,
    COEFF_Z1,
    COEFF_Z2,
    Coeff,
    builtin,
    fixed_subcomplex,
)
from equihom.enriques import enumerate_types
from equihom.equivariant import (
    eq_homology,
    fixed_offsets,
    fundamental_class,
    group_cohomology,
    homology,
    localize_homology,
    parity_projection,
)
from equihom.intlinalg import (
    FGAbelianGroup,
    IntMatrix,
    LinearSolver,
    image_lattice,
    kernel_lattice,
)
from equihom.spectral import (
    RHO_VARIANTS,
    coedge_surjective,
    edge_defect_witness,
    gm_report,
    rho_surjectivity_criteria,
)
from equihom.verify import (
    FIXED_POINT_BUILTINS,
    fuzz_complexes,
    gm_bounds,
    suite_duality,
    suite_exactness,
)


def report(number, label, passed):
    print("criterion %d (%s): %s" % (number, label,
                                     "PASS" if passed else "FAIL"))
    assert passed, "criterion %d (%s) failed" % (number, label)


class TestCriterion1PointAxiom:
    def test_point_axiom(self):
        start = time.monotonic()
        pt = builtin("point")
        z = FGAbelianGroup(1)
        z2 = FGAbelianGroup(0, (2,))
        zero = FGAbelianGroup(0)
        ok = True
        for coeff in (COEFF_Z, COEFF_Z1, COEFF_Z2):
            module = z2 if coeff.ring == "Z2" else z
            sigma = IntMatrix.from_rows(
                [[-1 if (coeff.ring == "Z" and coeff.k) else 1]])
            for p in range(-6, 1):
                got = eq_homology(pt, coeff, p)
                via_group = group_cohomology(module, sigma, -p)
                if coeff.ring == "Z2":
                    table = z2
                elif (coeff.k - p) % 2 == 0:
                    table = z if p == 0 else z2
                else:
                    table = zero
                if not (got == via_group == table):
                    ok = False
        elapsed = time.monotonic() - start
        report(1, "point axiom, exact, %.2fs < 1s" % elapsed,
               ok and elapsed < 1.0)


def expected_classifier(t):
    """Independent transcription of the closed-form case analysis."""
    comps = t.half1 + t.half2
    s = len(comps)
    orientable = all(c.orientable for c in comps)
    h1 = sum(2 * c.genus if c.orientable else c.genus for c in comps)
    alg = h1 if orientable else h1 - 1
    if s == 0:
        gm, zgm = False, False
    elif t.half1 and t.half2:
        gm, zgm = True, not orientable
    else:
        gm = not orientable
        zgm = any(c.genus % 2 for c in comps if not c.orientable)
    if s == 0:
        torsion = (2,)
    elif not orientable:
        torsion = (2,) * (2 * s - 1)
    elif t.half1 and t.half2:
        torsion = (2,) * (2 * s - 2) + (4,)
    else:
        torsion = (2,) * (2 * s)
    return h1, alg, gm, zgm, FGAbelianGroup(0, torsion)


# literal golden rows for every type with at most one component:
# (components in the nonempty half) -> (h1, alg, gm, zgm, brauer torsion)
GOLDEN_S_LE_1 = {
    (): (0, 0, False, False, (2,)),
    ("S",): (0, 0, False, False, (2, 2)),
    ("T",): (2, 2, False, False, (2, 2)),
    ("N1",): (1, 0, True, True, (2,)),
    ("N2",): (2, 1, True, False, (2,)),
    ("N3",): (3, 2, True, True, (2,)),
    ("N4",): (4, 3, True, False, (2,)),
    ("N5",): (5, 4, True, True, (2,)),
    ("N6",): (6, 5, True, False, (2,)),
    ("N7",): (7, 6, True, True, (2,)),
    ("N8",): (8, 7, True, False, (2,)),
    ("N9",): (9, 8, True, True, (2,)),
    ("N10",): (10, 9, True, False, (2,)),
    ("N11",): (11, 10, True, True, (2,)),
}


class TestCriterion2ClassifierTable:
    def test_golden_table(self):
        start = time.monotonic()
        table = enumerate_types(3)
        ok = len(table) == 1834
        seen_small = {}
        for t, out in table:
            h1, alg, gm, zgm, brauer = expected_classifier(t)
            if not (out.dim_h1 == h1 and out.dim_h1_alg == alg
                    and out.is_gm == gm and out.is_zgm == zgm
                    and out.brauer == brauer):
                ok = False
            if t.s <= 1:
                key = tuple(str(c) for c in t.components)
                seen_small[key] = (out.dim_h1, out.dim_h1_alg, out.is_gm,
                                   out.is_zgm, out.brauer.torsion)
            # spot anchors on the Brauer group
            if t.s and not t.orientable:
                if out.brauer != FGAbelianGroup(0, (2,) * (2 * t.s - 1)):
                    ok = False
            elif t.s and t.half1 and t.half2:
                want = FGAbelianGroup(0, (2,) * (2 * t.s - 2) + (4,))
                if out.brauer != want:
                    ok = False
            elif t.s:
                if out.brauer != FGAbelianGroup(0, (2,) * (2 * t.s)):
                    ok = False
            elif out.brauer != FGAbelianGroup(0, (2,)):
                ok = False
        if seen_small != GOLDEN_S_LE_1:
            ok = False
        elapsed = time.monotonic() - start
        report(2, "classifier golden table s<=3, %.2fs < 1s" % elapsed,
               ok and elapsed < 1.0)


class TestCriterion3Exactness:
    def test_exactness_suite(self):
        start = time.monotonic()
        checks = suite_exactness()
        failed = [c for c in checks if not c.passed]
        elapsed = time.monotonic() - start
        report(3, "exactness of both sequences on all builtins, "
                  "%d checks, %.1fs < 60s" % (len(checks), elapsed),
               not failed and elapsed < 60.0)


class TestCriterion4NegativeDegreeLocalization:
    def test_parity_isomorphisms(self):
        ok = True
        for name in FIXED_POINT_BUILTINS:
            X = builtin(name)
            F = fixed_subcomplex(X)
            off = fixed_offsets(F, homology)
            for n in (-1, -2, -3, -4):
                for k in (0, 1):
                    parity = (n + k) % 2
                    want_dim = sum(off[q + 1] - off[q]
                                   for q in range(len(off) - 1)
                                   if q % 2 == parity)
                    src = eq_homology(X, Coeff("Z", k), n)
                    proj = parity_projection(F, homology, parity)
                    loc = proj.compose(localize_homology(X, Coeff("Z", k), n))
                    if src != FGAbelianGroup(0, (2,) * want_dim):
                        ok = False
                    relations = (IntMatrix.zeros(src.ngens, 0), src.orders)
                    if not LinearSolver(relations).contains(
                            kernel_lattice(loc)):
                        ok = False  # injectivity
                    if not LinearSolver(image_lattice(loc)).contains(
                            image_lattice(proj)):
                        ok = False  # surjectivity onto the parity part
        report(4, "negative-degree localization parity isomorphisms", ok)


class TestCriterion5GM:
    def test_gm_suite(self):
        ok = True
        for name in BUILTIN_NAMES:
            rep = gm_report(builtin(name))
            for (lhs, rhs) in (rep.gm1, rep.gm2, rep.gm3):
                if lhs > rhs:
                    ok = False
            if rep.is_gm != (rep.gm1[0] == rep.gm1[1]):
                ok = False
        for label, X in fuzz_complexes(100):
            try:
                gm_bounds(X)
            except AssertionError:
                ok = False
        if not gm_report(builtin("circle-reflection")).is_gm:
            ok = False
        if not gm_report(builtin("torus-reflection")).is_gm:
            ok = False
        if gm_report(builtin("sphere-octahedron-antipodal")).is_gm:
            ok = False
        report(5, "Galois bounds, 100 fuzzed variants, decisions agree", ok)


class TestCriterion6Duality:
    def test_duality_suite(self):
        checks = suite_duality()
        required = {"poincare[point]", "poincare[circle-antipodal]",
                    "poincare[circle-reflection]",
                    "poincare[sphere-octahedron-antipodal]",
                    "poincare[sphere-octahedron-reflection]",
                    "poincare[torus-reflection]"}
        names = {c.name for c in checks if c.passed}
        ok = required <= names and all(c.passed for c in checks)
        report(6, "duality isomorphism types on all manifold builtins", ok)


class TestCriterion7FundamentalRestriction:
    def test_equator_restriction(self):
        X = builtin("sphere-octahedron-reflection")
        mu = fundamental_class(X, "Z")
        image = localize_homology(X, mu.coeff, 2).apply(mu.coords)
        F = fixed_subcomplex(X)
        off = fixed_offsets(F, homology)
        equator = homology(F, COEFF_Z2, 1)
        ok = (mu.coeff == COEFF_Z1 and mu.p == 2
              and equator == FGAbelianGroup(0, (2,))
              and image[off[1]:off[2]] == (1,)
              and not any(image[off[0]:off[1]]))
        report(7, "localized fundamental class = equator class, exact "
                  "coordinates", ok)


class TestCriterion8CriteriaEquivalence:
    def test_criteria_agree_and_witness_contract(self):
        ok = True
        for name in BUILTIN_NAMES + ("circle-reflection+free-pair",):
            X = builtin(name)
            for variant in RHO_VARIANTS:
                try:
                    zero, surj = rho_surjectivity_criteria(X, variant)
                except Exception:
                    continue
                if zero != surj:
                    ok = False
        for name in FIXED_POINT_BUILTINS + ("circle-reflection+free-pair",):
            X = builtin(name)
            witness = edge_defect_witness(X)
            if (witness is None) != coedge_surjective(X, COEFF_Z2, 2):
                ok = False
        report(8, "surjectivity criteria agree; witness contract holds", ok)


class TestCriterion9Determinism:
    def test_verify_all_byte_identical(self, capsys):
        code1 = cli_main(["verify", "all", "--json"])
        out1 = capsys.readouterr().out
        code2 = cli_main(["verify", "all", "--json"])
        out2 = capsys.readouterr().out
        parsed = json.loads(out1)
        ok = (code1 == code2 == 0 and out1 == out2
              and parsed["failed"] == 0)
        report(9, "verify all is deterministic (byte-identical JSON) and "
                  "green", ok)
