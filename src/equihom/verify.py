"""Property suites behind the `verify` command and the acceptance tests.

Each suite returns a deterministic list of check results; the CLI renders
them and the test suite asserts on them.  Every check recomputes both
sides of its statement independently, so a failure localizes a bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import (
    BUILTIN_EULER,
    BUILTIN_FIXED_COUNTS,
    BUILTIN_NAMES,
    COEFF_Z,
    COEFF_Z1,
    COEFF_Z2,
    Coeff,
    builtin,
    constant_map,
    dim,
    euler_characteristic,
    fixed_inclusion,
    fixed_subcomplex,
    identity_map,
    make_gmap,
    relabel,
    simplex_count,
    simplices_by_dim,
    barycentric_subdivide,
    validate,
)
from .enriques import EnriquesType, classify, enumerate_types
from .equivariant import (
    ExactnessError,
    _coefficient_bockstein,
    class_from_coords,
    edge_morphism,
    eq_homology,
    eta_cap,
    equivariant_degree,
    fixed_offsets,
    fundamental_class,
    graded_bockstein,
    graded_degree_mod2,
    graded_pushforward,
    group_cohomology,
    homology,
    les_coeff,
    les_edge,
    localize_homology,
    localize_cohomology,
    graded_pullback,
    ordinary_degree,
    ordinary_pushforward_hom,
    parity_projection,
    pullback_hom,
    pushforward,
    pushforward_hom,
)
from .intlinalg import (
    FGAbelianGroup,
    IntMatrix,
    LinAlgError,
    _solver,
    image_lattice,
    kernel_lattice,
)
from .spectral import (
    RHO_VARIANTS,
    e2_page,
    edge_defect_witness,
    edge_surjective,
    coedge_surjective,
    gm_bounds,
    gm_report,
    poincare_check,
    rho_surjectivity_criteria,
)

ALL_COEFFS = (COEFF_Z2, COEFF_Z, COEFF_Z1)

FIXED_POINT_BUILTINS = tuple(
    name for name in BUILTIN_NAMES if BUILTIN_FIXED_COUNTS[name])

MANIFOLD_BUILTINS = (
    # name, rings admitting a fundamental class
    ("point", ("Z", "Z2")),
    ("circle-antipodal", ("Z", "Z2")),
    ("circle-reflection", ("Z", "Z2")),
    ("sphere-octahedron-antipodal", ("Z", "Z2")),
    ("sphere-octahedron-reflection", ("Z", "Z2")),
    ("torus-reflection", ("Z", "Z2")),
    ("torus-free", ("Z", "Z2")),
    ("klein-bottle-trivial", ("Z2",)),
    ("rp2-trivial", ("Z2",)),
)

FUZZ_SEED = 774711


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(results, name, passed, detail=""):
    results.append(CheckResult(name, bool(passed), detail))


# ---------------------------------------------------------------------------
# core
# ---------------------------------------------------------------------------

def _point_axiom_checks(results):
    pt = builtin("point")
    zee = FGAbelianGroup(1)
    two = FGAbelianGroup(0, (2,))
    zero = FGAbelianGroup(0)
    for coeff in ALL_COEFFS:
        sigma = IntMatrix.from_rows(
            [[-1 if (coeff.ring == "Z" and coeff.k) else 1]])
        module = two if coeff.ring == "Z2" else zee
        for p in range(-6, 1):
            got = eq_homology(pt, coeff, p)
            want = group_cohomology(module, sigma, -p)
            if coeff.ring == "Z2":
                table = two
            elif (coeff.k - p) % 2 == 0:
                table = zee if p == 0 else two
            else:
                table = zero
            ok = got == want and got == table
            _check(results, "point-axiom[%s,p=%d]" % (coeff, p), ok,
                   "%s vs %s vs %s" % (got, want, table))


def _builtin_checks(results):
    for name in BUILTIN_NAMES:
        X = builtin(name)
        _check(results, "valid[%s]" % name, validate(X) is None)
        counts = tuple(len(l) for l in simplices_by_dim(fixed_subcomplex(X)))
        _check(results, "fixed-set[%s]" % name,
               counts == BUILTIN_FIXED_COUNTS[name],
               "%s vs %s" % (counts, BUILTIN_FIXED_COUNTS[name]))
        _check(results, "euler[%s]" % name,
               euler_characteristic(X) == BUILTIN_EULER[name])


def _negative_degree_localization_checks(results):
    """In negative degrees the localization is onto the fixed set exactly:
    with integral twisted coefficients an isomorphism onto the matching
    parity part, with mod-2 coefficients onto everything."""
    for name in FIXED_POINT_BUILTINS:
        X = builtin(name)
        F = fixed_subcomplex(X)
        offsets = fixed_offsets(F, homology)
        parity_dims = {
            parity: sum(offsets[q + 1] - offsets[q]
                        for q in range(parity, len(offsets) - 1, 2))
            for parity in (0, 1)}
        for n in (-1, -2, -3):
            for k in (0, 1):
                parity = (n + k) % 2
                src = eq_homology(X, Coeff("Z", k), n)
                proj = parity_projection(F, homology, parity)
                loc = proj.compose(localize_homology(X, Coeff("Z", k), n))
                want = FGAbelianGroup(0, (2,) * parity_dims[parity])
                iso = (src == want
                       and _solver((IntMatrix.zeros(src.ngens, 0),
                                    src.orders)).contains(kernel_lattice(loc))
                       and _solver(image_lattice(loc)).contains(
                           image_lattice(proj)))
                _check(results,
                       "negative-localization[%s,n=%d,k=%d]" % (name, n, k),
                       iso, "%s -> parity dim %d"
                       % (src, parity_dims[parity]))
            loc2 = localize_homology(X, COEFF_Z2, n)
            _check(results, "negative-surjectivity-z2[%s,n=%d]" % (name, n),
                   _solver(image_lattice(loc2)).contains(
                       (IntMatrix.identity(offsets[-1]), loc2.target.orders)))


def _cap_localization_checks(results):
    """Localizing after capping with the twist class changes nothing."""
    for name in FIXED_POINT_BUILTINS:
        X = builtin(name)
        for coeff in ALL_COEFFS:
            for n in range(-2, dim(X) + 1):
                capped = localize_homology(X, coeff.shift(), n - 1).compose(
                    eta_cap(X, coeff, n))
                _check(results,
                       "cap-then-localize[%s,%s,n=%d]" % (name, coeff, n),
                       capped == localize_homology(X, coeff, n))


def _bockstein_compatibility_checks(results):
    """The localizations intertwine the coefficient connecting map with
    the ordinary mod-2 Bockstein of the fixed set, up to the parity split:
    the parity part of the localized connecting map is the parity part of
    the mod-2 localization plus the Bockstein of its other part."""
    for name in FIXED_POINT_BUILTINS:
        X = builtin(name)
        F = fixed_subcomplex(X)
        for k in (0, 1):
            for n in range(-2, dim(X)):
                parity = (n + k) % 2
                coeff = Coeff("Z", k)
                delta = _coefficient_bockstein(X, coeff, n + 1)
                proj = parity_projection(F, homology, parity)
                other = graded_bockstein(F).compose(
                    parity_projection(F, homology, 1 - parity))
                loc_hi = localize_homology(X, COEFF_Z2, n + 1)
                lhs = proj.compose(localize_homology(X, coeff, n)).compose(
                    delta)
                rhs = (proj.compose(loc_hi).matrix
                       + other.compose(loc_hi).matrix).mod(2)
                _check(results,
                       "bockstein-compat[%s,k=%d,n=%d]" % (name, k, n),
                       lhs.matrix == rhs)


def _degree_checks(results):
    for name in BUILTIN_NAMES:
        X = builtin(name)
        F = fixed_subcomplex(X)
        for coeff in (COEFF_Z, COEFF_Z2):
            spot = eq_homology(X, coeff, 0)
            edge = edge_morphism(X, coeff, 0)
            loc = localize_homology(X, coeff, 0)
            ok_edge = True
            ok_rho = True
            for i in range(spot.ngens):
                coords = tuple(1 if j == i else 0 for j in range(spot.ngens))
                cls = class_from_coords(X, coeff, 0, coords)
                dg = equivariant_degree(cls)
                img = edge.apply(coords)
                ordinary = homology(X, coeff, 0)
                chain = ordinary.lift(img)
                if ordinary_degree(coeff, chain) != dg:
                    ok_edge = False
                rho_deg = graded_degree_mod2(F, loc.apply(coords))
                if (dg - rho_deg) % 2:
                    ok_rho = False
            _check(results, "degree-edge[%s,%s]" % (name, coeff), ok_edge)
            _check(results, "degree-localization[%s,%s]" % (name, coeff),
                   ok_rho)


def _naturality_maps():
    sphere = builtin("sphere-octahedron-reflection")
    torus = builtin("torus-reflection")
    circle_a = builtin("circle-antipodal")
    maps = [
        ("identity-circle", identity_map(builtin("circle-reflection"))),
        ("constant-torus", constant_map(torus)),
        ("constant-free-pair", constant_map(builtin("free-pair"))),
        ("equator-inclusion", fixed_inclusion(sphere)),
        ("torus-axis-inclusion", fixed_inclusion(torus)),
        ("antipodal-self-map",
         make_gmap(circle_a, circle_a, circle_a.involution)),
        ("quarter-rotation",
         make_gmap(circle_a, circle_a, [1, 2, 3, 0])),
    ]
    return maps


def _naturality_checks(results):
    for label, f in _naturality_maps():
        for coeff in ALL_COEFFS:
            ok_edge = True
            ok_rho = True
            for p in range(0, dim(f.source) + 1):
                push_eq = pushforward_hom(f, coeff, p)
                push_ord = ordinary_pushforward_hom(f, coeff, p)
                left = edge_morphism(f.target, coeff, p).compose(push_eq)
                right = push_ord.compose(edge_morphism(f.source, coeff, p))
                if left.matrix != right.matrix:
                    ok_edge = False
                loc_src = localize_homology(f.source, coeff, p)
                loc_tgt = localize_homology(f.target, coeff, p)
                if loc_tgt.compose(push_eq) != \
                        graded_pushforward(f).compose(loc_src):
                    ok_rho = False
            _check(results, "naturality-edge[%s,%s]" % (label, coeff),
                   ok_edge)
            _check(results, "naturality-localization[%s,%s]" % (label, coeff),
                   ok_rho)


def _beta_naturality_checks(results):
    for label, f in [("equator-inclusion",
                      fixed_inclusion(builtin("sphere-octahedron-reflection"))),
                     ("identity-rp2", identity_map(builtin("rp2-trivial")))]:
        for coeff in (COEFF_Z2, COEFF_Z1):
            ok = True
            for n in range(0, dim(f.target) + 1):
                pull = pullback_hom(f, coeff, n)
                beta_tgt = localize_cohomology(f.target, coeff, n)
                beta_src = localize_cohomology(f.source, coeff, n)
                if beta_src.compose(pull) != \
                        graded_pullback(f).compose(beta_tgt):
                    ok = False
            _check(results, "naturality-restriction[%s,%s]" % (label, coeff),
                   ok)


def _fundamental_class_checks(results):
    for name, rings in MANIFOLD_BUILTINS:
        X = builtin(name)
        for ring in rings:
            mu = fundamental_class(X, ring)
            edge = edge_morphism(X, mu.coeff, mu.p)
            img = edge.apply(mu.coords)
            # with the orientation-compatible twist the top edge map is an
            # isomorphism onto the invariants: same isomorphism type on
            # both ends, surjective onto the invariant sublattice
            expected = FGAbelianGroup(1) if ring == "Z" \
                else FGAbelianGroup(0, (2,))
            iso = (edge.source == expected
                   and edge_surjective(X, mu.coeff, mu.p))
            _check(results, "fundamental-class[%s,%s]" % (name, ring),
                   any(img) and iso,
                   "edge image %s, twist %d" % (img, mu.coeff.k))
    # the restriction property: on the reflection sphere the localized
    # fundamental class restricts to the fundamental class of the equator
    X = builtin("sphere-octahedron-reflection")
    mu = fundamental_class(X, "Z")
    img = localize_homology(X, mu.coeff, 2).apply(mu.coords)
    F = fixed_subcomplex(X)
    off = fixed_offsets(F, homology)
    equator_mu = homology(F, COEFF_Z2, 1)
    _check(results, "fundamental-restriction[sphere-octahedron-reflection]",
           img[off[1]:off[2]] == (1,) and equator_mu.ngens == 1,
           "localized class %r" % (tuple(
               (q, img[a:b]) for q, (a, b) in enumerate(zip(off, off[1:]))
               if any(img[a:b])),))
    # pushforward of the equator class into the sphere, recorded exactly
    j = fixed_inclusion(X)
    nu = fundamental_class(F, "Z")
    pushed = pushforward(j, nu)
    _check(results, "represented-class[equator-in-sphere]",
           pushed.coords == (1,),
           "class coordinates %r in %s" % (pushed.coords, pushed.spot()))


def _classifier_checks(results):
    table = enumerate_types(3)
    _check(results, "classifier-count", len(table) == 1834,
           "%d canonical types" % len(table))
    ok_alg = ok_mono = ok_order = ok_swap = True
    for t, out in table:
        if (out.dim_h1_alg == out.dim_h1) != t.orientable:
            ok_alg = False
        if out.is_zgm and not t.is_empty and not out.is_gm:
            ok_mono = False
        log2 = sum(1 if d == 2 else 2 for d in out.brauer.torsion)
        want = 1 if t.is_empty else \
            (2 * t.s - 1 if not t.orientable else 2 * t.s)
        if log2 != want:
            ok_order = False
        swapped = classify(EnriquesType(t.half2, t.half1))
        if swapped != out:
            ok_swap = False
    _check(results, "classifier-alg-iff-orientable", ok_alg)
    _check(results, "classifier-zgm-implies-gm", ok_mono)
    _check(results, "classifier-brauer-order", ok_order)
    _check(results, "classifier-half-swap", ok_swap)


def _e2_periodicity_checks(results):
    # constructing a page runs the periodicity checks internally
    for name in ("point", "circle-reflection", "sphere-octahedron-antipodal",
                 "rp2-trivial"):
        X = builtin(name)
        for coeff in ALL_COEFFS:
            try:
                e2_page(X, coeff)
                _check(results, "e2-periodicity[%s,%s]" % (name, coeff), True)
            except AssertionError as exc:
                _check(results, "e2-periodicity[%s,%s]" % (name, coeff),
                       False, str(exc))


def suite_core():
    results = []
    _point_axiom_checks(results)
    _builtin_checks(results)
    _e2_periodicity_checks(results)
    _negative_degree_localization_checks(results)
    _cap_localization_checks(results)
    _bockstein_compatibility_checks(results)
    _degree_checks(results)
    _naturality_checks(results)
    _beta_naturality_checks(results)
    _fundamental_class_checks(results)
    _classifier_checks(results)
    return results


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------

def suite_exactness():
    results = []
    for name in BUILTIN_NAMES:
        X = builtin(name)
        hi = dim(X) + 1
        runs = [("les-edge[%s,%s]" % (name, coeff), les_edge, coeff)
                for coeff in ALL_COEFFS]
        runs += [("les-coeff[%s,k=%d]" % (name, k), les_coeff, k)
                 for k in (0, 1)]
        for check, les, coefficients in runs:
            # a sequence that is not exact raises ExactnessError
            try:
                _check(results, check, True,
                       "%d nodes" % len(les(X, coefficients, -4, hi)))
            except ExactnessError as exc:
                _check(results, check, False, str(exc))
    return results


# ---------------------------------------------------------------------------
# gm
# ---------------------------------------------------------------------------

def fuzz_complexes(count=100):
    """Deterministic stream of subdivided, vertex-relabeled builtins."""
    rng = random.Random(FUZZ_SEED)
    small = ["point", "free-pair", "circle-antipodal", "circle-reflection"]
    medium = ["sphere-octahedron-antipodal", "sphere-octahedron-reflection",
              "rp2-trivial"]
    large = ["torus-reflection", "torus-free", "klein-bottle-trivial"]
    out = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.55:
            name = rng.choice(small)
            times = rng.choice((0, 1, 1, 2))
        elif roll < 0.9:
            name = rng.choice(medium)
            times = rng.choice((0, 0, 1))
        else:
            name = rng.choice(large)
            times = rng.choice((0, 0, 0, 1))
        X = builtin(name)
        for _ in range(times):
            Y = barycentric_subdivide(X)
            if simplex_count(Y) > 500:
                break
            X = Y
        perm = list(range(X.vertex_count))
        rng.shuffle(perm)
        out.append(("%s/sd%d/#%d" % (name, times, i), relabel(X, perm)))
    return out


def suite_gm():
    results = []
    reports = {}
    for name in BUILTIN_NAMES:
        X = builtin(name)
        try:
            rep = gm_report(X)
        except AssertionError as exc:
            _check(results, "gm-report[%s]" % name, False, str(exc))
            continue
        reports[name] = rep
        _check(results, "gm-bounds[%s]" % name, True,
               "gm1=%s gm2=%s gm3=%s" % (rep.gm1, rep.gm2, rep.gm3))
        _check(results, "gm-decision-matches-bound[%s]" % name,
               rep.is_gm == (rep.gm1[0] == rep.gm1[1]),
               "edge-based %s, bound %s" % (rep.is_gm, rep.gm1))
        _check(results, "zgm-decision-matches-bounds[%s]" % name,
               rep.is_zgm == (rep.gm2[0] == rep.gm2[1]
                              and rep.gm3[0] == rep.gm3[1]))
    golden = {"circle-reflection": True, "torus-reflection": True,
              "sphere-octahedron-antipodal": False}
    for name, want in golden.items():
        _check(results, "gm-golden[%s]" % name,
               reports[name].is_gm == want)
    for label, X in fuzz_complexes():
        try:
            bounds = gm_bounds(X)
            _check(results, "gm-fuzz[%s]" % label, True,
                   "%s" % (bounds,))
        except AssertionError as exc:
            _check(results, "gm-fuzz[%s]" % label, False, str(exc))
    for name in BUILTIN_NAMES + ("circle-reflection+free-pair",):
        X = builtin(name)
        for variant in RHO_VARIANTS:
            try:
                zero, surj = rho_surjectivity_criteria(X, variant)
            except LinAlgError:
                # documented preconditions: connected, nonempty fixed set
                continue
            _check(results, "rho-criteria[%s,%s]" % (name, variant),
                   zero == surj, "zero=%s surjective=%s" % (zero, surj))
    for name in FIXED_POINT_BUILTINS + ("circle-reflection+free-pair",):
        X = builtin(name)
        witness = edge_defect_witness(X)
        surj = coedge_surjective(X, COEFF_Z2, 2)
        ok = (witness is None) == surj
        _check(results, "edge-witness-contract[%s]" % name, ok,
               "witness %r, degree-2 edge surjective %s" % (witness, surj))
    return results


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def suite_duality():
    results = []
    for name, rings in MANIFOLD_BUILTINS:
        X = builtin(name)
        report = poincare_check(X, rings)
        bad = ["%s:i=%d,l=%d" % (e.ring, e.i, e.twist)
               for e in report.entries if not e.equal]
        _check(results, "poincare[%s]" % name, report.ok,
               "twists %s; %d pairs%s"
               % (report.detected_twists, len(report.entries),
                  ("; mismatches " + ",".join(bad)) if bad else ""))
    return results


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

SUITES = {
    "core": suite_core,
    "exactness": suite_exactness,
    "gm": suite_gm,
    "duality": suite_duality,
}


def run_suite(name):
    if name == "all":
        checks = [c for suite in SUITES.values() for c in suite()]
    elif name in SUITES:
        checks = SUITES[name]()
    else:
        raise ValueError("unknown suite %r (choose %s, all)"
                         % (name, ", ".join(SUITES)))
    return {
        "suite": name,
        "passed": sum(1 for c in checks if c.passed),
        "failed": sum(1 for c in checks if not c.passed),
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in checks],
    }
