import itertools
import json
import random
import re
import time

import pytest

from equihom import complexes
from equihom.complexes import (
    BUILTIN_EULER,
    BUILTIN_FIXED_COUNTS,
    BUILTIN_NAMES,
    COEFF_Z,
    COEFF_Z1,
    COEFF_Z2,
    Coeff,
    ComplexError,
    ComplexFormatError,
    GComplex,
    barycentric_subdivide,
    builtin,
    chain_complex,
    complex_from_dict,
    connected_components,
    constant_map,
    euler_characteristic,
    fixed_inclusion,
    fixed_subcomplex,
    gmap_chain_columns,
    identity_map,
    load_complex,
    make_complex,
    make_gmap,
    relabel,
    simplex_count,
    simplices_by_dim,
    validate,
)
from equihom.intlinalg import IntMatrix, homology_at
from equihom.verify import fuzz_complexes

from chain_matrices import boundary, dense

ALL_COEFFS = [COEFF_Z2, COEFF_Z, COEFF_Z1]


def ordinary_homology(X, coeff, q):
    cc = chain_complex(X, coeff.k)
    return homology_at(boundary(cc, q + 1), boundary(cc, q), coeff.mod)


class TestValidate:
    def test_point_ok(self):
        assert validate(builtin("point")) is None

    def test_swapped_edge_breaks_regularity(self):
        X = make_complex(2, [(0, 1)], [1, 0])
        message = validate(X)
        assert message is not None and "regularity" in message

    def test_half_turn_square_ok(self):
        X = builtin("circle-antipodal")
        assert validate(X) is None
        # direct check of both conditions on all 8 simplices
        for level in simplices_by_dim(X):
            for s in level:
                img = tuple(sorted(X.involution[v] for v in s))
                assert img in level
                if set(img) == set(s):
                    assert all(X.involution[v] == v for v in s)

    def test_path_with_middle_swap_violates_regularity(self):
        X = make_complex(4, [(0, 1), (1, 2), (2, 3)], [3, 2, 1, 0])
        message = validate(X)
        assert message is not None and "[1, 2]" in message

    def test_path_reflection_ok(self):
        # path 0-1-2 reflected about the middle vertex
        Y = make_complex(3, [(0, 1), (1, 2)], [2, 1, 0])
        assert validate(Y) is None

    def test_wrong_order_involution(self):
        X = GComplexLike = make_complex(3, [(0, 1), (1, 2), (0, 2)], [1, 2, 0])
        message = validate(GComplexLike)
        assert message is not None and "order two" in message


class TestSubdivision:
    @pytest.mark.parametrize("X, message", [
        (GComplex(3, ((0,), (1,), (2,)), (1, 2, 0)),
         "involution is not of order two at vertex 0"),
        (make_complex(3, [(0, 1), (2,)], [2, 1, 0]),
         "involution is not simplicial: image of [0, 1] missing"),
    ])
    def test_refuses_what_validate_refuses(self, X, message):
        # validate is the one check of the involution; only a regularity
        # violation, which the subdivision mends, passes
        assert validate(X) == message
        with pytest.raises(ComplexError) as err:
            barycentric_subdivide(X)
        assert str(err.value) == message

    def test_swapped_edge_becomes_regular(self):
        X = make_complex(2, [(0, 1)], [1, 0])
        Y = barycentric_subdivide(X)
        assert validate(Y) is None
        assert Y.vertex_count == 3
        fixed = fixed_subcomplex(Y)
        assert fixed.vertex_count == 1

    def test_point(self):
        Y = barycentric_subdivide(builtin("point"))
        assert Y.vertex_count == 1
        assert validate(Y) is None

    def test_reflected_triangle(self):
        X = make_complex(3, [(0, 1, 2)], [1, 0, 2])
        Y = barycentric_subdivide(X)
        assert validate(Y) is None
        assert len(Y.maximal_simplices) == 6
        assert Y.vertex_count == 7
        fixed = fixed_subcomplex(Y)
        # the median edge, subdivided: 3 vertices, 2 edges
        assert tuple(len(l) for l in simplices_by_dim(fixed)) == (3, 2)

    @pytest.mark.parametrize("name", ["circle-reflection", "rp2-trivial",
                                      "sphere-octahedron-antipodal"])
    def test_homology_invariant_under_subdivision(self, name):
        X = builtin(name)
        Y = barycentric_subdivide(X)
        assert validate(Y) is None
        for q in range(3):
            assert ordinary_homology(X, COEFF_Z, q) == \
                ordinary_homology(Y, COEFF_Z, q)

    def test_fixed_set_of_subdivision_matches(self):
        for name in ["circle-reflection", "sphere-octahedron-reflection",
                     "torus-reflection"]:
            X = builtin(name)
            Y = barycentric_subdivide(X)
            for q in range(2):
                assert ordinary_homology(fixed_subcomplex(X), COEFF_Z2, q) \
                    == ordinary_homology(fixed_subcomplex(Y), COEFF_Z2, q)


def assert_subdivision_is_canonical(X):
    # barycentric_subdivide builds its complex directly; make_complex of
    # its output, the reference, sorts, deduplicates and drops faces, and
    # must give the same complex back
    Y = barycentric_subdivide(X)
    simplices = list(Y.maximal_simplices)
    random.Random(len(simplices)).shuffle(simplices)
    assert make_complex(Y.vertex_count, simplices, Y.involution) == Y


class TestSubdivisionIsCanonical:
    @pytest.mark.parametrize("sd", [0, 1, 2])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins(self, name, sd):
        X = builtin(name)
        for _ in range(sd):
            X = barycentric_subdivide(X)
        assert_subdivision_is_canonical(X)

    def test_fuzz_complexes(self):
        for _, X in fuzz_complexes(30):
            assert_subdivision_is_canonical(X)

    def test_oracle_complexes(self):
        from test_intlinalg import oracle_complex
        for seed in range(24):
            assert_subdivision_is_canonical(oracle_complex(seed)[0])

    @pytest.mark.parametrize("name", [
        "circle-reflection+free-pair", "point+circle-reflection",
        "sphere-octahedron-reflection+circle-antipodal+point"])
    def test_non_pure_unions(self, name):
        assert_subdivision_is_canonical(builtin(name))

    def test_non_pure_complex(self):
        # a triangle with a dangling edge and an isolated swapped pair
        assert_subdivision_is_canonical(make_complex(
            6, [(0, 1, 2), (2, 3), (4,), (5,)], [0, 1, 2, 3, 5, 4]))


def pairwise_maximal(simplices):
    """The maximal simplices of a face list by testing every simplex
    against every longer one kept: the quadratic reference filter."""
    cleaned = sorted({tuple(sorted(s)) for s in simplices},
                     key=lambda s: (-len(s), s))
    maximal = []
    for s in cleaned:
        if not any(set(s) < set(t) for t in maximal):
            maximal.append(s)
    return tuple(sorted(maximal, key=lambda s: (len(s), s)))


def closure_maximal(simplices):
    """The maximal simplices of a face list and the size of its face
    closure, by closing faces: longest first, a simplex is maximal unless
    it is a face of one kept before it, and every face of a kept simplex
    enters the closure.  The reference for the per-size filter of
    make_complex, which builds no closure."""
    closure, maximal = set(), []
    for s in sorted({tuple(sorted(s)) for s in simplices},
                    key=lambda s: (-len(s), s)):
        if s not in closure:
            maximal.append(s)
            for q in range(1, len(s) + 1):
                closure.update(itertools.combinations(s, q))
    return tuple(sorted(maximal, key=lambda s: (len(s), s))), len(closure)


def mixed_faces(rng, n):
    """Simplices of mixed sizes on n vertices, faces of them and
    duplicates of both, shuffled, covering every vertex."""
    faces = [tuple(rng.sample(range(n), rng.randint(1, min(n, 6))))
             for _ in range(rng.randint(1, 10))]
    faces += [tuple(rng.sample(s, rng.randint(1, len(s))))
              for s in rng.choices(faces, k=rng.randint(0, 12))]
    faces += rng.choices(faces, k=rng.randint(0, 6))
    faces += [(v,) for v in range(n)]
    rng.shuffle(faces)
    return [list(s) for s in faces]


class TestMaximalFaces:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_closure_filter(self, seed):
        rng = random.Random(10_000 + seed)
        n = rng.randint(1, 10)
        faces = mixed_faces(rng, n)
        X = make_complex(n, faces, list(range(n)))
        maximal, closure = closure_maximal(faces)
        assert X.maximal_simplices == maximal
        assert simplex_count(X) == closure

    def test_matches_the_closure_filter_at_the_cap(self, monkeypatch):
        # a mixed input no other test builds, so that no cached face
        # closure answers for it: it is refused with the cap one below its
        # closure size and loads with the cap at that size
        faces = mixed_faces(random.Random(7), 12)
        maximal, closure = closure_maximal(faces)
        obj = {"vertices": 12, "simplices": faces, "involution": list(
            range(12))}
        monkeypatch.setattr(complexes, "MAX_SIMPLICES", closure - 1)
        with pytest.raises(ComplexFormatError) as err:
            complex_from_dict(obj)
        assert re.fullmatch(r"simplices: the face closure has at least "
                            r"\d+ simplices, past the cap %d"
                            % (closure - 1), str(err.value))
        monkeypatch.setattr(complexes, "MAX_SIMPLICES", closure)
        X = complex_from_dict(obj)
        assert X.maximal_simplices == maximal
        assert simplex_count(X) == closure

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_pairwise_filter(self, seed):
        # random simplices, faces of them and duplicates of both, shuffled
        # and with their vertices in either order
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        faces = [tuple(rng.sample(range(n), rng.randint(1, min(n, 5))))
                 for _ in range(rng.randint(1, 12))]
        faces += [tuple(rng.sample(s, rng.randint(1, len(s))))
                  for s in rng.choices(faces, k=rng.randint(0, 10))]
        faces += rng.choices(faces, k=rng.randint(0, 5))
        # every vertex in some simplex, as make_complex requires
        faces += [(v,) for v in range(n)]
        rng.shuffle(faces)
        faces = [list(reversed(s)) if rng.random() < 0.5 else list(s)
                 for s in faces]
        X = make_complex(n, faces, list(range(n)))
        assert X.maximal_simplices == pairwise_maximal(faces)

    def test_subdivision_keeps_the_facets(self):
        X = barycentric_subdivide(builtin("torus-reflection"))
        assert X.maximal_simplices == pairwise_maximal(X.maximal_simplices)


class TestRelabel:
    def test_conjugates_the_involution(self):
        X = builtin("circle-reflection")
        Y = relabel(X, [3, 2, 1, 0])
        assert Y.involution == (2, 1, 0, 3)
        assert relabel(Y, [3, 2, 1, 0]) == X

    @pytest.mark.parametrize("perm", [
        [0.0, 1, 2, 3], [True, False, 2, 3], ["0", 1, 2, 3], [0, 1, 2],
        [0, 0, 2, 3], [1, 2, 3, 4]])
    def test_refuses_what_is_no_permutation(self, perm):
        with pytest.raises(ComplexError) as err:
            relabel(builtin("circle-reflection"), perm)
        assert str(err.value) == "relabeling is not a permutation"


class TestFixedSubcomplex:
    def test_identity_involution(self):
        X = builtin("rp2-trivial")
        F = fixed_subcomplex(X)
        assert simplices_by_dim(F) == simplices_by_dim(X)

    def test_free_action_empty(self):
        F = fixed_subcomplex(builtin("circle-antipodal"))
        assert F.vertex_count == 0

    def test_octahedron_reflection_equator(self):
        X = builtin("sphere-octahedron-reflection")
        F = fixed_subcomplex(X)
        counts = tuple(len(l) for l in simplices_by_dim(F))
        assert counts == (4, 4)
        assert ordinary_homology(F, COEFF_Z, 1) == \
            ordinary_homology(builtin("circle-reflection"), COEFF_Z, 1)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_documented_fixed_sets(self, name):
        F = fixed_subcomplex(builtin(name))
        counts = tuple(len(l) for l in simplices_by_dim(F))
        assert counts == BUILTIN_FIXED_COUNTS[name]


class TestChainComplex:
    def test_point_over_z(self):
        cc = chain_complex(builtin("point"), 0)
        assert dense(cc.sigma(0), 1) == IntMatrix.from_rows([[1]])

    def test_point_twisted(self):
        cc = chain_complex(builtin("point"), 1)
        assert dense(cc.sigma(0), 1) == IntMatrix.from_rows([[-1]])

    def test_square_half_turn_signs(self):
        X = builtin("circle-antipodal")
        cc = chain_complex(X, 0)
        sg = dense(cc.sigma(1), 4)
        # edges in sorted order: (0,1),(0,3),(1,2),(2,3)
        assert simplices_by_dim(X)[1] == ((0, 1), (0, 3), (1, 2), (2, 3))
        # (0,1)->(2,3)+, (0,3)->(1,2)-, (1,2)->(0,3)-, (2,3)->(0,1)+
        assert sg == IntMatrix.from_rows([
            [0, 0, 0, 1],
            [0, 0, -1, 0],
            [0, -1, 0, 0],
            [1, 0, 0, 0],
        ])

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("coeff", ALL_COEFFS, ids=str)
    def test_invariants_all_builtins(self, name, coeff):
        # construction asserts boundary^2 = 0, sigma involutive, and
        # commutation; reaching here means they hold
        chain_complex(builtin(name), coeff.k)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_euler_characteristics(self, name):
        assert euler_characteristic(builtin(name)) == BUILTIN_EULER[name]


EXPECTED_Z_HOMOLOGY = {
    # name -> tuple of groups (free_rank, torsion) per degree
    "point": [(1, ()), (0, ()), (0, ())],
    "free-pair": [(2, ()), (0, ()), (0, ())],
    "circle-antipodal": [(1, ()), (1, ()), (0, ())],
    "circle-reflection": [(1, ()), (1, ()), (0, ())],
    "sphere-octahedron-antipodal": [(1, ()), (0, ()), (1, ())],
    "sphere-octahedron-reflection": [(1, ()), (0, ()), (1, ())],
    "torus-reflection": [(1, ()), (2, ()), (1, ())],
    "torus-free": [(1, ()), (2, ()), (1, ())],
    "klein-bottle-trivial": [(1, ()), (1, (2,)), (0, ())],
    "rp2-trivial": [(1, ()), (0, (2,)), (0, ())],
}


class TestBuiltins:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_valid(self, name):
        assert validate(builtin(name)) is None

    @pytest.mark.parametrize("name", sorted(EXPECTED_Z_HOMOLOGY))
    def test_integral_homology(self, name):
        X = builtin(name)
        for q, (rank, torsion) in enumerate(EXPECTED_Z_HOMOLOGY[name]):
            grp = ordinary_homology(X, COEFF_Z, q)
            assert (grp.free_rank, grp.torsion) == (rank, torsion), \
                "H_%d(%s)" % (q, name)

    def test_unknown_name(self):
        with pytest.raises(ComplexError):
            builtin("dodecahedron")

    def test_disjoint_union_builtin(self):
        X = builtin("circle-reflection+free-pair")
        assert X.vertex_count == 6
        assert connected_components(X) == 3
        F = fixed_subcomplex(X)
        assert F.vertex_count == 2

    def test_components(self):
        assert connected_components(builtin("torus-reflection")) == 1
        assert connected_components(builtin("free-pair")) == 2


class TestGMap:
    def test_identity_and_constant(self):
        X = builtin("circle-reflection")
        identity_map(X)
        constant_map(X)

    def test_equivariance_enforced(self):
        X = builtin("circle-reflection")
        Y = builtin("free-pair")
        with pytest.raises(ComplexError):
            make_gmap(Y, Y, [0, 0])  # collapses the swapped pair: 0 != sigma(0)=1

    @pytest.mark.parametrize("source,target,vertex_map", [
        ("point", "circle-reflection", [False]),
        ("point", "circle-reflection", [True]),
        ("point", "circle-reflection", ["0"]),
        ("point", "circle-reflection", [4]),
        ("circle-reflection", "circle-reflection", [0.0, 1.0, 2.0, 3.0]),
    ])
    def test_vertex_ids_checked(self, source, target, vertex_map):
        with pytest.raises(ComplexError, match="not a vertex of the target"):
            make_gmap(builtin(source), builtin(target), vertex_map)

    def test_image_past_the_target_dimension_is_missing(self):
        # an edge sent onto two isolated points: its image would lie in
        # dimension 1, which the target does not have
        edge = make_complex(2, [(0, 1)], [0, 1])
        points = make_complex(2, [(0,), (1,)], [0, 1])
        with pytest.raises(ComplexError) as err:
            make_gmap(edge, points, [0, 1])
        assert str(err.value) == ("map is not simplicial: image of [0, 1] "
                                  "missing")

    def test_fixed_inclusion_chain_maps(self):
        X = builtin("sphere-octahedron-reflection")
        inc = fixed_inclusion(X)
        src = chain_complex(fixed_subcomplex(X), 0)
        tgt = chain_complex(X, 0)
        mats = [dense(cols, tgt.rank(q))
                for q, cols in enumerate(gmap_chain_columns(inc))]
        for q in range(1, len(src.columns)):
            # commutes with the boundary
            assert boundary(tgt, q) @ mats[q] == mats[q - 1] @ boundary(src, q)

    def test_collapse_contributes_zero(self):
        X = builtin("circle-reflection")
        cols = gmap_chain_columns(constant_map(X))
        assert not any(cols[1])
        assert any(cols[0])


class TestJsonInterface:
    def test_roundtrip_ok(self):
        X = complex_from_dict({
            "vertices": 4,
            "simplices": [[0, 1], [1, 2], [2, 3], [0, 3]],
            "involution": [0, 3, 2, 1],
        })
        assert X == builtin("circle-reflection")

    def test_auto_subdivision_recorded(self):
        X = complex_from_dict({
            "vertices": 2,
            "simplices": [[0, 1]],
            "involution": [1, 0],
        })
        assert X.auto_subdivided
        assert validate(X) is None

    def test_missing_image_is_named_past_a_regularity_violation(self):
        # [0, 1] is fixed setwise but not vertexwise, which a subdivision
        # mends; the image [0, 2] of the later [1, 2] is missing, which
        # none mends, so the file is refused naming [1, 2]
        with pytest.raises(ComplexFormatError) as err:
            complex_from_dict({"vertices": 4,
                               "simplices": [[0, 1], [1, 2], [3]],
                               "involution": [1, 0, 2, 3]})
        assert str(err.value) == ("involution is not simplicial: image of "
                                  "[1, 2] missing")

    @pytest.mark.parametrize("obj,needle", [
        ({"simplices": [], "involution": []}, "vertices"),
        ({"vertices": 1, "involution": [0]}, "simplices"),
        ({"vertices": 1, "simplices": [[0]]}, "involution"),
        ({"vertices": 1, "simplices": [[0]], "involution": [0, 1]},
         "involution"),
        ({"vertices": 2, "simplices": [[0, 0]], "involution": [0, 1]},
         "simplices[0]"),
        ({"vertices": 2, "simplices": [[0, 5]], "involution": [0, 1]},
         "simplices[0]"),
        ({"vertices": 1, "simplices": [[0]], "involution": [0], "junk": 1},
         "junk"),
        ({"vertices": 2, "simplices": [[0]], "involution": [0, 1]},
         "vertex 1"),
    ])
    def test_field_precise_errors(self, obj, needle):
        with pytest.raises(ComplexFormatError) as err:
            complex_from_dict(obj)
        assert needle in str(err.value)

    @pytest.mark.parametrize("changes,message", [
        ({"vertices": None}, "vertices: missing field"),
        ({"simplices": None}, "simplices: missing field"),
        ({"involution": None}, "involution: missing field"),
        ({"extra": 1}, "extra: unknown field"),
        ({"vertices": 2.0}, "vertices: expected an integer"),
        ({"vertices": True}, "vertices: expected an integer"),
        ({"vertices": "2"}, "vertices: expected an integer"),
        ({"simplices": {"a": 1}}, "simplices: expected a list of lists"),
        ({"simplices": [5]}, "simplices[0]: expected a list"),
        ({"involution": 3}, "involution: expected a list"),
        ({"involution": [1]},
         "involution: expected a list of length 2, got 1"),
        ({"involution": [1, 2]}, "involution[1]: 2 is not a vertex id"),
        ({"involution": [True, 0]},
         "involution[0]: True is not a vertex id"),
        ({"involution": [0, 0]}, "involution: not a permutation"),
        ({"simplices": [[0, 2]]}, "simplices[0]: 2 is not a vertex id"),
        ({"simplices": [[0, 1.0]]}, "simplices[0]: 1.0 is not a vertex id"),
        ({"simplices": [[0, 1], []]}, "simplices[1]: empty simplex"),
        ({"simplices": [[0, 1, 1]]},
         "simplices[0]: repeated vertex in [0, 1, 1]"),
        ({"vertices": 3, "involution": [1, 0, 2]},
         "simplices: vertex 2 appears in no simplex"),
        ({"vertices": 3, "simplices": [[0, 1], [2]], "involution": [2, 1, 0]},
         "involution is not simplicial: image of [0, 1] missing"),
        ({"vertices": 3, "simplices": [[0], [1], [2]],
          "involution": [1, 2, 0]},
         "involution is not of order two at vertex 0"),
    ])
    def test_single_defect_messages(self, changes, message):
        # one defect in an otherwise valid file; None removes the field
        obj = {"vertices": 2, "simplices": [[0, 1]], "involution": [1, 0]}
        obj.update(changes)
        obj = {k: v for k, v in obj.items() if v is not None}
        with pytest.raises(ComplexFormatError) as err:
            complex_from_dict(obj)
        assert str(err.value) == message

    @pytest.mark.parametrize("obj", [[], 5, "x", None])
    def test_top_level_must_be_an_object(self, obj):
        with pytest.raises(ComplexFormatError) as err:
            complex_from_dict(obj)
        assert str(err.value) == "top level: expected an object"

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": 1,\n  "simplices": ???}')
        from equihom.complexes import load_complex
        with pytest.raises(ComplexFormatError) as err:
            load_complex(str(path))
        assert "line 2" in str(err.value)


def simplex_file(n, swap=False):
    """One simplex on n vertices, its involution trivial or swapping
    vertices 0 and 1 (which breaks regularity)."""
    involution = list(range(n))
    if swap:
        involution[:2] = [1, 0]
    return {"vertices": n, "simplices": [list(range(n))],
            "involution": involution}


class TestSizeCap:
    @pytest.mark.parametrize("n, swap, message", [
        (30, False, "simplices: the face closure has at least 1073741823 "
                    "simplices, past the cap 1000000"),
        (8, True, "regularity repair: the subdivision would have 1091669 "
                  "simplices, past the cap 1000000"),
    ])
    def test_huge_inputs_fail_fast(self, n, swap, message):
        start = time.process_time()
        with pytest.raises(ComplexFormatError) as err:
            complex_from_dict(simplex_file(n, swap))
        assert time.process_time() - start < 1
        assert str(err.value) == message

    def test_huge_face_of_a_huge_simplex_fails_fast(self):
        # deciding that the 15-simplex is a face of the 30-simplex would
        # list C(30, 15) faces; the cap refuses first
        start = time.process_time()
        with pytest.raises(ComplexFormatError) as err:
            make_complex(30, [range(30), range(15)], range(30))
        assert time.process_time() - start < 1
        assert str(err.value) == ("simplices: the face closure has at least "
                                  "1073741823 simplices, past the cap "
                                  "1000000")

    def test_irregular_seven_simplex_loads(self):
        X = complex_from_dict(simplex_file(7, swap=True))
        assert X.auto_subdivided and simplex_count(X) == 94585

    def test_torus_sd3_file_loads(self, tmp_path):
        X = builtin("torus-reflection")
        for _ in range(3):
            X = barycentric_subdivide(X)
        path = tmp_path / "torus-sd3.json"
        path.write_text(json.dumps({
            "vertices": X.vertex_count,
            "simplices": [list(s) for s in X.maximal_simplices],
            "involution": list(X.involution)}))
        assert load_complex(str(path)) == X
        assert simplex_count(X) == 15552

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_subdivision_size_is_exact(self, name):
        X = builtin(name)
        assert complexes._subdivision_size(X) == simplex_count(
            barycentric_subdivide(X))

    def test_cap_boundaries(self, monkeypatch):
        # a triangle has 7 faces; the repair of the swapped edge has 5
        monkeypatch.setattr(complexes, "MAX_SIMPLICES", 7)
        complex_from_dict(simplex_file(3))
        with pytest.raises(ComplexFormatError, match="at least 8 "):
            complex_from_dict({"vertices": 4, "simplices": [[0, 1, 2], [3]],
                               "involution": [0, 1, 2, 3]})
        monkeypatch.setattr(complexes, "MAX_SIMPLICES", 5)
        assert complex_from_dict(simplex_file(2, swap=True)).auto_subdivided
        monkeypatch.setattr(complexes, "MAX_SIMPLICES", 4)
        with pytest.raises(ComplexFormatError, match="would have 5 "):
            complex_from_dict(simplex_file(2, swap=True))


class TestCoeff:
    def test_three_systems(self):
        assert len({COEFF_Z2, COEFF_Z, COEFF_Z1}) == 3
        assert Coeff("Z", 2) == COEFF_Z
        assert Coeff("Z", 3) == COEFF_Z1
        assert Coeff("Z2", 1) == COEFF_Z2

    def test_shift(self):
        assert COEFF_Z.shift() == COEFF_Z1
        assert COEFF_Z1.shift() == COEFF_Z
        assert COEFF_Z2.shift() == COEFF_Z2

    @pytest.mark.parametrize("ring", ["Z", "Z2"])
    @pytest.mark.parametrize("k", ["a", 1.5, 1.0, True, None])
    def test_twist_must_be_an_integer(self, ring, k):
        # checked before Z/2 drops the twist
        with pytest.raises(ComplexError) as err:
            Coeff(ring, k)
        assert str(err.value) == "twist must be an integer, got %r" % (k,)
