import itertools

import pytest

from equihom.complexes import ComplexFormatError
from equihom.enriques import (
    ALL_COMPONENT_KINDS,
    EnriquesType,
    EnriquesTypeError,
    SPHERE,
    TORUS,
    SurfaceComponent,
    brauer_group,
    classify,
    enumerate_types,
    gm_status,
    h1_dims,
    make_type,
    nonorientable,
    type_from_dict,
)
from equihom.intlinalg import FGAbelianGroup


SPHERE_DOC = {"orientable": True, "genus": 0}


def elem2(n):
    return FGAbelianGroup(0, (2,) * n)


class TestValidation:
    def test_sphere_alone_ok(self):
        t = make_type([SurfaceComponent(True, 0)], [])
        assert t.components == (SPHERE,)

    def test_orientable_genus_two_rejected(self):
        with pytest.raises(EnriquesTypeError, match="^orientable component "
                           "of genus 2: only the sphere and the torus "
                           "occur$"):
            SurfaceComponent(True, 2)

    @pytest.mark.parametrize("orientable, genus, message", [
        (True, -1, "genus must be nonnegative"),
        (False, -1, "genus must be nonnegative"),
        (False, 0, "nonorientable component of genus 0: the genus is "
                   "between 1 and 11"),
        (False, 12, "nonorientable component of genus 12: the genus is "
                    "between 1 and 11"),
    ])
    def test_construction_rejects_genus_out_of_range(self, orientable, genus,
                                                     message):
        with pytest.raises(EnriquesTypeError) as err:
            SurfaceComponent(orientable, genus)
        assert str(err.value) == message

    @pytest.mark.parametrize("orientable, genus, message", [
        (False, 1.5, "genus must be an integer, got 1.5"),
        (False, True, "genus must be an integer, got True"),
        (True, "0", "genus must be an integer, got '0'"),
        (True, True, "genus must be an integer, got True"),
        (1, 0, "orientable must be a boolean, got 1"),
        (None, 1, "orientable must be a boolean, got None"),
    ])
    def test_construction_rejects_wrong_types(self, orientable, genus,
                                              message):
        with pytest.raises(EnriquesTypeError) as err:
            SurfaceComponent(orientable, genus)
        assert str(err.value) == message

    def test_nonorientable_genus_twelve_rejected(self):
        with pytest.raises(EnriquesTypeError):
            make_type([], [SurfaceComponent(False, 12)])

    def test_euler_characteristics(self):
        assert SPHERE.euler_characteristic == 2
        assert TORUS.euler_characteristic == 0
        assert nonorientable(1).euler_characteristic == 1
        assert nonorientable(2).euler_characteristic == 0


class TestH1Dims:
    def test_two_tori_one_half(self):
        t = make_type([TORUS, TORUS], [])
        assert h1_dims(t) == (4, 4)

    def test_nonorientable_drops_one(self):
        t = make_type([nonorientable(3)], [SPHERE])
        assert h1_dims(t) == (3, 2)

    def test_empty(self):
        assert h1_dims(make_type([], [])) == (0, 0)


class TestGMStatus:
    def test_sphere_each_half(self):
        assert gm_status(make_type([SPHERE], [SPHERE])) == (True, False)

    def test_projective_plane_alone(self):
        assert gm_status(make_type([nonorientable(1)], [])) == (True, True)

    def test_klein_bottle_alone(self):
        assert gm_status(make_type([nonorientable(2)], [])) == (True, False)

    def test_two_tori_one_half(self):
        assert gm_status(make_type([TORUS, TORUS], [])) == (False, False)

    def test_empty_flagged(self):
        t = make_type([], [])
        assert gm_status(t) == (False, False)
        out = classify(t)
        assert out.empty_real_part
        assert "note" in out.to_json()


class TestBrauer:
    def test_nonorientable_pair(self):
        t = make_type([nonorientable(3)], [SPHERE])
        assert brauer_group(t) == elem2(3)

    def test_orientable_both_halves(self):
        t = make_type([SPHERE], [SPHERE])
        assert brauer_group(t) == FGAbelianGroup(0, (2, 2, 4))

    def test_orientable_one_half(self):
        t = make_type([TORUS, TORUS], [])
        assert brauer_group(t) == elem2(4)

    def test_empty(self):
        assert brauer_group(make_type([], [])) == elem2(1)


class TestClassify:
    def test_mixed_type_full_output(self):
        t = make_type([nonorientable(3)], [SPHERE])
        out = classify(t)
        assert (out.dim_h1, out.dim_h1_alg) == (3, 2)
        assert out.is_gm and out.is_zgm
        assert out.brauer == elem2(3)

    def test_alg_defect_range(self):
        for t, out in enumerate_types(2):
            assert out.dim_h1_alg in (out.dim_h1, out.dim_h1 - 1)

    def test_brauer_structure(self):
        for t, out in enumerate_types(2):
            assert all(d in (2, 4) for d in out.brauer.torsion)
            assert sum(1 for d in out.brauer.torsion if d == 4) <= 1


def name_keyed_enumeration(max_components):
    """The enumeration as written before types were canonical values:
    every split of every multiset of kinds, deduplicated by a name whose
    rendered halves are ordered by comma count, then text; the (name,
    (half1, half2)) first seen for each name, ordered by size, then
    name."""
    def render(half):
        return "{%s}" % ",".join(str(c) for c in half)

    def rank(rendered):
        return (rendered.count(",") if rendered != "{}" else -1, rendered)

    seen = {}
    for s in range(max_components + 1):
        for s1 in range(s + 1):
            for h1 in itertools.combinations_with_replacement(
                    ALL_COMPONENT_KINDS, s1):
                for h2 in itertools.combinations_with_replacement(
                        ALL_COMPONENT_KINDS, s - s1):
                    name = "%s|%s" % tuple(sorted(
                        (render(h1), render(h2)), key=rank))
                    seen.setdefault(name, (h1, h2))
    return sorted(seen.items(),
                  key=lambda item: (len(item[1][0] + item[1][1]), item[0]))


class TestEnumeration:
    def test_zero_components(self):
        table = enumerate_types(0)
        assert len(table) == 1
        assert table[0][0].is_empty

    def test_one_component(self):
        table = enumerate_types(1)
        # the empty type plus thirteen kinds, halves collapsed by swapping
        assert len(table) == 1 + len(ALL_COMPONENT_KINDS)

    def test_counts_up_to_three(self):
        table = enumerate_types(3)
        by_s = {}
        for t, _ in table:
            by_s[t.s] = by_s.get(t.s, 0) + 1
        # multisets of 13 kinds: 13 for (0|1); 91+91 for s=2; 455+1183 s=3
        assert by_s == {0: 1, 1: 13, 2: 182, 3: 1638}

    def test_deterministic(self):
        a = [(t.canonical_name(), out) for t, out in enumerate_types(2)]
        b = [(t.canonical_name(), out) for t, out in enumerate_types(2)]
        assert a == b

    def test_half_swap_collapsed(self):
        names = [t.canonical_name() for t, _ in enumerate_types(2)]
        assert len(names) == len(set(names))
        t1 = make_type([SPHERE], [TORUS])
        t2 = make_type([TORUS], [SPHERE])
        assert t1.canonical_name() == t2.canonical_name()

    def test_swapped_halves_give_one_value(self):
        for t, _ in enumerate_types(3):
            a, b = t.half1[::-1], t.half2[::-1]
            for u in (make_type(a, b), make_type(b, a)):
                assert u == t and hash(u) == hash(t)
                assert (u.half1, u.half2) == (t.half1, t.half2)
        t1 = make_type([TORUS, SPHERE], [nonorientable(2)])
        t2 = make_type([nonorientable(2)], [SPHERE, TORUS])
        assert t1 == t2 and hash(t1) == hash(t2)
        assert t1.half1 == (nonorientable(2),)

    @pytest.mark.parametrize("bound", range(5))
    def test_matches_name_keyed_enumeration(self, bound):
        want = name_keyed_enumeration(bound)
        got = enumerate_types(bound)
        assert [t.canonical_name() for t, _ in got] == [
            name for name, _ in want]
        for (t, out), (_, (h1, h2)) in zip(got, want):
            assert t == make_type(h1, h2)
            assert out == classify(EnriquesType(h1, h2))

    def test_enumeration_cap(self):
        with pytest.raises(EnriquesTypeError):
            enumerate_types(7)
        with pytest.raises(EnriquesTypeError):
            enumerate_types(-1)

    @pytest.mark.parametrize("bound", [2.5, True, False, "2", None])
    def test_bound_must_be_an_integer(self, bound):
        with pytest.raises(EnriquesTypeError, match="integer"):
            enumerate_types(bound)


class TestTypeJson:
    def test_roundtrip(self):
        t = type_from_dict({
            "half1": [{"orientable": False, "genus": 3}],
            "half2": [{"orientable": True, "genus": 0}],
        })
        assert h1_dims(t) == (3, 2)

    @pytest.mark.parametrize("obj,needle", [
        ([], "top level"),
        ({"half1": []}, "half2"),
        ({"half1": {}, "half2": []}, "half1"),
        ({"half1": [{"orientable": True}], "half2": []}, "genus"),
        ({"half1": [{"orientable": True, "genus": 2}], "half2": []},
         "sphere"),
        ({"half1": [{"orientable": False, "genus": 12}], "half2": []},
         "genus"),
        ({"half1": [], "half2": [], "half3": []}, "half3"),
    ])
    def test_errors_name_fields(self, obj, needle):
        with pytest.raises(ComplexFormatError) as err:
            type_from_dict(obj)
        assert needle in str(err.value)

    @pytest.mark.parametrize("changes,message", [
        ({"half1": None}, "half1: missing field"),
        ({"half2": None}, "half2: missing field"),
        ({"extra": 1}, "extra: unknown field"),
        ({"half1": {"a": 1}}, "half1: expected a list"),
        ({"half2": 3}, "half2: expected a list"),
        ({"half2": [SPHERE_DOC, 3]}, "half2[1]: expected an object"),
        ({"half2": [{"genus": 0}]}, "half2[0].orientable: missing field"),
        ({"half1": [SPHERE_DOC, {"orientable": False}]},
         "half1[1].genus: missing field"),
        ({"half2": [dict(SPHERE_DOC, colour=1)]},
         "half2[0].colour: unknown field"),
        ({"half1": [{"orientable": 1, "genus": 0}]},
         "half1[0].orientable: expected a boolean"),
        ({"half1": [{"orientable": True, "genus": 0.0}]},
         "half1[0].genus: expected an integer"),
        ({"half1": [{"orientable": True, "genus": False}]},
         "half1[0].genus: expected an integer"),
        ({"half2": [{"orientable": False, "genus": "3"}]},
         "half2[0].genus: expected an integer"),
        ({"half1": [{"orientable": True, "genus": 2}]},
         "half1[0]: orientable component of genus 2: only the sphere and "
         "the torus occur"),
        ({"half2": [{"orientable": False, "genus": 0}]},
         "half2[0]: nonorientable component of genus 0: the genus is "
         "between 1 and 11"),
        ({"half2": [{"orientable": False, "genus": 12}]},
         "half2[0]: nonorientable component of genus 12: the genus is "
         "between 1 and 11"),
        ({"half1": [{"orientable": True, "genus": -1}]},
         "half1[0]: genus must be nonnegative"),
    ])
    def test_single_defect_messages(self, changes, message):
        # one defect in an otherwise valid file; None removes the field
        obj = {"half1": [SPHERE_DOC], "half2": []}
        obj.update(changes)
        obj = {k: v for k, v in obj.items() if v is not None}
        with pytest.raises(ComplexFormatError) as err:
            type_from_dict(obj)
        assert str(err.value) == message

    @pytest.mark.parametrize("obj", [[], 5, "x", None])
    def test_top_level_must_be_an_object(self, obj):
        with pytest.raises(ComplexFormatError) as err:
            type_from_dict(obj)
        assert str(err.value) == "top level: expected an object"
