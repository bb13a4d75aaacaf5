"""Closed-form classifier for real Enriques surfaces.

The real part of a real Enriques surface is a disjoint union of closed
surfaces, each a sphere, a torus, or a nonorientable surface of genus at
most 11, distributed over two halves.  From that topological type alone
the classifier computes the mod-2 first homology of the real part and its
algebraic subgroup, the Galois-Maximality statuses, and the Brauer group:

  * dim H_1 drops by exactly one for the algebraic part unless every
    component is orientable;
  * with both halves nonempty the surface is GM, and Z-GM exactly when the
    real part is nonorientable; with one half empty it is GM exactly when
    nonorientable and Z-GM exactly when some component has odd Euler
    characteristic; with empty real part both fail (flagged: this case
    falls outside the hypotheses of the GM statements and is derived from
    the vanishing of the degree-one edge map);
  * the Brauer group is (Z/2)^(2s-1) in the nonorientable case, and in
    the orientable case (Z/2)^(2s-2) + Z/4 or (Z/2)^(2s) according to
    whether both halves are nonempty, with Z/2 for empty real part
    (s = number of components).

Realizability of a type as an actual surface is not checked; the formulas
are total functions on structurally valid types.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import (
    ComplexFormatError,
    _check_object,
    _is_integer,
    read_json,
)
from .intlinalg import FGAbelianGroup


class EnriquesTypeError(ValueError):
    """Structurally invalid surface component or type."""


@dataclass(frozen=True)
class SurfaceComponent:
    """One connected closed surface: orientable of genus 0 or 1 (sphere or
    torus), or nonorientable of genus 1..11 (cross-cap count)."""

    orientable: bool
    genus: int

    def __post_init__(self):
        if not isinstance(self.orientable, bool):
            raise EnriquesTypeError("orientable must be a boolean, got %r"
                                    % (self.orientable,))
        if not _is_integer(self.genus):
            raise EnriquesTypeError("genus must be an integer, got %r"
                                    % (self.genus,))
        if self.genus < 0:
            raise EnriquesTypeError("genus must be nonnegative")
        if self.orientable and self.genus > 1:
            raise EnriquesTypeError(
                "orientable component of genus %d: only the sphere and the "
                "torus occur" % self.genus)
        if not self.orientable and not 1 <= self.genus <= 11:
            raise EnriquesTypeError(
                "nonorientable component of genus %d: the genus is between "
                "1 and 11" % self.genus)

    @property
    def euler_characteristic(self):
        if self.orientable:
            return 2 - 2 * self.genus
        return 2 - self.genus

    @property
    def h1_dim(self):
        return 2 * self.genus if self.orientable else self.genus

    def __str__(self):
        if self.orientable:
            return "S" if self.genus == 0 else "T"
        return "N%d" % self.genus


SPHERE = SurfaceComponent(True, 0)
TORUS = SurfaceComponent(True, 1)


def nonorientable(genus):
    return SurfaceComponent(False, genus)


@dataclass(frozen=True)
class EnriquesType:
    """Topological type of the real part, split into its two halves;
    make_type builds its canonical value."""

    half1: tuple
    half2: tuple

    @property
    def components(self):
        return self.half1 + self.half2

    @property
    def s(self):
        return len(self.components)

    @property
    def is_empty(self):
        return self.s == 0

    @property
    def orientable(self):
        return all(c.orientable for c in self.components)

    def canonical_name(self):
        return "%s|%s" % (_render(self.half1), _render(self.half2))


def _render(half):
    return "{%s}" % ",".join(map(str, half))


def _sorted(components):
    return tuple(sorted(components,
                        key=lambda c: (0 if c.orientable else 1, c.genus)))


def make_type(half1, half2):
    """The canonical value of a type: each half sorted, orientable
    components first, and the halves ordered by size, then by rendered
    name, so that swapping the halves gives the same value."""
    halves = (_sorted(half1), _sorted(half2))
    return EnriquesType(*sorted(halves, key=lambda h: (len(h), _render(h))))


def h1_dims(t):
    """(dim H_1 of the real part mod 2, dim of its algebraic part)."""
    total = sum(c.h1_dim for c in t.components)
    alg = total if t.orientable else total - 1
    return total, alg


def gm_status(t):
    """(is_gm, is_zgm); for the empty real part both are False by the
    degree-one edge map vanishing, flagged separately in the classifier
    output since the case lies outside the statements' hypotheses."""
    if t.is_empty:
        return False, False
    nonor = not t.orientable
    if t.half1 and t.half2:
        return True, nonor
    odd_euler = any(c.euler_characteristic % 2 for c in t.components)
    return nonor, odd_euler


def brauer_group(t):
    s = t.s
    if t.is_empty:
        return FGAbelianGroup(0, (2,))
    if not t.orientable:
        return FGAbelianGroup(0, (2,) * (2 * s - 1))
    if t.half1 and t.half2:
        return FGAbelianGroup(0, (2,) * (2 * s - 2) + (4,))
    return FGAbelianGroup(0, (2,) * (2 * s))


@dataclass(frozen=True)
class ClassifierOutput:
    dim_h1: int
    dim_h1_alg: int
    is_gm: bool
    is_zgm: bool
    empty_real_part: bool
    brauer: FGAbelianGroup

    def to_json(self):
        out = {
            "dim_h1": self.dim_h1,
            "dim_h1_alg": self.dim_h1_alg,
            "is_gm": self.is_gm,
            "is_zgm": self.is_zgm,
            "brauer": self.brauer.to_json(),
            "rules": {
                "dim_h1_alg": "drop-by-one unless orientable",
                "gm": ("empty-real-part convention" if self.empty_real_part
                       else "half-split rule"),
                "brauer": "two-primary closed form in s and orientability",
            },
        }
        if self.empty_real_part:
            out["note"] = ("empty real part: GM flags fall outside the "
                           "classification hypotheses and are derived "
                           "from the vanishing degree-one edge map")
        return out


def classify(t):
    dim_h1, dim_h1_alg = h1_dims(t)
    is_gm, is_zgm = gm_status(t)
    return ClassifierOutput(dim_h1, dim_h1_alg, is_gm, is_zgm,
                            t.is_empty, brauer_group(t))


ALL_COMPONENT_KINDS = (SPHERE, TORUS) + tuple(
    nonorientable(g) for g in range(1, 12))

# enumeration cap: the table grows combinatorially in the component count
MAX_ENUMERATION_COMPONENTS = 6


def enumerate_types(max_components):
    """All valid types with at most the given number of components, as
    distinct canonical values (so up to reordering within halves and
    swapping the halves), sorted by component count, then name, each with
    its classifier output."""
    if not _is_integer(max_components):
        raise EnriquesTypeError("component bound must be an integer, got %r"
                                % (max_components,))
    if max_components < 0:
        raise EnriquesTypeError("component bound must be nonnegative")
    if max_components > MAX_ENUMERATION_COMPONENTS:
        raise EnriquesTypeError(
            "component bound %d exceeds the enumeration cap %d"
            % (max_components, MAX_ENUMERATION_COMPONENTS))
    # a canonical type has the smaller half first
    pick = itertools.combinations_with_replacement
    types = {make_type(h1, h2)
             for s in range(max_components + 1) for s1 in range(s // 2 + 1)
             for h1 in pick(ALL_COMPONENT_KINDS, s1)
             for h2 in pick(ALL_COMPONENT_KINDS, s - s1)}
    return [(t, classify(t))
            for t in sorted(types, key=lambda t: (t.s, t.canonical_name()))]


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _component_from_dict(obj, where):
    _check_object(obj, ("orientable", "genus"), where)
    if not isinstance(obj["orientable"], bool):
        raise ComplexFormatError("%s.orientable: expected a boolean" % where)
    if not _is_integer(obj["genus"]):
        raise ComplexFormatError("%s.genus: expected an integer" % where)
    try:
        return SurfaceComponent(obj["orientable"], obj["genus"])
    except EnriquesTypeError as exc:
        raise ComplexFormatError("%s: %s" % (where, exc)) from None


def type_from_dict(obj):
    _check_object(obj, ("half1", "half2"))
    for key in ("half1", "half2"):
        if not isinstance(obj[key], list):
            raise ComplexFormatError("%s: expected a list" % key)
    halves = [[_component_from_dict(c, "%s[%d]" % (key, i))
               for i, c in enumerate(obj[key])] for key in ("half1", "half2")]
    return make_type(*halves)


def load_type(path):
    return type_from_dict(read_json(path))
