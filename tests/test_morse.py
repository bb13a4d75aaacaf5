"""The Morse reduction against the eager elimination it replaces, the
maps built on first read, and a reduction at scale."""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

from equihom import morse
from equihom.complexes import (
    BUILTIN_NAMES,
    COEFF_Z,
    COEFF_Z1,
    COEFF_Z2,
    barycentric_subdivide,
    builtin,
    chain_columns,
    disjoint_union,
    fixed_subcomplex,
    relabel,
    transpose,
)
from equihom.equivariant import eq_cohomology, eq_homology
from equihom.intlinalg import InternalError
from equihom.morse import morse_reduction
from equihom.verify import fuzz_complexes
from test_intlinalg import oracle_complex

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _add_sparse(dst, src, c):
    """dst += c * src on sparse dicts, dropping the entries that cancel."""
    for i, x in src.items():
        y = dst.get(i, 0) + c * x
        if y:
            dst[i] = y
        else:
            del dst[i]


class _EagerElimination:
    """The elimination that keeps, beside the boundary of each live cell
    and its transpose, the column of iota and the row of pi at each live
    cell as dicts over the simplices, and updates them at every
    cancellation."""

    def __init__(self, columns):
        self.faces = [[dict(col) for col in boundary]
                      for boundary, _ in columns]
        self.cofaces = [[{} for _ in boundary] for boundary, _ in columns]
        for q in range(1, len(columns)):
            for b, col in enumerate(self.faces[q]):
                for a, u in col.items():
                    self.cofaces[q - 1][a][b] = u
        self.sigma = [[col[0] for col in sigma] for _, sigma in columns]
        self.lift = [[{c: 1} for c in range(len(boundary))]
                     for boundary, _ in columns]
        self.proj = [[{c: 1} for c in range(len(boundary))]
                     for boundary, _ in columns]

    def cancel(self, q, a, b):
        fb = self.faces[q][b]
        u = fb[a]
        assert u in (1, -1)
        for x, alpha in list(self.cofaces[q - 1][a].items()):
            if x == b:
                continue
            c = -alpha * u
            fx = self.faces[q][x]
            for y, v in fb.items():
                w = fx.get(y, 0) + c * v
                if w:
                    fx[y] = self.cofaces[q - 1][y][x] = w
                else:
                    del fx[y], self.cofaces[q - 1][y][x]
            _add_sparse(self.lift[q][x], self.lift[q][b], c)
        pa = self.proj[q - 1][a]
        for y, v in fb.items():
            if y != a:
                _add_sparse(self.proj[q - 1][y], pa, -u * v)
            del self.cofaces[q - 1][y][b]
        if q + 1 < len(self.faces):
            for z in self.cofaces[q][b]:
                del self.faces[q + 1][z][b]
        if q > 1:
            for y in self.faces[q - 1][a]:
                del self.cofaces[q - 2][y][a]
        for d, c in ((q - 1, a), (q, b)):
            self.faces[d][c] = self.cofaces[d][c] = None
            self.lift[d][c] = self.proj[d][c] = None

    def sweep(self, free):
        found = False
        for q in range(len(self.faces) - 1, 0, -1):
            for b, fb in enumerate(self.faces[q]):
                sb = self.sigma[q][b][0]
                if fb is None or (sb != b) != free:
                    continue
                for a, u in fb.items():
                    if u not in (1, -1) or free and a in self.faces[q][sb]:
                        continue
                    self.cancel(q, a, b)
                    if free:
                        self.cancel(q, self.sigma[q - 1][a][0], sb)
                    found = True
                    break
        return found


def reference_morse_reduction(X):
    """(cells, columns, lifts, projections) of the Morse reduction of X,
    from the same pairing as morse.morse_reduction, with iota and pi
    maintained forward at every cancellation."""
    elim = _EagerElimination(chain_columns(X))
    while elim.sweep(True) | elim.sweep(False):
        pass
    cells = tuple(tuple(c for c, fc in enumerate(faces) if fc is not None)
                  for faces in elim.faces)
    index = [{c: i for i, c in enumerate(level)} for level in cells]
    columns = tuple(
        ([sorted((index[q - 1][a], u) for a, u in elim.faces[q][c].items())
          for c in level],
         [[(index[q][elim.sigma[q][c][0]], elim.sigma[q][c][1])]
          for c in level])
        for q, level in enumerate(cells))
    lifts = tuple([sorted(elim.lift[q][c].items()) for c in level]
                  for q, level in enumerate(cells))
    projections = tuple(
        transpose([sorted(elim.proj[q][c].items()) for c in level],
                  len(elim.faces[q]))
        for q, level in enumerate(cells))
    return cells, columns, lifts, projections


def subdivided(name, times):
    X = builtin(name)
    for _ in range(times):
        X = barycentric_subdivide(X)
    return X


# 77 inputs: every builtin subdivided up to twice (the torus family and
# the Klein bottle up to once), 40 fuzz complexes, and the fixed
# subcomplexes of the builtins subdivided once
LARGE = ("torus-reflection", "torus-free", "klein-bottle-trivial")
CORPUS = (
    [("%s-sd%d" % (name, sd), name, sd) for name in BUILTIN_NAMES
     for sd in range(2 if name in LARGE else 3)]
    + [("fuzz-%d" % i, "fuzz", i) for i in range(40)]
    + [("fixed-%s-sd1" % name, "fixed", name) for name in BUILTIN_NAMES])


def corpus_complex(kind, arg):
    if kind == "fuzz":
        return fuzz_complexes(40)[arg][1]
    if kind == "fixed":
        return fixed_subcomplex(subdivided(arg, 1))
    return subdivided(kind, arg)


def assert_equals_reference(X):
    red = morse_reduction(X)
    cells, columns, lifts, projections = reference_morse_reduction(X)
    assert red.cells == cells
    assert red.columns == columns
    assert red.lifts == lifts
    assert red.projections == projections


@pytest.mark.parametrize("kind, arg", [c[1:] for c in CORPUS],
                         ids=[c[0] for c in CORPUS])
def test_reduction_equals_the_eager_reference(kind, arg):
    assert_equals_reference(corpus_complex(kind, arg))


@pytest.mark.parametrize("seed", range(24))
def test_reduction_equals_the_eager_reference_on_oracle_complexes(seed):
    assert_equals_reference(oracle_complex(seed)[0])


def fresh_complex():
    """A complex that no other test reduces: the subdivided reflection
    torus beside the antipodal circle, with its vertex ids reversed."""
    X = disjoint_union(subdivided("torus-reflection", 1),
                       builtin("circle-antipodal"))
    return relabel(X, range(X.vertex_count - 1, -1, -1))


def test_groups_leave_the_projections_unbuilt():
    X = fresh_complex()
    for coeff in (COEFF_Z2, COEFF_Z, COEFF_Z1):
        for p in range(-2, 3):
            eq_homology(X, coeff, p)
            eq_cohomology(X, coeff, p)
    red = morse_reduction(X)
    assert "projections" not in vars(red)
    # the lifts are built and checked with the reduction
    assert red.lifts and all(len(level) == len(cells)
                             for level, cells in zip(red.lifts, red.cells))


def test_first_read_of_the_projections_runs_the_pi_check(monkeypatch):
    X = builtin("sphere-octahedron-reflection")
    red = morse_reduction(X)
    calls = []
    check = morse._check_projections

    def recording(columns, reduction, projections):
        calls.append(reduction)
        check(columns, reduction, projections)

    monkeypatch.setattr(morse, "_check_projections", recording)
    # a copy has the fields of red and no projections yet
    fresh = replace(red)
    assert calls == []
    projections = fresh.projections
    assert calls == [fresh]
    assert fresh.projections is projections and len(calls) == 1
    assert projections == reference_morse_reduction(X)[3]


def test_a_wrong_log_fails_the_pi_check_on_first_read():
    red = morse_reduction(builtin("circle-reflection"))
    flipped = replace(red, _log=tuple((q, a, -u, fb)
                                      for q, a, u, fb in red._log))
    with pytest.raises(InternalError, match="pi"):
        flipped.projections


SCALE = r"""
from equihom.complexes import COEFF_Z, barycentric_subdivide, builtin
from equihom.complexes import simplex_count
from equihom.equivariant import eq_homology
X = Y = builtin("torus-reflection")
for _ in range(3):
    Y = barycentric_subdivide(Y)
assert simplex_count(Y) == 15552, simplex_count(Y)
for p in range(-2, 3):
    want, got = eq_homology(X, COEFF_Z, p), eq_homology(Y, COEFF_Z, p)
    assert (got.free_rank, got.torsion) == (want.free_rank, want.torsion), p
print("ok")
"""


def test_subdivided_torus_groups_at_scale():
    """torus-reflection subdivided three times (15,552 simplices) has the
    groups of the builtin over Z in degrees -2..2, well inside a minute."""
    proc = subprocess.run([sys.executable, "-c", SCALE],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
