"""Internal consistency checks raise InternalError explicitly, so they
still fire under python -O, where bare asserts are stripped."""

import ast
import glob
import os
import subprocess
import sys

from equihom.equivariant import ExactnessError
from equihom.intlinalg import InternalError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

FORCED_VIOLATIONS = r"""
import sys
from dataclasses import replace
from equihom import complexes, morse, spectral
from equihom.complexes import (
    COEFF_Z, GComplex, builtin, chain_columns, chain_complex)
from equihom.intlinalg import FGAbelianGroup, InternalError

def raises_internal(fn, match=""):
    try:
        fn()
    except InternalError as exc:
        return match in str(exc)
    return False

X = builtin("circle-reflection")
# an order-three vertex permutation is no involution
rotation = GComplex(3, ((0,), (1,), (2,)), (1, 2, 0))
results = [raises_internal(lambda: chain_complex(rotation, 0)),
           raises_internal(lambda: morse.morse_reduction(rotation))]
# a Morse reduction with pi or sigma' off by a sign: pi iota = -1, and
# iota no longer commutes with the involution
red = morse.morse_reduction(X)
def negated(by_degree):
    return tuple([[(i, -x) for i, x in col] for col in cols]
                 for cols in by_degree)
def check(space, red, **fields):
    return lambda: morse._check_reduction(chain_columns(space),
                                          replace(red, **fields))
results.append(raises_internal(lambda: morse._check_projections(
    chain_columns(X), red, negated(red.projections)), "pi iota"))
# pi replayed from a log whose pivots lost their sign fails the pi check
# on the first read of the projections
results.append(raises_internal(lambda: replace(red, _log=tuple(
    (q, a, -u, fb) for q, a, u, fb in red._log)).projections, "pi"))
# sigma' negated through the reduced columns is still an involution that
# commutes with d', but iota no longer commutes with it
results.append(raises_internal(check(X, red, columns=tuple(
    (bnd, sigma) for (bnd, _), sigma in zip(
        red.columns, negated(sigma for _, sigma in red.columns)))),
    "iota"))
# iota_0 no longer the inclusion of the critical vertices
results.append(raises_internal(check(X, red, lifts=negated(red.lifts)),
                               "iota_0"))
# reduced columns that are no based G-chain complex, on the reduction of
# the antipodal sphere (two cells in each degree, swapped by sigma'):
# sigma' not an involution, d'^2 != 0, a sigma' column with two entries
S = builtin("sphere-octahedron-antipodal")
red_s = morse.morse_reduction(S)
for q, part, entries, match in (
        (1, 1, [(1, -1)], "not an involution"),
        (2, 0, [(0, 1), (1, -1)], "boundary squared"),
        (0, 1, [(1, 1), (0, 1)], "not one signed entry")):
    columns = [list(pair) for pair in red_s.columns]
    columns[q][part] = [entries] + columns[q][part][1:]
    results.append(raises_internal(
        check(S, red_s, columns=tuple(map(tuple, columns))), match))
# every right-hand side of the Galois bound forced to zero
spectral.group_cohomology = lambda module, invol, p: FGAbelianGroup(0)
results.append(raises_internal(lambda: spectral.gm_bounds(X)))
# second-page columns that are not periodic
spectral.group_cohomology = (
    lambda module, invol, p: FGAbelianGroup(0, (2,) * p))
results.append(raises_internal(lambda: spectral.e2_page(X, COEFF_Z)))
# a simplicial map whose chain matrices lost their orientation signs: the
# reflection of the circle sends the edge (1, 2) to -(2, 3)
chain_columns(X)
complexes._perm_sign = lambda seq: 1
flip = complexes.make_gmap(X, X, X.involution)
results.append(raises_internal(lambda: complexes.gmap_chain_columns(flip)))
# the same lost signs on a complex not read before: the simplicial sigma
# no longer commutes with the boundary (the antipodal map of the circle
# sends the edge (1, 2) to -(0, 3))
Y = builtin("circle-antipodal")
results += [raises_internal(fn, "commute") for fn in (
    lambda: chain_complex(Y, 0), lambda: morse.morse_reduction(Y))]
print(sys.flags.optimize, results)
"""


def test_exactness_error_is_internal():
    assert issubclass(ExactnessError, InternalError)
    assert issubclass(InternalError, AssertionError)


def test_forced_violations_raise_under_optimize():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", FORCED_VIOLATIONS],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] + ["[True,"] + ["True,"] * 12 \
        + ["True]"]


def src_nodes():
    """(file name, node) for every AST node of the package's modules."""
    for path in sorted(glob.glob(os.path.join(SRC, "equihom", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            yield os.path.basename(path), node


def test_no_bare_asserts_in_src():
    bare = ["%s:%d" % (name, node.lineno) for name, node in src_nodes()
            if isinstance(node, ast.Assert)]
    assert bare == [], "bare asserts vanish under python -O: %s" % bare


def test_src_imports_only_the_standard_library():
    foreign = []
    for name, node in src_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        foreign += ["%s:%d %s" % (name, node.lineno, module)
                    for module in modules
                    if module.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == [], "imports outside the standard library: %s" % foreign


def test_every_top_level_definition_is_used():
    # no dead code: each module-level def and class, and each method or
    # property of those classes other than a dunder, is named somewhere in
    # the package, as a name, an attribute or an import
    defined, used = [], set()
    for name, node in src_nodes():
        if isinstance(node, ast.Module):
            for d in node.body:
                if isinstance(d, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((name, d.name, d.name))
                if isinstance(d, ast.ClassDef):
                    defined += [(name, "%s.%s" % (d.name, m.name), m.name)
                                for m in d.body
                                if isinstance(m, ast.FunctionDef)
                                and not (m.name.startswith("__")
                                         and m.name.endswith("__"))]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    dead = ["%s:%s" % d[:2] for d in defined if d[2] not in used]
    assert dead == [], "definitions nothing in src/ refers to: %s" % dead


def test_chain_layer_keeps_the_sparse_layout():
    # chains become a matrix only in the staircase (equivariant.py): the
    # chain layer, complexes.py and morse.py, names no IntMatrix
    dense = ["%s:%d" % (name, node.lineno) for name, node in src_nodes()
             if name in ("complexes.py", "morse.py")
             and (isinstance(node, ast.alias) and node.name == "IntMatrix"
                  or isinstance(node, ast.Name) and node.id == "IntMatrix"
                  or isinstance(node, ast.Attribute)
                  and node.attr == "IntMatrix")]
    assert dense == [], "dense matrices in the chain layer: %s" % dense
