"""The benchmark's span tracer (perfbench/tracer.py) wraps equihom's
functions and methods by name.  This runs it on a small computation, so a
rename in the package fails here instead of in a traced benchmark run."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a fresh process, so the memo caches are cold and every layer is reached
TRACED_RUN = r"""
import importlib.util
import json
import sys

import equihom
import equihom.cli  # the tracer also wraps cli._emit and verify.suite_*
from equihom import equivariant, spectral
from equihom.complexes import (
    COEFF_Z, COEFF_Z2, builtin, fixed_inclusion, identity_map)

spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install(equihom)
try:
    X = builtin("circle-reflection")
    equivariant.eq_homology(X, COEFF_Z2, 0)
    equivariant.eq_cohomology(X, COEFF_Z2, 1)
    equivariant.edge_morphism(X, COEFF_Z2, 0)  # solves and reduces
    equivariant.les_edge(X, COEFF_Z2, -1, 1)  # exactness: lattice tests
    equivariant.cap_with_eta(equivariant.fundamental_class(X, "Z2"))
    equivariant.equivariant_degree(
        equivariant.class_from_coords(X, COEFF_Z2, 0, (1, 0)))
    equivariant.represented_class(
        fixed_inclusion(builtin("sphere-octahedron-reflection")), "Z2")
    equivariant.localize_homology(X, COEFF_Z2, 1)  # calls pushforward_hom
    equivariant.pushforward_hom(identity_map(X), COEFF_Z2, 0)
    # Z/2 is worked over F2; Smith forms and integral kernels come from Z
    equivariant.les_edge(X, COEFF_Z, -1, 1)
    spectral.e2_page(X, COEFF_Z2)  # group cohomology
finally:
    tracer.uninstall()
print(json.dumps({"metrics": tracer.metrics(),
                  "caches": tracer.cache_snapshot()}))
"""


def test_tracer_wraps_the_package():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN,
         os.path.join(ROOT, "perfbench", "tracer.py")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    metrics = out["metrics"]
    # solve_vector and reduce are wrapped in their class __dict__s
    for key in ("equivariant.total_diff_calls", "intlinalg.snf_calls",
                "intlinalg.subquotient_calls", "intlinalg.solve_columns",
                "intlinalg.reduce_calls", "intlinalg.induced_hom_calls",
                "equivariant.maps_calls",
                "intlinalg.lattice_calls", "equivariant.les_calls",
                "equivariant.localize_calls"):
        assert metrics[key] > 0, key
    # classes are cycles of the reduced staircase, so nothing builds the
    # simplicial chain complex
    assert metrics["complexes.chain_complex_calls"] == 0
    # the exact kernel's memos and those of maps, exactness and group
    # cohomology are in the snapshot every span file holds; the solver
    # memo wraps the class, so it is listed under its name
    for memo in ("intlinalg._subquotient", "intlinalg.LinearSolver",
                 "intlinalg._induced_hom", "intlinalg.exact_at",
                 "equivariant.group_cohomology"):
        assert out["caches"][memo]["misses"] > 0, memo
