"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of equihom from outside the
package: each function is replaced in every module that holds it by name
(`homology_at` in `equivariant` as well as in `intlinalg`) and in
module-level dispatch tables such as `verify.SUITES`.  Every wrapped call
records a span (layer, start, end, parent) in memory; the spans are
written out when the run ends.  A layer's self time is the time its spans
cover minus the time covered by their child spans.

Work the tracer does for its own counters (counting nonzeros, entry bit
lengths) is timed and excluded from every open span, so it does not show
up as self time of the caller.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# layer -> wrapped callables, as "module.function" or "module.Class.method"
LAYERS = {
    "complexes.subdivide": ("complexes.barycentric_subdivide",),
    "complexes.chain_complex": ("complexes.chain_complex",),
    "equivariant.total_diff": ("equivariant.TotalComplex.diff",
                               "equivariant.TotalCochainComplex.diff"),
    "equivariant.groups": ("equivariant.eq_homology",
                           "equivariant.eq_cohomology",
                           "equivariant.homology",
                           "equivariant.cohomology",
                           "equivariant.group_cohomology"),
    "equivariant.maps": ("equivariant.edge_morphism",
                         "equivariant.edge_morphism_cohomology",
                         "equivariant.homology_involution",
                         "equivariant.eta_cap",
                         "equivariant.pushforward_hom",
                         "equivariant.ordinary_pushforward_hom",
                         "equivariant.pullback_hom"),
    "equivariant.localize": ("equivariant.localize_homology",
                             "equivariant.localize_cohomology"),
    "equivariant.les": ("equivariant.les_edge", "equivariant.les_coeff"),
    "intlinalg.snf": ("intlinalg.smith_normal_form",),
    "intlinalg.subquotient": ("intlinalg.homology_at",
                              "intlinalg._subquotient"),
    "intlinalg.solve": ("intlinalg.LinearSolver.solve_vector",
                        "intlinalg.LinearSolver.solve_matrix"),
    "intlinalg.reduce": ("intlinalg.PresentedGroup.reduce",),
    "intlinalg.induced_hom": ("intlinalg.induced_hom",),
    "intlinalg.lattice": ("intlinalg.lattices_equal",
                          "intlinalg.exact_at",
                          "intlinalg.image_lattice",
                          "intlinalg.kernel_lattice",
                          "intlinalg.PresentedGroup.coordinate_kernel_lattice",
                          "intlinalg.LinearSolver.contains"),
    "spectral.gm_report": ("spectral.gm_report",),
    "spectral.gm_bounds": ("spectral.gm_bounds",),
    "spectral.rho": ("spectral.rho_surjectivity_criteria",),
    "spectral.witness": ("spectral.edge_defect_witness",),
    "verify.core": ("verify.suite_core",),
    "verify.exactness": ("verify.suite_exactness",),
    "verify.gm": ("verify.suite_gm",),
    "verify.duality": ("verify.suite_duality",),
    "cli.render": ("cli._emit",),
    "enriques.classify": ("enriques.classify",),
}

# memoized functions whose cache_info() gives the groups hit ratio
GROUP_CACHES = ("equivariant.eq_homology", "equivariant.eq_cohomology",
                "equivariant.homology", "equivariant.cohomology")


def self_times(spans):
    """Per-layer self time of spans [layer, start, end, parent, excluded].

    A span's own duration is end - start - excluded; its self time is that
    less the own durations of its direct children.
    """
    own = [end - start - excluded
           for _, start, end, _, excluded in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += own[i]
    out = defaultdict(float)
    for i, span in enumerate(spans):
        out[span[0]] += own[i] - child[i]
    return dict(out)


def _nonzeros(matrix):
    return sum(len(row) - row.count(0) for row in matrix.data)


def _max_bits(matrix):
    best = 0
    for row in matrix.data:
        if row:
            best = max(best, max(row).bit_length(),
                       (-min(row)).bit_length())
    return best


class Tracer:
    """Spans and counters of one traced pass; install(), run, uninstall()."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.excluded = 0.0
        self._restore = []
        self._caches = {}
        self._seen_diffs = {}

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer, fn, observe=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.excluded]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                span[4] = self.excluded - span[4]
            if observe is not None:
                t0 = clock()
                observe(args, result)
                self.excluded += clock() - t0
            return result
        return wrapper

    def _observe_snf(self, args, dec):
        M = args[0]
        self.counts["snf_cells"] += M.rows * M.cols
        self.counts["snf_nnz_in"] += _nonzeros(M)
        bits = max(_max_bits(m) for m in (dec.D, dec.U, dec.V, dec.Uinv,
                                          dec.Vinv))
        self.counts["snf_max_entry_bits"] = max(
            self.counts["snf_max_entry_bits"], bits)

    def _observe_diff(self, args, matrix):
        # differentials are memoized, so count each distinct matrix once
        if id(matrix) not in self._seen_diffs:
            self._seen_diffs[id(matrix)] = matrix
            self.counts["total_diff_cells"] += matrix.rows * matrix.cols
            self.counts["total_diff_nnz"] += _nonzeros(matrix)

    def _observe_solve(self, args, result):
        self.counts["solve_columns"] += 1

    # -- patching ----------------------------------------------------------

    def install(self, package, extra_modules=()):
        """Wrap every callable in LAYERS, wherever the package's modules
        (and extra_modules, such as the benchmark's own) hold it."""
        prefix = package.__name__ + "."
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith(prefix)] + list(extra_modules)
        for m in modules:
            for attr, obj in vars(m).items():
                if hasattr(obj, "cache_info") and callable(obj):
                    qual = "%s.%s" % (obj.__module__[len(prefix):],
                                      obj.__qualname__)
                    self._caches[id(obj)] = (qual, obj)
        observers = {
            "intlinalg.smith_normal_form": self._observe_snf,
            "equivariant.TotalComplex.diff": self._observe_diff,
            "equivariant.TotalCochainComplex.diff": self._observe_diff,
            "intlinalg.LinearSolver.solve_vector": self._observe_solve,
        }
        for layer, targets in LAYERS.items():
            for target in targets:
                parts = target.split(".")
                owner = sys.modules[prefix + parts[0]]
                for part in parts[1:-1]:
                    owner = getattr(owner, part)
                if isinstance(owner, type):
                    orig = owner.__dict__[parts[-1]]
                    self._set(owner, parts[-1], self._wrap(
                        layer, orig, observers.get(target)))
                else:
                    orig = getattr(owner, parts[-1])
                    wrapper = self._wrap(layer, orig, observers.get(target))
                    self._replace_everywhere(modules, orig, wrapper)
        self._count_matrices(sys.modules[prefix + "intlinalg"].IntMatrix)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, orig, wrapper):
        for m in modules:
            for attr, obj in list(vars(m).items()):
                if obj is orig:
                    self._set(m, attr, wrapper)
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if val is orig:
                            self._restore.append((obj, key, val))
                            obj[key] = wrapper

    def _count_matrices(self, cls):
        # matrix construction is far too frequent for spans; count it
        orig = cls.__init__
        counts = self.counts

        def counting_init(matrix, rows, cols, data):
            counts["matrices_built"] += 1
            counts["entries_validated"] += rows * cols
            orig(matrix, rows, cols, data)
        self._set(cls, "__init__", counting_init)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore = []

    # -- results -----------------------------------------------------------

    def cache_snapshot(self):
        out = {}
        for qual, fn in sorted(self._caches.values(), key=lambda e: e[0]):
            info = fn.cache_info()
            out[qual] = {"hits": info.hits, "misses": info.misses,
                         "size": info.currsize}
        return out

    def metrics(self):
        """Per-layer self times and call counts, plus the counters."""
        own = self_times(self.spans)
        calls = Counter(span[0] for span in self.spans)
        out = {}
        for layer in LAYERS:
            out[layer + "_s"] = own.get(layer, 0.0)
            out[layer + "_calls"] = calls[layer]
        for key in ("snf_cells", "snf_nnz_in", "snf_max_entry_bits",
                    "solve_columns", "matrices_built", "entries_validated"):
            out["intlinalg." + key] = self.counts[key]
        for key in ("total_diff_cells", "total_diff_nnz"):
            out["equivariant." + key] = self.counts[key]
        caches = self.cache_snapshot()
        hits = sum(caches[q]["hits"] for q in GROUP_CACHES)
        misses = sum(caches[q]["misses"] for q in GROUP_CACHES)
        out["equivariant.groups_cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        out["trace.spans"] = len(self.spans)
        out["trace.bookkeeping_s"] = self.excluded
        return out

    def write(self, path):
        """Spans (times relative to the first span) and cache snapshots."""
        layers = list(LAYERS)
        index = {name: i for i, name in enumerate(layers)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "layers": layers,
                "span_fields": ["layer", "start_s", "end_s", "parent",
                                "excluded_s"],
                "spans": [[index[layer], round(start - t0, 7),
                           round(end - t0, 7), parent, round(excl, 7)]
                          for layer, start, end, parent, excl in self.spans],
                "caches": self.cache_snapshot(),
            }, fh, separators=(",", ":"))
