"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import equihom  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from equihom import equivariant, intlinalg  # noqa: E402
from equihom.complexes import COEFF_BY_FLAG, builtin, relabel  # noqa: E402


def test_self_time_subtracts_children_and_bookkeeping():
    # A [0, 10] holds B [1, 4] and C [5, 6]; B holds D [2, 3].  B also
    # spent 0.5 s in tracer bookkeeping, which no span may count.
    spans = [
        ["A", 0.0, 10.0, -1, 0.5],
        ["B", 1.0, 4.0, 0, 0.5],
        ["D", 2.0, 3.0, 1, 0.0],
        ["C", 5.0, 6.0, 0, 0.0],
    ]
    got = tracer.self_times(spans)
    assert got == {"A": 10.0 - 0.5 - 2.5 - 1.0, "B": 2.5 - 1.0,
                   "D": 1.0, "C": 1.0}
    assert sum(got.values()) == 9.5


def test_same_layer_nesting_sums_self_times():
    spans = [["L", 0.0, 4.0, -1, 0.0], ["L", 1.0, 2.0, 0, 0.0]]
    assert tracer.self_times(spans) == {"L": 4.0}


def test_tracer_wraps_names_imported_elsewhere_and_restores_them():
    orig_homology_at = equivariant.homology_at
    orig_init = intlinalg.IntMatrix.__init__
    t = tracer.Tracer()
    t.install(equihom)
    try:
        assert equivariant.homology_at is not orig_homology_at
        assert intlinalg.homology_at is equivariant.homology_at
        X = relabel(builtin("circle-reflection"), [3, 2, 1, 0])
        equivariant.eq_homology(X, COEFF_BY_FLAG["Z"], -1)
    finally:
        t.uninstall()
    assert equivariant.homology_at is orig_homology_at
    assert intlinalg.IntMatrix.__init__ is orig_init
    m = t.metrics()
    assert m["equivariant.groups_calls"] == 1
    assert m["intlinalg.subquotient_calls"] >= 1
    assert m["intlinalg.snf_calls"] >= 1
    assert m["intlinalg.matrices_built"] > 0
    layers = {span[0] for span in t.spans}
    assert {"equivariant.groups", "intlinalg.snf"} <= layers


def test_traced_answers_equal_untraced_answers():
    def digests():
        inputs = workloads.make_inputs("decide", 5)
        jobs = [j for j in workloads.make_jobs("decide", inputs)
                if "torus" in j.id]
        return [workloads.answer_digest(*workloads.run_job(j, 60.0))
                for j in jobs]

    plain = digests()
    t = tracer.Tracer()
    t.install(equihom, extra_modules=[workloads])
    try:
        traced = digests()
    finally:
        t.uninstall()
    assert traced == plain
    assert t.metrics()["spectral.gm_report_calls"] == 1


def test_wrong_expected_answer_is_caught():
    inputs = workloads.make_inputs("groups", 1)
    jobs = workloads.make_jobs("groups", inputs)
    job = next(j for j in jobs if j.id.startswith(
        "eq_homology[sphere-octahedron-reflection/sd1,Z,"))
    assert workloads.run_job(job, 60.0)[0] == "ok"
    wrong = [list(g) for g in job.expected["groups"]]
    wrong[5] = [1, []]      # degree -1
    status, answer = workloads.run_job(
        job._replace(expected={"groups": wrong}), 60.0)
    assert status == "wrong"
    assert answer["groups"][5] == [0, [2]]


def test_timeout_is_reported_and_not_swallowed():
    def stubborn():
        # a job that catches Exception must still be stopped
        while True:
            try:
                sum(range(10000))
            except Exception:
                pass

    job = workloads.Job("stubborn", stubborn, {})
    assert workloads.run_job(job, 0.01) == ("timed out", None)

    X = relabel(builtin("sphere-octahedron-reflection"), [5, 4, 3, 2, 1, 0])
    small = workloads.Job(
        "small",
        lambda: workloads.groups_answer(
            [equivariant.eq_homology(X, COEFF_BY_FLAG["Z2"], -3)]),
        {"groups": [[0, [2, 2]]]})
    assert workloads.run_job(small, 1e-5) == ("timed out", None)
    assert workloads.run_job(small, 60.0)[0] == "ok"


def test_tally_counts_bad_status_and_nondeterminism():
    def rec(*jobs):
        return {"jobs": [{"id": i, "status": s, "digest": d}
                         for i, s, d in jobs]}

    passes = [rec(("a", "ok", "1"), ("b", "ok", "2")),
              rec(("a", "ok", "1"), ("b", "ok", "3")),
              rec(("a", "timed out", "x"), ("b", "ok", "2"))]
    attempted, failed, notes = run.tally(passes)
    assert (attempted, failed) == (6, 2)
    assert any("differs" in n for n in notes)
    assert any("timed out" in n for n in notes)


def test_slowest_job_takes_each_jobs_median_in_reference_units():
    def rec(ref, *times):
        return {"ref": ref, "jobs": [{"id": i, "t": t}
                                     for i, t in enumerate(times)]}

    # job 1 stalls in one pass; its median, not the stall, counts
    passes = [rec(2.0, 4.0, 3.0), rec(1.0, 2.0, 9.0), rec(0.5, 1.0, 3.0)]
    assert run.slowest_job(passes, "t") == 3.0
    # per pass: job 0 costs 2, 2, 2 references, job 1 costs 1.5, 9, 6
    assert run.slowest_job(passes, "t", "ref") == 6.0


def test_reference_samples_run_while_the_timer_is_armed():
    sampler = reference.ReferenceSampler()
    sampler.sample()
    sampler.start(interval=0.01)
    t0 = time.thread_time()
    try:
        while time.thread_time() - t0 < 0.2:
            sum(range(1000))
    finally:
        sampler.stop()
    t1 = time.thread_time()
    # every sample does the same work and is timed on an exact clock
    assert len(sampler.samples) >= 5
    assert all(d > 0 for _, d in sampler.samples)
    assert 0 < sampler.within(t0, t1) < t1 - t0
    assert sampler.within(t1 + 1, t1 + 2) == 0


def test_expected_groups_hold_on_unsubdivided_builtins():
    """Each sdN entry equals its sd0 entry: the file is keyed by builtin
    and must hold for the builtin itself."""
    expected = workloads.load_expected()
    for name, sd, kind, flags, degrees in workloads.GROUP_JOBS:
        func = workloads.GROUP_FUNCTIONS[kind]
        for flag in flags:
            for p in degrees:
                grp = func(builtin(name), COEFF_BY_FLAG[flag], p)
                want = workloads.expected_group(expected, kind, name, flag, p)
                assert [grp.free_rank, list(grp.torsion)] == want, \
                    (name, flag, p)


def test_expected_file_is_consistent_with_invariants():
    expected = workloads.load_expected()
    betti = expected["fixed_set_mod2_betti"]
    for name, rep in expected["gm_report"].items():
        if name.startswith("_"):
            continue
        b = betti[name]
        (l1, r1), (l2, r2), (l3, r3) = rep["bounds"]
        assert (l1, l2, l3) == (sum(b), sum(b[0::2]), sum(b[1::2]))
        assert rep["is_gm"] == (l1 == r1)
        assert rep["is_zgm"] == (l2 == r2 and l3 == r3)
    # the verify suite's golden GM table
    assert expected["gm_report"]["torus-reflection"]["is_gm"] is True
    # far-negative Z/2 homology has the fixed set's total mod-2 Betti number
    for name in expected["eq_homology"]:
        if not name.startswith("_"):
            grp = workloads.expected_group(expected, "eq_homology", name,
                                           "Z2", -5)
            assert grp == [0, [2] * sum(betti[name])]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    layer_names = {name[:-len(suffix)] for name, _, _ in run.PER_LAYER
                   for suffix in ("_s", "_calls") if name.endswith(suffix)}
    assert layer_names - {"process.cpu", "trace.overhead"} <= \
        set(tracer.LAYERS)

