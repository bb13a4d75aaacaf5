"""The equihom benchmark.

    python3 perfbench/run.py --workload {groups,decide,verify,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each pass of a workload is a fresh
single-threaded process (perfbench/worker.py), so memo caches start cold
as they do for every CLI invocation; one client runs the jobs back to
back.  Passes repeat until the next one would end after --seconds, and
every answer is checked against perfbench/expected.json and against the
first pass of the run (same seed, same digests).  Extra set-up-only
processes bring set-up samples to MIN_SETUP_SAMPLES.

Times are reported in reference loops, not seconds.  The host is a share
of a machine whose speed drifts by a third over minutes, so each measured
pass also times the benchmark's own reference loop (reference.py) every
0.1 s of CPU time, and a pass's cost is its CPU time, net of those
samples, over their mean CPU time.  batch_ref is that for the whole batch
(first job start to last job end); slowest_job_ref is the slowest job,
each job taken at its median over the passes.  Raw wall seconds are
printed beside them.

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end metrics (medians over the run's passes); with --trace 1 the run
makes one untraced and one traced pass and reports the per-layer metrics,
the tracing overhead (traced minus untraced wall_s) and the top layer by
self time; spans are written to .bench_out/.  The exit code is 0 only if
every answer was right.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("groups", "decide", "verify")
RUN_LIMIT_S = 165.0    # a run must end within 180 s, whatever happens
MIN_SETUP_SAMPLES = 11

# name, unit, better
END_TO_END = (
    ("batch_ref", "ref", "lower"),
    ("slowest_job_ref", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("complexes.subdivide_s", "s", "lower"),
    ("complexes.chain_complex_s", "s", "lower"),
    ("complexes.chain_complex_calls", "count", "lower"),
    ("equivariant.total_diff_s", "s", "lower"),
    ("equivariant.total_diff_calls", "count", "lower"),
    ("equivariant.total_diff_cells", "count", "lower"),
    ("equivariant.total_diff_nnz", "count", "lower"),
    ("equivariant.groups_s", "s", "lower"),
    ("equivariant.groups_calls", "count", "lower"),
    ("equivariant.groups_cache_hit_ratio", "ratio", "higher"),
    ("equivariant.maps_s", "s", "lower"),
    ("equivariant.localize_s", "s", "lower"),
    ("equivariant.les_s", "s", "lower"),
    ("intlinalg.snf_s", "s", "lower"),
    ("intlinalg.snf_calls", "count", "lower"),
    ("intlinalg.snf_cells", "count", "lower"),
    ("intlinalg.snf_nnz_in", "count", "lower"),
    ("intlinalg.snf_max_entry_bits", "bits", "lower"),
    ("intlinalg.subquotient_s", "s", "lower"),
    ("intlinalg.solve_s", "s", "lower"),
    ("intlinalg.solve_columns", "count", "lower"),
    ("intlinalg.reduce_s", "s", "lower"),
    ("intlinalg.reduce_calls", "count", "lower"),
    ("intlinalg.induced_hom_s", "s", "lower"),
    ("intlinalg.induced_hom_calls", "count", "lower"),
    ("intlinalg.lattice_s", "s", "lower"),
    ("intlinalg.lattice_calls", "count", "lower"),
    ("intlinalg.matrices_built", "count", "lower"),
    ("intlinalg.entries_validated", "count", "lower"),
    ("spectral.gm_report_s", "s", "lower"),
    ("spectral.gm_bounds_s", "s", "lower"),
    ("spectral.rho_s", "s", "lower"),
    ("spectral.witness_s", "s", "lower"),
    ("verify.core_s", "s", "lower"),
    ("verify.exactness_s", "s", "lower"),
    ("verify.gm_s", "s", "lower"),
    ("verify.duality_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("verify.checks_failed", "count", "lower"),
    ("cli.render_s", "s", "lower"),
    ("enriques.classify_s", "s", "lower"),
    ("enriques.classify_calls", "count", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def monotonic():
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload, seed, budget, trace_path=None, setup_only=False,
          reference=False):
    """Run one worker process; its record, or None if it failed."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--budget", "%.3f" % budget]
    if reference:
        cmd.append("--reference")
    if trace_path:
        cmd += ["--trace", trace_path]
    if setup_only:
        cmd.append("--setup-only")
    spawned = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=budget + 5.0)
    except subprocess.TimeoutExpired:
        print("worker killed after %.0f s" % (budget + 5.0), file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print("worker exited with code %d" % proc.returncode,
              file=sys.stderr)
        return None
    record = json.loads(proc.stdout.splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def tally(passes):
    """(attempted, failed, notes): a job fails when its status is not ok
    or its answer digest differs from the same job's in the first pass."""
    attempted = failed = 0
    notes = []
    first = {job["id"]: job["digest"] for job in passes[0]["jobs"]}
    for n, rec in enumerate(passes):
        for job in rec["jobs"]:
            attempted += 1
            if job["status"] != "ok":
                failed += 1
                notes.append("pass %d: %s %s" % (n, job["id"], job["status"]))
            elif job["digest"] != first[job["id"]]:
                failed += 1
                notes.append("pass %d: %s answer differs from pass 0"
                             % (n, job["id"]))
    return attempted, failed, notes


def slowest_job(passes, key, per=None):
    """The slowest job, each job's time being its median over the passes
    (so one stalled pass does not decide which job is slowest); with
    `per`, each time is first divided by its pass's record[per]."""
    times = {}
    for rec in passes:
        scale = rec[per] if per else 1.0
        for job in rec["jobs"]:
            times.setdefault(job["id"], []).append(job[key] / scale)
    return max(statistics.median(t) for t in times.values())


def measure(workload, seed, seconds):
    """End-to-end metrics of one untraced run."""
    start = time.perf_counter()
    passes, crashed = [], 0
    while True:
        t0 = time.perf_counter()
        rec = spawn(workload, seed, RUN_LIMIT_S - (t0 - start),
                    reference=True)
        t1 = time.perf_counter()
        if rec is None:
            crashed += 1
            break
        passes.append(rec)
        if (t1 - start) + (t1 - t0) > seconds:
            break
    setups = [rec["setup_s"] for rec in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        budget = RUN_LIMIT_S - (time.perf_counter() - start)
        rec = spawn(workload, seed, budget, setup_only=True) \
            if budget > 10 else None
        if rec is None:
            break
        setups.append(rec["setup_s"])
    if not passes:
        return None
    attempted, failed, notes = tally(passes)
    values = {
        "batch_ref": statistics.median(r["cpu_net_s"] / r["ref_cpu_s"]
                                       for r in passes),
        "slowest_job_ref": slowest_job(passes, "cpu_net_s", "ref_cpu_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    samples = {"batch_ref": len(passes), "slowest_job_ref": len(passes),
               "setup_s": len(setups), "peak_rss_mb": len(passes)}
    lines = ["workload %s, seed %d: %d passes, ops %d, ops_failed %d"
             % (workload, seed, len(passes), attempted, failed + crashed)]
    for name, unit, _ in END_TO_END:
        lines.append("  %-15s %12.4f %-3s median of %d"
                     % (name, values[name], unit, samples[name]))
    lines.append("  raw seconds: wall_s %.4f, slowest_job_s %.4f; reference"
                 " loop %.3f ms CPU, median of %d passes' means"
                 % (statistics.median(r["wall_s"] for r in passes),
                    slowest_job(passes, "seconds"),
                    1e3 * statistics.median(r["ref_cpu_s"] for r in passes),
                    len(passes)))
    lines += ["  " + note for note in notes]
    return {"attempted": attempted + crashed, "failed": failed + crashed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _ in END_TO_END},
            "lines": lines}


def measure_traced(workload, seed):
    """Per-layer metrics: one untraced pass, then one traced pass."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))
    start = time.perf_counter()
    plain = spawn(workload, seed, RUN_LIMIT_S / 2)
    if plain is None:
        return None
    traced = spawn(workload, seed,
                   RUN_LIMIT_S - (time.perf_counter() - start), path)
    if traced is None:
        return None
    attempted, failed, notes = tally([plain, traced])
    layers = dict(traced["layers"])
    layers["process.cpu_s"] = plain["cpu_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    times = {name[:-2]: layers[name] for name, unit, _ in PER_LAYER
             if unit == "s" and name.split(".")[0]
             not in ("process", "trace")}
    top = max(times, key=times.get)
    lines = [
        "workload %s, seed %d traced: ops %d, ops_failed %d"
        % (workload, seed, attempted, failed),
        "  wall_s untraced %.4f s, traced %.4f s, tracing overhead %.4f s"
        " (%.1f%%, counters %.4f s of it); process cpu_s %.4f s"
        % (plain["wall_s"], traced["wall_s"], layers["trace.overhead_s"],
           100.0 * layers["trace.overhead_s"] / plain["wall_s"],
           layers["trace.bookkeeping_s"], plain["cpu_s"]),
        "  top layer by self time: %s (%.4f s, %.1f%% of traced wall_s)"
        % (top, times[top], 100.0 * times[top] / traced["wall_s"]),
        "  %d spans written to %s" % (layers["trace.spans"],
                                      os.path.relpath(path, ROOT)),
    ]
    for name, unit, _ in PER_LAYER:
        lines.append("  %-38s %16.6g %s" % (name, layers[name], unit))
    lines += ["  " + note for note in notes]
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: {"value": layers[name], "unit": unit}
                        for name, unit, _ in PER_LAYER},
            "lines": lines}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="equihom benchmark; the last stdout line is the result")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "equihom",
                                       "__init__.py")):
        print("error: no equihom sources under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if args.trace:
            res = measure_traced(name, args.seed)
        else:
            res = measure(name, args.seed, args.seconds)
        if res is None:
            print("error: workload %s produced no result" % name,
                  file=sys.stderr)
            return 1
        for line in res["lines"]:
            print(line)
        result["attempted"] += res["attempted"]
        result["failed"] += res["failed"]
        prefix = name + "." if len(names) > 1 else ""
        for key, val in res["metrics"].items():
            result["metrics"][prefix + key] = val
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
