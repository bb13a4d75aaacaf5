"""One pass of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --budget S
                                [--reference] [--trace PATH] [--setup-only]

Imports equihom from the checkout's src/, builds the workload's inputs,
runs its jobs back to back (one client, no threads), each under a time
limit, and prints one JSON line: the monotonic clock reading when the
first job was ready to start, per-job times, statuses and answer digests,
the pass's wall time, CPU time and peak RSS.  With --reference, the
reference loop (reference.py) is timed throughout the pass, and the line
also holds the pass's and each job's CPU time net of those samples and the
samples' mean CPU time.  With
--trace, every layer
is traced from before the inputs are built, spans are written to PATH and
the per-layer metrics are added to the line.  run.py starts this script
once per pass, so every pass starts with cold memo caches, as every CLI
invocation does.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def monotonic():
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_equihom():
    sys.path.insert(0, SRC)
    import equihom
    if not os.path.abspath(equihom.__file__).startswith(SRC + os.sep):
        raise ImportError("equihom imported from %s, not from %s"
                          % (equihom.__file__, SRC))
    return equihom


def run_jobs(workloads, jobs, workload, deadline, sampler=None):
    results, answers = [], []
    limit = workloads.JOB_LIMIT_S[workload]
    if sampler is not None:
        sampler.sample()
        sampler.start()
    # the one thread's CPU clock, exact while the sampler's timer runs
    cpu0 = time.thread_time()
    first = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        c0 = time.thread_time()
        left = deadline - t0
        if left > 0:
            status, answer = workloads.run_job(job, min(limit, left))
        else:
            status, answer = "timed out", None
        result = {"id": job.id,
                  "seconds": time.perf_counter() - t0,
                  "cpu_s": time.thread_time() - c0,
                  "status": status,
                  "digest": workloads.answer_digest(status, answer)}
        if sampler is not None:
            # net of the reference samples taken inside the job
            result["cpu_net_s"] = result["cpu_s"] - sampler.within(
                c0, c0 + result["cpu_s"])
        results.append(result)
        answers.append(answer)
    summary = {"wall_s": time.perf_counter() - first,
               "cpu_s": time.thread_time() - cpu0,
               "jobs": results}
    if sampler is not None:
        sampler.stop()
        summary["cpu_net_s"] = summary["cpu_s"] - sampler.within(
            cpu0, cpu0 + summary["cpu_s"])
        sampler.sample()
        summary["ref_cpu_s"] = sampler.mean()
        summary["ref_samples"] = len(sampler.samples)
    return summary, answers


def main(argv=None):
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds this pass may take in total")
    parser.add_argument("--reference", action="store_true",
                        help="time the reference loop throughout the pass")
    parser.add_argument("--trace", metavar="PATH")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    equihom = import_equihom()
    import workloads
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(equihom, extra_modules=[workloads])
    jobs = workloads.make_jobs(
        args.workload, workloads.make_inputs(args.workload, args.seed))
    record = {"ready": monotonic()}
    sampler = None
    if args.reference:
        # built after set-up, which the samples do not measure
        from reference import ReferenceSampler
        sampler = ReferenceSampler()
    if not args.setup_only:
        summary, answers = run_jobs(workloads, jobs, args.workload,
                                    start + args.budget, sampler)
        record.update(summary)
        if tracer is not None:
            tracer.uninstall()
            layer = tracer.metrics()
            checks, failed = workloads.verify_check_counts(answers)
            layer["verify.checks"] = checks
            layer["verify.checks_failed"] = failed
            record["layers"] = layer
            tracer.write(args.trace)
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
