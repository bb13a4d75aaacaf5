"""Workloads of the equihom benchmark: seeded inputs, the jobs run on them
and the expected answer each job is checked against.

Inputs are builtin complexes, barycentrically subdivided and relabelled by
a vertex permutation drawn from the seed; the program sees only the
complexes.  Expected answers live in expected.json, keyed by builtin:
subdivision and relabelling change neither groups nor verdicts.

Importing this module imports equihom, so the caller puts the checkout's
source directory on sys.path first.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import signal
from collections import namedtuple

from equihom import cli
from equihom.complexes import (
    COEFF_BY_FLAG,
    barycentric_subdivide,
    builtin,
    relabel,
    validate,
)
from equihom.equivariant import eq_cohomology, eq_homology
from equihom.spectral import (
    RHO_VARIANTS,
    edge_defect_witness,
    gm_report,
    rho_surjectivity_criteria,
)

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")

# builtin, subdivisions, group function, coefficient flags, degrees
GROUP_JOBS = (
    ("sphere-octahedron-reflection", 1, "eq_homology", ("Z2", "Z"),
     range(-6, 3)),
    ("rp2-trivial", 1, "eq_cohomology", ("Z2", "Z"), range(0, 7)),
    ("torus-reflection", 1, "eq_homology", ("Z",), range(-2, 3)),
)

DECIDE_INPUTS = (
    ("sphere-octahedron-reflection", 1),
    ("rp2-trivial", 1),
    ("torus-reflection", 0),
    ("klein-bottle-trivial", 0),
)

# Per-job time limits: several times the slowest job of each workload, so
# only a hang or a large regression trips them.
JOB_LIMIT_S = {"groups": 60.0, "decide": 60.0, "verify": 120.0}

GROUP_FUNCTIONS = {"eq_homology": eq_homology, "eq_cohomology": eq_cohomology}

Job = namedtuple("Job", "id run expected")


class JobTimeout(BaseException):
    """Raised in the main thread when a job passes its time limit.

    A BaseException, so that no `except Exception` inside the program can
    swallow it.
    """


def load_expected(path=EXPECTED_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(answer):
    return json.dumps(answer, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def input_specs(workload):
    if workload == "groups":
        return tuple((name, sd) for name, sd, *_ in GROUP_JOBS)
    if workload == "decide":
        return DECIDE_INPUTS
    if workload == "verify":
        return ()
    raise ValueError("unknown workload %r" % (workload,))


def label(name, sd):
    return "%s/sd%d" % (name, sd)


def make_inputs(workload, seed):
    """Subdivided builtins relabelled by permutations drawn from the seed;
    the same seed gives the same complexes."""
    rng = random.Random(seed)
    inputs = {}
    for name, sd in input_specs(workload):
        X = builtin(name)
        for _ in range(sd):
            X = barycentric_subdivide(X)
        perm = list(range(X.vertex_count))
        rng.shuffle(perm)
        X = relabel(X, perm)
        message = validate(X)
        if message is not None:
            raise ValueError("input %s is invalid: %s"
                             % (label(name, sd), message))
        inputs[label(name, sd)] = X
    return inputs


# ---------------------------------------------------------------------------
# Expected answers
# ---------------------------------------------------------------------------

def localized_group(betti, flag, p):
    """The group in the localized range (homology p < 0, cohomology
    p > dim), from the fixed set's mod-2 Betti numbers alone."""
    if flag == "Z2":
        return [0, [2] * sum(betti)]
    k = COEFF_BY_FLAG[flag].k
    return [0, [2] * sum(b for q, b in enumerate(betti)
                         if (q - p - k) % 2 == 0)]


def expected_group(expected, kind, name, flag, p):
    entry = expected[kind][name]
    if 0 <= p <= entry["dim"]:
        return entry[flag][str(p)]
    if p < 0 and kind == "eq_cohomology":
        return [0, []]
    return localized_group(expected["fixed_set_mod2_betti"][name], flag, p)


def matches(answer, expected):
    """Whether every key of the expected dict holds the same value in the
    answer; keys the expectation leaves out (digests) are not compared."""
    return all(answer.get(k) == v for k, v in expected.items())


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def groups_answer(groups):
    """Types of a range of groups, with a digest of their generator lifts."""
    lifts = canonical([[list(g) for g in grp.generators] for grp in groups])
    return {"groups": [[grp.free_rank, list(grp.torsion)] for grp in groups],
            "lifts_sha256": sha256_text(lifts)}


def gm_answer(rep):
    return {"is_gm": rep.is_gm, "is_zgm": rep.is_zgm,
            "bounds": [list(rep.gm1), list(rep.gm2), list(rep.gm3)],
            "non_surjective_edges": [[fam, p] for fam, p, ok
                                     in rep.edge_surjectivity if not ok]}


def witness_answer(witness):
    return {"witness": None if witness is None else list(witness)}


def verify_all():
    """`equihom verify all --json` through cli.main, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all", "--json"])
    text = out.getvalue()
    report = json.loads(text)
    return {"exit_code": code, "passed": report["passed"],
            "failed": report["failed"], "stdout_sha256": sha256_text(text)}


def _group_jobs(inputs, expected):
    # one job per input and coefficient system, over its degree range
    jobs = []
    for name, sd, func_name, flags, degrees in GROUP_JOBS:
        X = inputs[label(name, sd)]
        func = GROUP_FUNCTIONS[func_name]
        for flag in flags:
            coeff = COEFF_BY_FLAG[flag]
            want = [expected_group(expected, func_name, name, flag, p)
                    for p in degrees]
            jobs.append(Job(
                "%s[%s,%s,p=%d..%d]" % (func_name, label(name, sd), flag,
                                        degrees[0], degrees[-1]),
                lambda X=X, coeff=coeff, func=func, degrees=degrees:
                    groups_answer([func(X, coeff, p) for p in degrees]),
                {"groups": want}))
    return jobs


def _decide_jobs(inputs, expected):
    jobs = []
    for name, sd in DECIDE_INPUTS:
        tag = label(name, sd)
        X = inputs[tag]
        jobs.append(Job("gm_report[%s]" % tag,
                        lambda X=X: gm_answer(gm_report(X)),
                        expected["gm_report"][name]))
        for variant in RHO_VARIANTS:
            want = expected["rho_surjectivity_criteria"][name][variant]
            jobs.append(Job(
                "rho_surjectivity_criteria[%s,%s]" % (tag, variant),
                lambda X=X, v=variant:
                    {"criteria": list(rho_surjectivity_criteria(X, v))},
                {"criteria": want}))
        jobs.append(Job(
            "edge_defect_witness[%s]" % tag,
            lambda X=X: witness_answer(edge_defect_witness(X)),
            {"witness": expected["edge_defect_witness"][name]}))
    return jobs


def make_jobs(workload, inputs):
    """The workload's jobs in the order one client runs them."""
    expected = load_expected()
    if workload == "groups":
        return _group_jobs(inputs, expected)
    if workload == "decide":
        return _decide_jobs(inputs, expected)
    if workload == "verify":
        want = {k: v for k, v in expected["verify_all"].items()
                if not k.startswith("_")}
        return [Job("verify[all]", verify_all, want)]
    raise ValueError("unknown workload %r" % (workload,))


def run_job(job, limit_s):
    """Run one job under a SIGALRM time limit, in this process.

    Returns (status, answer); status is "ok", "wrong", "timed out" or
    "raised <exception type>", and answer is None unless the job returned.
    """
    def on_alarm(signum, frame):
        raise JobTimeout()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            answer = job.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        return "timed out", None
    except Exception as exc:  # a job that raises is a failed job
        return "raised %s" % type(exc).__name__, None
    finally:
        signal.signal(signal.SIGALRM, previous)
    return ("ok" if matches(answer, job.expected) else "wrong"), answer


def answer_digest(status, answer):
    return sha256_text(canonical([status, answer]))


def verify_check_counts(answers):
    """(checks run, checks failed) over the verify answers in a pass."""
    runs = [a for a in answers if a is not None and "passed" in a]
    return (sum(a["passed"] + a["failed"] for a in runs),
            sum(a["failed"] for a in runs))
