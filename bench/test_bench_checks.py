"""Tests of the benchmark's own job generator, checks and tracer.

A corrupted record must count as a failed job, and the same seed must give
the same job list.
"""

import json
import math
import time

import numpy as np
import pytest

from bench_checks import check_job, check_passes
from bench_jobs import README_CHECK, WORKLOADS, jobs_digest, make_jobs
from bench_trace import Tracer


def record(kind="x", **fields):
    return json.dumps(dict(kind=kind, config={}, **fields), sort_keys=True) + "\n"


def job_of(workload, name, seed=7):
    jobs, _ = make_jobs(workload, seed, "inputs")
    return next(j for j in jobs if j.name == name)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_jobs(workload):
    a = make_jobs(workload, 3, "inputs")
    b = make_jobs(workload, 3, "inputs")
    c = make_jobs(workload, 4, "inputs")
    assert jobs_digest(*a) == jobs_digest(*b)
    assert jobs_digest(*a) != jobs_digest(*c)
    assert all(j.argv[:2] == ("--threads", "1") for j in a[0])
    assert len({j.name for j in a[0]}) == len(a[0])


def test_readme_check_is_verbatim():
    assert " ".join(README_CHECK) == (
        "check --fixture pmc:0.3 --box=0.55,1.45 --h 0.05 --f rhs --side both "
        "--tol 5e-2 --rho 5"
    )


def analyze_stdout(alpha_hat):
    scales = [{"usable": True}] * 7
    return record(alpha_hat=alpha_hat, classification="C^1_alpha", scales=scales)


def test_analyze_alpha_checked():
    job = job_of("regularity", "analyze-slag")
    theta = job.expect["alpha"]
    assert check_job(job, 0, analyze_stdout(theta + 0.01)).ok
    bad = check_job(job, 0, analyze_stdout(theta + 0.2))
    assert not bad.ok and "alpha_hat" in bad.reason
    assert not check_job(job, 0, analyze_stdout(None)).ok


def viscosity_stdout(sub, sup):
    return record(counts={"sub": sub, "super": sup}, nodes_tested=81, witnesses=[])


def test_fail_verdict_on_true_solution_fails():
    job = job_of("regularity", "check-pucci")
    good = {"fail": 0, "pass": 81, "vacuous": 0}
    assert check_job(job, 0, viscosity_stdout(good, good)).ok
    one_fail = {"fail": 1, "pass": 80, "vacuous": 0}
    assert not check_job(job, 0, viscosity_stdout(good, one_fail)).ok


def test_refute_needs_a_fail_verdict():
    job = job_of("regularity", "refute-sub")
    none = {"fail": 0, "pass": 0, "vacuous": 81}
    fails = {"fail": 81, "pass": 0, "vacuous": 0}
    assert check_job(job, 0, viscosity_stdout(fails, none)).ok
    assert not check_job(job, 0, viscosity_stdout(none, fails)).ok


def test_probe_checks():
    job = job_of("probe", "mc-rho1")
    ok = record(lambda_hat=math.sqrt(2) / 4, Lambda_hat=1.0, violations=0, samples=160)
    assert check_job(job, 0, ok).ok
    off = record(lambda_hat=math.sqrt(2) / 4 + 2e-3, Lambda_hat=1.0, violations=0, samples=160)
    assert not check_job(job, 0, off).ok
    viol = record(lambda_hat=math.sqrt(2) / 4, Lambda_hat=1.0, violations=1, samples=160)
    assert not check_job(job, 0, viol).ok


def test_abp_and_normalize_bands():
    job = job_of("regularity", "abp-129")
    ref = job.expect["ratio"]
    assert check_job(job, 0, record(ratio=ref * 1.01)).ok
    assert not check_job(job, 0, record(ratio=ref * 1.06)).ok
    job = job_of("regularity", "normalize-fixture")
    rows = "".join(json.dumps({"kind": "normalize", "product": p}) + "\n"
                   for p in (0.25, 0.25, 0.25))
    assert check_job(job, 0, rows).ok
    rows = "".join(json.dumps({"kind": "normalize", "product": p}) + "\n"
                   for p in (0.25, 0.26, 0.25))
    assert not check_job(job, 0, rows).ok


def test_contract_breaches_fail():
    job = job_of("regularity", "analyze-slag")
    good = analyze_stdout(job.expect["alpha"])
    assert not check_job(job, 0, good, raised="ZeroDivisionError: x").ok
    assert not check_job(job, 1, good).ok
    assert not check_job(job, 3, record(error="SingularityError")).ok
    assert not check_job(job, 0, "Traceback (most recent call last):\n").ok
    assert not check_job(job, 0, "").ok


class FakeGrid:
    def __init__(self, values, points):
        self.values = values
        self.points = lambda: points


def test_solve_exact_solution_checked():
    job = job_of("dirichlet", "pucci-minus-65")
    pts = np.array([[x, y] for x in np.linspace(-1, 1, 5) for y in np.linspace(-1, 1, 5)])
    ex = job.expect["exact"]
    H = np.asarray(ex["H"])
    exact = ex["c"] + pts @ np.asarray(ex["p"]) + 0.5 * np.einsum("ni,ij,nj->n", pts, H, pts)
    stdout = record("solve", iterations=4, residual=1e-13, residual_history=[1.0, 0.1, 1e-13])
    assert check_job(job, 0, stdout, read_grid=lambda _: FakeGrid(exact, pts)).ok
    shifted = exact + 1e-6
    bad = check_job(job, 0, stdout, read_grid=lambda _: FakeGrid(shifted, pts))
    assert not bad.ok and "exact-solution error" in bad.reason
    loose = record("solve", iterations=4, residual=1e-3, residual_history=[1.0, 1e-3])
    assert not check_job(job, 0, loose, read_grid=lambda _: FakeGrid(exact, pts)).ok


def test_every_pass_solution_checked(tmp_path):
    jobs, _ = make_jobs("dirichlet", 7, str(tmp_path))
    job = next(j for j in jobs if j.name == "pucci-minus-65")
    pts = np.array([[x, y] for x in np.linspace(-1, 1, 5) for y in np.linspace(-1, 1, 5)])
    ex = job.expect["exact"]
    H = np.asarray(ex["H"])
    exact = ex["c"] + pts @ np.asarray(ex["p"]) + 0.5 * np.einsum("ni,ij,nj->n", pts, H, pts)
    grids = {"good": json.dumps(list(exact)).encode(),
             "off": json.dumps(list(exact + 1e-6)).encode()}

    def read_grid(path):
        with open(path) as fh:
            return FakeGrid(np.array(json.load(fh)), pts)

    stdout = record("solve", iterations=4, residual=1e-13, residual_history=[1.0, 0.1, 1e-13])

    def passes(*digests):
        return [{"jobs": [{"rc": 0, "stdout": stdout, "raised": None, "grid": d}]}
                for d in digests]

    assert check_passes([job], passes("good", "good"), grids, read_grid)[:2] == (2, 0)
    # a wrong solution on a later pass fails that run and differs from the first
    attempted, failed, outcomes = check_passes([job], passes("good", "off"), grids, read_grid)
    assert (attempted, failed) == (2, 1) and not outcomes[0]["ok"]
    # a run that wrote no grid fails
    assert check_passes([job], passes("good", None), grids, read_grid)[1] == 1
    assert check_passes([job], passes(None), grids, read_grid)[1] == 1


def test_self_times_cover_the_root_span():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    inner = tracer.wrap("inner", lambda: (leaf(), tracer_leaf())[0])
    tracer_leaf = tracer.wrap("leaf", leaf)
    root = tracer.wrap("root", lambda: (inner(), time.sleep(0.001))[0])
    t0 = time.perf_counter()
    root()
    wall = time.perf_counter() - t0
    summary = tracer.summary()
    assert {k: v["calls"] for k, v in summary.items()} == {"inner": 1, "leaf": 1, "root": 1}
    total_self = sum(v["self_s"] for v in summary.values())
    assert total_self == pytest.approx(tracer.arrays()["dur"][0], rel=1e-9)
    assert total_self <= wall
    assert summary["leaf"]["self_s"] >= 0.002
    assert tracer.parent_names("leaf") == {"inner": 1}

    first = len(tracer.start)  # a second pass is summarized on its own
    root()
    assert tracer.summary(first)["root"]["calls"] == 1
    assert tracer.summary(0, first)["leaf"]["calls"] == 1
    assert tracer.parent_names("leaf", first) == {"inner": 1}

