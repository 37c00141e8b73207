"""Per-job correctness checks.

A job fails if it raised out of ``main``, exited outside {0, 2, 3}, printed
stdout that is not JSON lines, or gave a wrong answer. Every benchmark job is
expected to succeed, so exit codes 2 and 3 are wrong answers here; the
README check job (``README_CHECK``) is held to the exit-code contract only.

``check_job`` returns an ``Outcome`` with the job's numeric results
(iterations, residuals, alpha_hat, verdict counts, ratios, products), so a
change that moves an answer shows in the run's results file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from bench_jobs import exact_values

CONTRACT_CODES = (0, 2, 3)


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    values: dict = field(default_factory=dict)


def parse_records(stdout):
    """JSON-lines stdout as a list of dicts; ValueError on anything else."""
    records = []
    for line in stdout.splitlines():
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError("record is not a JSON object: %r" % line[:80])
        records.append(rec)
    return records


def check_contract(rc, stdout, raised):
    """The CLI's own contract: no exception, exit code in {0, 2, 3}, JSON
    lines on stdout. Returns (records, reason); reason is "" when kept."""
    if raised is not None:
        return None, "raised %s" % raised
    if rc not in CONTRACT_CODES:
        return None, "exit code %r" % (rc,)
    try:
        return parse_records(stdout), ""
    except ValueError as exc:
        return None, "stdout is not JSON lines (%s)" % exc


def check_job(job, rc, stdout, raised=None, read_grid=None):
    records, reason = check_contract(rc, stdout, raised)
    if reason:
        return Outcome(False, reason)
    if rc != 0:
        return Outcome(False, "exit code %d: %s" % (rc, records[-1] if records else ""))
    if not records:
        return Outcome(False, "no record")
    checker = _CHECKERS[job.cls]
    try:
        return checker(job, records, read_grid)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return Outcome(False, "malformed record or output: %r" % (exc,))


def check_passes(jobs, passes, grids, read_grid):
    """(attempted, failed, outcomes): every job run of every pass is checked,
    with the output grid that run wrote (``grids``: digest -> file content);
    a run whose stdout or output grid differs from the first pass's also
    fails."""
    attempted = failed = 0
    outcomes = []
    cache = {}
    for i, job in enumerate(jobs):
        first = passes[0]["jobs"][i]
        outcome = None
        for p in passes:
            r = p["jobs"][i]
            key = (r["rc"], r["stdout"], r["raised"], r["grid"])
            if key not in cache:
                out = job.expect.get("out")
                if out and os.path.exists(out):
                    os.remove(out)
                if r["grid"] is not None:
                    with open(out, "wb") as fh:
                        fh.write(grids[r["grid"]])
                cache[key] = check_job(job, *key[:3], read_grid=read_grid)
            res = cache[key]
            attempted += 1
            if (r["stdout"], r["grid"]) != (first["stdout"], first["grid"]):
                res = Outcome(False, "output differs between passes", res.values)
            if not res.ok:
                failed += 1
            if outcome is None or not res.ok:
                outcome = res
        outcomes.append({"job": job.name, "class": job.cls, "ok": outcome.ok,
                         "reason": outcome.reason, "values": outcome.values})
    return attempted, failed, outcomes


def _fail_if(values, problems):
    return Outcome(not problems, "; ".join(problems), values)


def _check_solve(job, records, read_grid):
    rec = records[-1]
    exp = job.expect
    values = {"iterations": rec.get("iterations"), "residual": rec.get("residual")}
    problems = []
    if rec.get("kind") != "solve":
        return Outcome(False, "expected a solve record, got %r" % rec.get("kind"))
    if exp.get("newton"):
        tol = float(_argv_value(job.argv, "--tol", 1e-10))
        if rec["residual"] is None or rec["residual"] > tol:
            problems.append("residual %r > tol %g" % (rec["residual"], tol))
        hist = rec.get("residual_history") or []
        values["accepted_steps"] = sum(1 for a, b in zip(hist, hist[1:]) if b < a)
    u = read_grid(exp["out"])
    err = float(abs(u.values.ravel() - exact_values(exp["exact"], u.points())).max())
    values["error"] = err
    values["nodes"] = int(u.values.size)
    if not err <= exp["tol"]:
        problems.append("exact-solution error %.3g > %g" % (err, exp["tol"]))
    return _fail_if(values, problems)


def _argv_value(argv, flag, default):
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else default


def _check_probe(job, records, read_grid):
    rec = records[-1]
    exp = job.expect
    values = {k: rec[k] for k in ("lambda_hat", "Lambda_hat", "violations", "samples")}
    problems = []
    if rec["violations"] != 0:
        problems.append("violations %r != 0" % rec["violations"])
    for key in ("lambda_hat", "Lambda_hat"):
        if key in exp:
            tol = exp.get("lambda_tol", 1e-6 * max(1.0, abs(exp[key])))
            if not abs(rec[key] - exp[key]) <= tol:
                problems.append("%s %r not within %g of %r" % (key, rec[key], tol, exp[key]))
    return _fail_if(values, problems)


def _check_analyze(job, records, read_grid):
    rec = records[-1]
    exp = job.expect
    scales = rec["scales"]
    values = {
        "alpha_hat": rec["alpha_hat"],
        "classification": rec["classification"],
        "scales": len(scales),
        "usable": sum(1 for s in scales if s["usable"]),
    }
    problems = []
    if "alpha" in exp:
        a = rec["alpha_hat"]
        if a is None or not abs(a - exp["alpha"]) <= 0.05:
            problems.append("|alpha_hat - theta| > 0.05 (alpha_hat %r, theta %r)"
                            % (a, exp["alpha"]))
    if "classification" in exp and rec["classification"] != exp["classification"]:
        problems.append("classification %r != %r" % (rec["classification"], exp["classification"]))
    return _fail_if(values, problems)


def _check_viscosity(job, records, read_grid):
    rec = records[-1]
    counts = rec["counts"]
    values = {"counts": counts, "nodes": rec["nodes_tested"]}
    problems = []
    sides = ("sub", "super")
    if job.expect["verdict"] == "solution":
        if any(counts[s]["fail"] for s in sides):
            problems.append("fail verdict on a true solution: %r" % (counts,))
        if not all(counts[s]["pass"] > 0 for s in sides):
            problems.append("no pass verdict on a true solution: %r" % (counts,))
    elif counts[job.expect["side"]]["fail"] == 0:
        problems.append("no fail verdict on a non-solution: %r" % (counts,))
    return _fail_if(values, problems)


def _check_abp(job, records, read_grid):
    rec = records[-1]
    ref = job.expect["ratio"]
    values = {"ratio": rec["ratio"]}
    rel = abs(rec["ratio"] - ref) / ref
    problems = [] if rel <= 0.05 else [
        "abp ratio %r is %.1f%% from %r" % (rec["ratio"], 100 * rel, ref)]
    return _fail_if(values, problems)


def _check_normalize(job, records, read_grid):
    prods = [r["product"] for r in records if r.get("kind") == "normalize"]
    exp = job.expect
    values = {"products": prods}
    if len(prods) != exp["heights"]:
        return Outcome(False, "%d normalize records for %d heights"
                       % (len(prods), exp["heights"]), values)
    band = max(prods) / min(prods)
    values["band"] = band
    problems = []
    if not (min(prods) > 0 and band <= 1.01):
        problems.append("product band %r > 1.01" % band)
    if not abs(prods[-1] - exp["product"]) <= 0.01 * exp["product"]:
        problems.append("product %r not within 1%% of %r" % (prods[-1], exp["product"]))
    return _fail_if(values, problems)


_CHECKERS = {
    "pucci": _check_solve,
    "ma": _check_solve,
    "linear": _check_solve,
    "probe": _check_probe,
    "analyze": _check_analyze,
    "check": _check_viscosity,
    "refute": _check_viscosity,
    "abp": _check_abp,
    "normalize": _check_normalize,
}

