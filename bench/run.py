"""nelliptic benchmark: seeded CLI workloads, timed end to end and traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {dirichlet,probe,regularity} --seed N \
        --seconds S --trace {0,1}

The jobs of a workload are generated from the seed (``bench_jobs``) and run
in this process through ``nelliptic.cli.main(argv)``, one at a time (closed
loop, one client), with ``--threads 1``, BLAS limited to one thread and the
process pinned to one CPU. A pass runs every job once; passes repeat while the
next one is expected to end within ``--seconds``, and each timing is the
median over passes. Every job's output is checked (``bench_checks``), and
every pass must print the same stdout and write the same output grids.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median set-up: a
fresh-interpreter ``import nelliptic.cli`` plus writing the input grids, done
once before the first pass and again after every pass), ``wall_s`` (one pass)
and ``peak_rss_mb``. Every job and set-up is bracketed by a short calibration
loop and its time scaled to a fixed machine speed (see ``CALIBRATION_S``);
raw times are in the results file and ``wall_raw_s`` is a per-layer metric.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics: span counts and self times from ``bench_trace``, counts taken from
the records, the per-class job times of the untraced passes, and
``trace_overhead_frac``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Set-up time, results and spans are
written under ``.nbench/`` in the checkout. Without ``src/nelliptic`` in the
working directory the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys

# one BLAS thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NELLIPTIC_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_checks import check_contract, check_passes  # noqa: E402
from bench_jobs import (CLASS_METRICS, README_CHECK, WORKLOADS, jobs_digest,  # noqa: E402
                        make_jobs, write_inputs)
from bench_trace import TARGETS, Tracer  # noqa: E402

WORK_DIR = ".nbench"

# Nominal duration of one calibrate() call. Every timed job and set-up is
# bracketed by two calibrate() calls and scaled by CALIBRATION_S / (their mean):
# the reported times are seconds at a fixed machine speed. On shared virtual
# machines the speed switches between states within seconds and drifts by
# 20-30 % over minutes. On a 2-vCPU KVM guest this loop's time followed a mix
# of the workloads' jobs with correlation 0.96 over 35 s windows, and the
# program cannot change it.
CALIBRATION_S = 0.04


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program(root):
    """Import nelliptic from ``root/src`` only; exit 2 when it is missing."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nelliptic", "cli.py")):
        sys.stderr.write("bench: no src/nelliptic under %s; run from a checkout root\n" % root)
        sys.exit(2)
    sys.path.insert(0, src)
    import nelliptic.cli

    if not os.path.realpath(nelliptic.cli.__file__).startswith(os.path.realpath(src) + os.sep):
        sys.stderr.write("bench: nelliptic was imported from outside %s\n" % src)
        sys.exit(2)
    return nelliptic.cli


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# set-up


def time_import(root):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import nelliptic.cli"], env=env, cwd=root,
                   check=True)
    return perf_counter() - t0


def calibrate(reps=50000):
    """Seconds taken by a fixed interpreter-bound loop (scalar numpy indexing,
    float math, dict stores, small dot products), like the program's
    per-node and per-matrix loops."""
    a = np.arange(9.0).reshape(3, 3)
    acc = 0.0
    slots = {}
    t0 = perf_counter()
    for i in range(reps):
        acc += math.sqrt(abs(a[i % 3, (i + 1) % 3] * 1.0001 + acc * 1e-9) + i)
        slots[i & 255] = acc
        if i % 16 == 0:
            acc += float(np.dot(a[0], a[1]))
    return perf_counter() - t0


def scaled(seconds, cal_before, cal_after):
    return seconds * 2.0 * CALIBRATION_S / (cal_before + cal_after)


def time_setup(root, grids):
    """(raw, scaled) seconds of one set-up: a fresh-interpreter import plus
    writing the input grids."""
    before = calibrate()
    t0 = perf_counter()
    time_import(root)
    write_inputs(grids)
    raw = perf_counter() - t0
    return raw, scaled(raw, before, calibrate())


# ---------------------------------------------------------------------------
# passes


def run_job(main, argv):
    """(exit code, stdout, exception text or None) of one in-process CLI call."""
    buf = io.StringIO()
    rc, raised = None, None
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a job that raises is a failed job; keep measuring
        raised = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return rc, buf.getvalue(), raised


def run_pass(jobs, main, grids, tracer=None):
    """One timed pass. Each job's time is kept raw ("seconds") and scaled by
    the calibrate() calls before and after it ("scaled"). A solve job's output
    grid is read back after the timing, kept in ``grids`` by digest and
    removed, so every pass's solution is checked."""
    out = []
    cal = calibrate()
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = idx
        t0 = perf_counter()
        rc, stdout, raised = run_job(main, job.argv)
        seconds = perf_counter() - t0
        after = calibrate()
        grid = None
        if "out" in job.expect and os.path.exists(job.expect["out"]):
            with open(job.expect["out"], "rb") as fh:
                data = fh.read()
            os.remove(job.expect["out"])
            grid = hashlib.sha256(data).hexdigest()
            grids.setdefault(grid, data)
        out.append({"rc": rc, "stdout": stdout, "raised": raised, "grid": grid,
                    "seconds": seconds, "scaled": scaled(seconds, cal, after)})
        cal = after
    return {"wall": sum(r["seconds"] for r in out), "scaled": sum(r["scaled"] for r in out),
            "jobs": out,
            "digest": hashlib.sha256("".join(r["stdout"] for r in out).encode()).hexdigest()}


def class_times(jobs, passes, classes):
    """Median over passes of the summed scaled time of each job class."""
    return {
        metric: median([sum(r["scaled"] for j, r in zip(jobs, p["jobs"]) if j.cls == cls)
                        for p in passes])
        for cls, metric in classes.items()
    }


# ---------------------------------------------------------------------------
# per-layer metrics


# span name -> the metrics reported for it
LAYER_SPANS = {"%s.%s" % (mod, qual): kinds for mod, qual, kinds in TARGETS}


def traced_pass_metrics(tracer, spans, jobs, result, outcomes):
    """Per-layer metrics of one traced pass (span indices ``spans``)."""
    summary = tracer.summary(*spans)
    m = {}
    for name, kinds in LAYER_SPANS.items():
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        for kind in kinds:
            m["%s.%s" % (name, kind)] = row[kind]

    def calls_in(name, classes):
        per_job = summary.get(name, {}).get("jobs", {})
        return sum(c for j, c in per_job.items() if jobs[j].cls in classes)

    vals = [o["values"] for o in outcomes]
    probe_samples = sum(v.get("samples", 0) for v, j in zip(vals, jobs) if j.cls == "probe")
    m["operators.evals_per_jet"] = calls_in("operators.evaluate", ("probe",)) / probe_samples \
        if probe_samples else 0.0

    newton = [(v, j) for v, j in zip(vals, jobs) if j.expect.get("newton")]
    m["solver.newton_iters"] = sum(v.get("iterations") or 0 for v, _ in newton)
    m["solver.node_iters"] = sum((v.get("iterations") or 0) * _interior(v.get("nodes", 0))
                                 for v, _ in newton)
    parents = tracer.parent_names("solver.spsolve", *spans)
    newton_lu = parents.get("solver.solve_pucci", 0) + parents.get("solver.solve_monge_ampere", 0)
    accepted = sum(v.get("accepted_steps", 0) for v, _ in newton)
    m["solver.useful_solve_ratio"] = accepted / newton_lu if newton_lu else 0.0

    visc = [(v, j) for v, j in zip(vals, jobs) if j.cls in ("check", "refute")]
    nodes = sum(v.get("nodes", 0) for v, _ in visc)
    decided = total = 0
    for v, _ in visc:
        for side in v.get("counts", {}).values():
            decided += side.get("pass", 0) + side.get("fail", 0)
            total += sum(side.values())
    m["regularity.check.nodes"] = nodes
    m["regularity.check.decided_ratio"] = decided / total if total else 0.0
    m["regularity.check.evals_per_node"] = (
        calls_in("operators.evaluate", ("check", "refute")) / nodes if nodes else 0.0)
    scales = sum(v.get("scales", 0) for v, j in zip(vals, jobs) if j.cls == "analyze")
    usable = sum(v.get("usable", 0) for v, j in zip(vals, jobs) if j.cls == "analyze")
    m["regularity.usable_scale_ratio"] = usable / scales if scales else 0.0

    m["cli.stdout_bytes"] = sum(len(r["stdout"].encode()) for r in result["jobs"])
    return m


def _interior(nodes):
    side = int(round(nodes ** 0.5))
    return max(side - 2, 0) ** 2


# ---------------------------------------------------------------------------


def machine_block():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None):
    args = parse_args(argv)
    # one CPU for this process and the set-up's child interpreters, so the
    # calibration loop runs where the timed work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = os.getcwd()
    cli = load_program(root)
    from nelliptic.grid import read_grid

    if args.workload not in WORKLOADS:
        sys.stderr.write("bench: unknown workload %r (have: %s)\n"
                         % (args.workload, ", ".join(WORKLOADS)))
        return 2
    inputs_dir = os.path.join(WORK_DIR, args.workload)
    jobs, grids = make_jobs(args.workload, args.seed, inputs_dir)
    os.makedirs(inputs_dir, exist_ok=True)
    time_import(root)  # untimed: the first import may compile bytecode
    setup_runs = [time_setup(root, grids)]

    tracer = None
    untraced, traced, layer_rows = [], [], []
    out_grids = {}
    if args.trace:
        tracer = Tracer()
    t_start = perf_counter()
    # start another pass only while it is expected to end within --seconds
    while not untraced or (perf_counter() - t_start
                           + (perf_counter() - t_start) / len(untraced) <= args.seconds):
        untraced.append(run_pass(jobs, cli.main, out_grids))
        if tracer is not None:
            first = len(tracer.start)
            tracer.install()
            try:
                traced.append(run_pass(jobs, cli.main, out_grids, tracer))
            finally:
                tracer.uninstall()
            traced[-1]["spans"] = (first, len(tracer.start))
        # set-up repeats after every pass, so its median spans the run
        setup_runs.append(time_setup(root, grids))
    measured_s = perf_counter() - t_start

    attempted, failed, outcomes = check_passes(jobs, untraced + traced, out_grids, read_grid)
    for i, o in enumerate(outcomes):
        o["seconds"] = median([p["jobs"][i]["seconds"] for p in untraced])
    digests = sorted({p["digest"] for p in untraced + traced})
    wall_s = median([p["scaled"] for p in untraced])
    classes = class_times(jobs, untraced, CLASS_METRICS[args.workload])

    readme = None
    if args.workload == "regularity":
        rc, stdout, raised = run_job(cli.main, README_CHECK)
        _, reason = check_contract(rc, stdout, raised)
        readme = {"argv": list(README_CHECK), "rc": rc, "raised": raised, "ok": not reason,
                  "reason": reason}

    if args.trace:
        for p in traced:
            layer_rows.append(traced_pass_metrics(tracer, p["spans"], jobs, p, outcomes))
        metrics = {}
        for name in layer_rows[0]:
            values = [row[name] for row in layer_rows]
            metrics[name] = median(values)
        # every workload reports every job-class time, 0 where it runs no such job
        for class_metrics in CLASS_METRICS.values():
            for name in class_metrics.values():
                metrics[name] = classes.get(name, 0.0)
        metrics["trace_overhead_frac"] = median([p["scaled"] for p in traced]) / wall_s - 1.0
        metrics["wall_raw_s"] = median([p["wall"] for p in untraced])
        for key, value in tracer.counters.items():
            metrics[key] = value / len(traced)
        metrics["cli.readme_check_failed"] = 0.0 if readme is None or readme["ok"] else 1.0
        tracer.write(os.path.join(WORK_DIR, "spans-%s-%d.npz" % (args.workload, args.seed)))
    else:
        metrics = {"setup_s": median([scaled_s for _, scaled_s in setup_runs]), "wall_s": wall_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_block(), "jobs_digest": jobs_digest(jobs, grids),
        "stdout_digests": digests, "passes": len(untraced), "traced_passes": len(traced),
        "measured_s": measured_s, "pass_walls": [p["wall"] for p in untraced],
        "pass_scaled": [p["scaled"] for p in untraced],
        "traced_walls": [p["wall"] for p in traced], "setup_runs": setup_runs,
        "class_s": classes, "outcomes": outcomes,
        "readme_check": readme, "metrics": metrics,
    }
    with open(os.path.join(WORK_DIR, "result-%s-%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True, default=str)

    err = sys.stderr
    err.write("bench %s seed %d: %d passes, %d traced, %d jobs per pass, stdout digest %s\n"
              % (args.workload, args.seed, len(untraced), len(traced), len(jobs),
                 ",".join(d[:12] for d in digests)))
    for name, value in sorted(classes.items()):
        err.write("  %-12s %.4f s\n" % (name, value))
    for o in outcomes:
        if not o["ok"]:
            err.write("  FAILED %s: %s\n" % (o["job"], o["reason"]))
    if readme is not None and not readme["ok"]:
        err.write("  README check job breaks the exit-code contract: %s\n" % readme["reason"])

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError("metrics differ from BENCHMARK.json: %s"
                           % sorted(set(units) ^ set(metrics)))
    correct = failed == 0 and len(digests) == 1
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
