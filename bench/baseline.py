"""Record a baseline: untraced medians and quartiles over two sets of ten
seeds, and one traced per-layer table, for every workload.

Run from the root of a checkout:

    python3 bench/baseline.py --out bench/baseline.json

Each run is a separate ``bench/run.py`` process with the settings of
``BENCHMARK.json``. The spread of a metric is the distance between its first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of its
median. The first set (``SEEDS``) is the baseline; the second
(``REPEAT_SEEDS``, run after it, under ``repeat_set``) shows how far the
medians of two sets of the same code move.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

# layer metric -> the end-to-end metrics (by workload) it should move
LAYER_MAP = {
    "operators": {
        "metrics": ["operators.evaluate.{calls,self_s}",
                    "operators.eigenvalues_sym.{calls,self_s}",
                    "operators.SymMatrix.from_full.{calls,self_s}",
                    "operators.ellipticity_probe.self_s", "operators.pucci.calls",
                    "operators.evals_per_jet"],
        "moves": {"probe": ["wall_s"], "regularity": ["check_s", "analyze_s"]},
        "does_not_move": {"dirichlet": ["wall_s"], "regularity": ["refute_s"]},
    },
    "polyfit": {
        "metrics": ["polyfit.minimax_fit.{calls,self_s}",
                    "polyfit.Polynomial.__call__.{calls,self_s}",
                    "polyfit.Polynomial.hessian.{calls,self_s}",
                    "polyfit.ball_samples.{calls,self_s}"],
        "moves": {"regularity": ["analyze_s"], "probe": ["wall_s"]},
    },
    "solver": {
        "metrics": ["solver.solve_{pucci,monge_ampere,linear,mean_curvature}.self_s",
                    "solver.boundary_values.self_s", "solver.spsolve.{calls,self_s}",
                    "solver.newton_iters", "solver.node_iters", "solver.useful_solve_ratio"],
        "moves": {"dirichlet": ["wall_s", "pucci_s", "ma_s", "linear_s"]},
        "floor": "solver.spsolve.self_s and solver.newton_iters should not move under a "
                 "vectorization change",
    },
    "regularity": {
        "metrics": ["regularity.campanato_table.self_s", "regularity.check_viscosity.self_s",
                    "regularity.check.nodes", "regularity.check.decided_ratio",
                    "regularity.check.evals_per_node", "regularity.usable_scale_ratio"],
        "moves": {"regularity": ["wall_s", "check_s", "refute_s", "analyze_s"]},
    },
    "geometry": {
        "metrics": ["geometry.abp_check.self_s", "geometry.section.self_s", "geometry.mvee.self_s",
                    "geometry.john_normalize.self_s"],
        "moves": {"regularity": ["wall_s", "abp_s", "normalize_s"]},
    },
    "fixtures": {
        "metrics": ["fixtures.AnalyticFunction.__call__.{calls,self_s}",
                    "fixtures.AnalyticFunction.rhs.{calls,self_s}"],
        "moves": {"regularity": ["analyze_s", "check_s", "refute_s", "normalize_s"]},
    },
    "grid": {
        "metrics": ["grid.read_grid.self_s", "grid.write_grid.self_s", "grid.bytes_read",
                    "grid.bytes_written", "grid.GridFunction.__call__.{calls,self_s}"],
        "moves": {"regularity": ["normalize_s"], "dirichlet": ["pucci_s", "ma_s", "linear_s"],
                  "all": ["setup_s"]},
    },
    "cli": {
        "metrics": ["cli.main.self_s", "cli.stdout_bytes"],
        "moves": {"all": ["setup_s"]},
        "note": "a lazy scipy import should cut setup_s on probe and regularity and only move "
                "that time into the solve metrics on dirichlet",
    },
}


SEEDS = list(range(101, 111))
REPEAT_SEEDS = list(range(111, 121))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_rev():
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def spread_row(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def seed_set(workload, seeds, seconds, bounds):
    """(runs, end-to-end rows) of untraced runs of ``workload`` over ``seeds``."""
    values, counts = {}, []
    for seed in seeds:
        res = run(workload, seed, seconds, 0)
        counts.append([res["correct"], res["attempted"], res["failed"]])
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(workload, seed, counts[-1], {k: round(v[-1], 4) for k, v in values.items()},
              flush=True)
    rows = {name: dict(spread_row(v), bound=bounds[name]) for name, v in values.items()}
    for name, row in rows.items():
        print("%s %-12s median %.4f spread %.4f (bound %.2f)"
              % (workload, name, row["median"], row["spread"], row["bound"]), flush=True)
    return counts, rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"run_seconds": seconds, "seeds": SEEDS, "layer_map": LAYER_MAP, "workloads": {},
           "repeat_set": {"seeds": REPEAT_SEEDS, "end_to_end": {}}}
    for w in (w["name"] for w in bench["workloads"]):
        counts, rows = seed_set(w, SEEDS, seconds, bounds)
        traced = run(w, SEEDS[0], seconds, 1)
        with open(".nbench/result-%s-%d-trace1.json" % (w, SEEDS[0])) as fh:
            out["machine"] = dict(json.load(fh)["machine"], git_rev=git_rev())
        out["workloads"][w] = {
            "runs": counts,
            "end_to_end": rows,
            "traced_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    for w in out["workloads"]:
        counts, rows = seed_set(w, REPEAT_SEEDS, seconds, bounds)
        out["repeat_set"]["end_to_end"][w] = rows
        for name, row in rows.items():
            first = out["workloads"][w]["end_to_end"][name]["median"]
            print("%s %-12s median moved %+.4f" % (w, name, row["median"] / first - 1.0),
                  flush=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
