"""The check and refute records of the benchmark's seed-101 ``regularity``
jobs, pinned by sha256: the viscosity checker's stream stays byte for byte
what it was when these digests were recorded.

The jobs and the input grid descriptions come from ``bench/bench_jobs.py``.
The input grid is written here without BLAS, so the digests do not depend on
the OpenBLAS kernel; a child process checks them on a kernel without FMA.
Grids are written under a relative ``inputs`` directory, so the ``input``
path that each record's ``config`` echoes does not depend on where the test
runs. Run as a script, this file prints the digests as JSON."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from nelliptic import cli
from nelliptic.grid import GridFunction, write_grid

_spec = importlib.util.spec_from_file_location(
    "bench_jobs", Path(__file__).resolve().parents[1] / "bench" / "bench_jobs.py"
)
bench_jobs = importlib.util.module_from_spec(_spec)
sys.modules.setdefault(_spec.name, bench_jobs)  # dataclasses look their module up
_spec.loader.exec_module(bench_jobs)

DIGESTS = {
    "check-pucci": "d0e3e33a9e6ab917081a46666d6a9217a5cce764c437dbb029f98d7eefe1d827",
    "check-pmc": "f07361cd425c64048e4c9a48f6278616a64e99fad1ee6216d09e422622172d86",
    "refute-sub": "19e61b39e251d32c6eeab5bd66cae654d785df8b66f6b44ad8e056a0a951ee4f",
    "refute-super": "bbbccab5e93e6759ae8d0a316c2a0f5ff73ec2de3a5d2a005a93e413e43d8712",
}


def quadratic_values(fn, x):
    """c + p.x + x.H.x / 2 at the points x[N, 2], with no BLAS product: a gemv
    rounds differently on FMA and non-FMA kernels."""
    H = np.asarray(fn["H"])
    return fn["c"] + (x * np.asarray(fn["p"])).sum(-1) + 0.5 * np.einsum("ni,ij,nj->n", x, H, x)


def golden_digests():
    """sha256 of each check and refute job's stdout, run in the current
    directory."""
    jobs, grids = bench_jobs.make_jobs("regularity", 101, "inputs")
    jobs = [job for job in jobs if job.cls in ("check", "refute")]
    used = {arg for job in jobs for arg in job.argv}
    for g in grids:
        if g.path in used:
            os.makedirs(os.path.dirname(g.path), exist_ok=True)
            like = GridFunction.from_box([g.lo, g.lo], [g.hi, g.hi], g.h, dim=2)
            like.values = quadratic_values(g.fn, like.points()).reshape(like.shape)
            write_grid(like, g.path)
    digests = {}
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(job.argv)) == 0
        digests[job.name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digests


def test_check_and_refute_streams_are_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert golden_digests() == DIGESTS


def test_streams_do_not_depend_on_the_blas_kernel(tmp_path):
    # Prescott has neither AVX nor FMA; the variable acts on the child only
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    proc = subprocess.run([sys.executable, __file__], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == DIGESTS


if __name__ == "__main__":
    print(json.dumps(golden_digests()))
