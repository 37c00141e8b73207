"""The check and refute records of the benchmark's seed-101 ``regularity``
jobs, pinned by sha256: the viscosity checker's stream stays byte for byte
what it was when these digests were recorded (with the per-node checker).

The jobs come from ``bench/bench_jobs.py``, with their input grids written
under a relative ``inputs`` directory, so the ``input`` path that each
record's ``config`` echoes does not depend on where the test runs."""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

from nelliptic import cli

_spec = importlib.util.spec_from_file_location(
    "bench_jobs", Path(__file__).resolve().parents[1] / "bench" / "bench_jobs.py"
)
bench_jobs = importlib.util.module_from_spec(_spec)
sys.modules.setdefault(_spec.name, bench_jobs)  # dataclasses look their module up
_spec.loader.exec_module(bench_jobs)

DIGESTS = {
    "check-pucci": "d0e3e33a9e6ab917081a46666d6a9217a5cce764c437dbb029f98d7eefe1d827",
    "check-pmc": "f07361cd425c64048e4c9a48f6278616a64e99fad1ee6216d09e422622172d86",
    "refute-sub": "4ef51359848fb84dc3dd13eb06b34b581e6dd4407da713503b7633e47d913a4e",
    "refute-super": "7570dfb0acc813a25cec939ce1bf4ef44117fa044d89ae053ea75c0c2a5b4687",
}


def test_check_and_refute_streams_are_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    jobs, grids = bench_jobs.make_jobs("regularity", 101, "inputs")
    jobs = [job for job in jobs if job.cls in ("check", "refute")]
    used = {arg for job in jobs for arg in job.argv}
    bench_jobs.write_inputs([g for g in grids if g.path in used])
    digests = {}
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(job.argv)) == 0
        digests[job.name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digests == DIGESTS
