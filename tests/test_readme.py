"""The README's CLI examples run as written, in order, in a scratch directory."""

import json
import re
import shlex
from pathlib import Path

from nelliptic.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """argv of every `nelliptic ...` line of the sh block under `## CLI`."""
    text = README.read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [
        shlex.split(line)[1:]
        for line in block.splitlines()
        if line.startswith("nelliptic ")
    ]


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        rc = main(argv)
        out, err = capsys.readouterr()
        assert out.endswith("\n") and err == "", argv
        records = [json.loads(line) for line in out.splitlines()]
        assert all(isinstance(rec, dict) for rec in records), argv
        if argv[:3] == ["check", "--fixture", "pmc:0.3"]:
            # documented: this box has nodes on the singular sphere |x| = 1
            assert rc == 3, argv
            (rec,) = records
            assert rec["kind"] == "error" and rec["error"] == "SingularityError"
        else:
            assert rc == 0, argv
            assert all(rec["kind"] != "error" for rec in records), argv
    assert (tmp_path / "decay.csv").exists()
