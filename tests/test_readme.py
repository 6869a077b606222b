"""The README's CLI walkthrough and library example run as written, so the
docs cannot name a flag or a keyword that the package no longer has."""

import re
import shlex
from pathlib import Path

import numpy as np

from pgrestore import cli, io
from pgrestore.denoisers import WienerPrior
from test_scripts import run_script

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, language: str) -> str:
    """The first ``language`` code block under the README's ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def shell_commands(block: str) -> list[list[str]]:
    """Each command of a bash block as argv, with ``\\`` continuations joined."""
    joined = re.sub(r"\\\n\s*", " ", block)
    return [argv for argv in (shlex.split(line, comments=True) for line in joined.splitlines())
            if argv]


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    prior = WienerPrior.smooth_default((32, 32), amplitude=0.2)
    face = prior.sample(np.random.default_rng(0)) + 0.5
    io.write_image(tmp_path / "face.pgm", np.clip(face, 0.0, 1.0))
    monkeypatch.chdir(tmp_path)
    commands = shell_commands(readme_block("CLI walkthrough", "bash"))
    ran = []
    for argv in commands:
        if argv[:2] == ["python", "scripts/make_kernels.py"]:
            result = run_script("make_kernels.py", *argv[2:])
            assert result.returncode == 0, result.stderr
        elif argv[:2] == ["pgrestore", "verify"]:
            # the battery runs in tests/test_cli.py; here its flags must parse
            cli._parser().parse_args(argv[1:])
        else:
            assert argv[0] == "pgrestore" and argv[1] in ("degrade", "restore", "eval"), argv
            assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        ran.append(argv[1] if argv[0] == "pgrestore" else argv[0])
    assert {"python", "degrade", "restore", "eval", "verify"} <= set(ran)


def test_library_example_runs(capsys):
    exec(compile(readme_block("Library use", "python"), str(README), "exec"), {})
    assert "vs observed" in capsys.readouterr().out
