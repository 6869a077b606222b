"""Smoke tests: the scripts under scripts/ run against the current package."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_guidance_ablation_runs_every_method():
    result = run_script("run_guidance_ablation.py", "--images", "2", "--steps", "10", "--size", "16")
    assert result.returncode == 0, result.stderr
    methods = [line.split()[0] for line in result.stdout.splitlines()[2:]]
    assert methods == ["idbp", "pgm_ls", "idpg", "ddpg"]
    for line in result.stdout.splitlines()[2:]:
        assert " mean " in line and " min " in line


def test_guidance_ablation_ddpg_does_not_start_from_the_ground_truth():
    # With T = 10, a DDPG run seeded like image i starts from the white noise
    # that made image i and lands far above IDPG (10.0 against 6.4 dB).
    result = run_script("run_guidance_ablation.py", "--images", "8", "--steps", "10")
    assert result.returncode == 0, result.stderr
    means = {line.split()[0]: float(line.split()[2]) for line in result.stdout.splitlines()[2:]}
    assert means["ddpg"] < means["idpg"]


def test_make_kernels_writes_files(tmp_path):
    out = tmp_path / "assets"
    result = run_script("make_kernels.py", "--out", str(out))
    assert result.returncode == 0, result.stderr
    expected = {"gauss5_std10.txt", "bicubic_x2.txt", "bicubic_x4.txt", "mask_half_32x32.txt"}
    assert {p.name for p in out.iterdir()} == expected
    assert all((out / name).stat().st_size > 0 for name in expected)


def source_counts(*paths):
    result = run_script("count_source.py", *map(str, paths))
    assert result.returncode == 0, result.stderr
    labels, values = zip(*(line.rsplit(": ", 1) for line in result.stdout.splitlines()))
    assert labels == ("settable values", "code lines (not blank, comments or docstrings)",
                      "public names")
    return dict(zip(("settable_values", "code_lines", "public_names"), map(int, values)))


def test_count_source_counts_a_file_or_the_package():
    package = source_counts()
    assert package == source_counts(ROOT / "src" / "pgrestore")
    assert 0 < source_counts(ROOT / "src" / "pgrestore" / "cli.py")["code_lines"] \
        < package["code_lines"]


def test_count_source_skips_derived_dataclass_fields(tmp_path):
    path = tmp_path / "fields.py"
    path.write_text(
        "from dataclasses import dataclass, field\n\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    given: float\n"
        "    also_given: int = field(default=1)\n"
        "    derived: float = field(init=False)\n\n"
        "def f(a, *rest, b=2, **more):\n"
        "    return lambda c: c\n")
    assert source_counts(path) == {"settable_values": 2 + 4 + 1, "code_lines": 8,
                                   "public_names": 0}


def test_count_source_counts_the_entries_of_literal_all_lists(tmp_path):
    listed, derived = tmp_path / "listed.py", tmp_path / "derived.py"
    listed.write_text('__all__ = ["a", "b"]\n\n'
                      'def a():\n    __all__ = ["not", "module", "level"]\n')
    derived.write_text('_NAMES = ("a", "b", "c")\n__all__ = list(_NAMES)\n')
    assert source_counts(listed)["public_names"] == 2
    assert source_counts(derived)["public_names"] == 0
    assert source_counts(tmp_path)["public_names"] == 2
    init = ROOT / "src" / "pgrestore" / "__init__.py"
    assert source_counts(init)["public_names"] == 0
    assert 0 < source_counts(ROOT / "src" / "pgrestore" / "schemes.py")["public_names"] \
        < source_counts()["public_names"]


def test_bench_trajectory_writes_the_next_free_file(tmp_path):
    (tmp_path / "BENCH_1.json").write_text("{}")
    result = run_script("bench_trajectory.py", "--sizes", "32", "--T", "5",
                        "--out-dir", str(tmp_path))
    assert result.returncode == 0, result.stderr
    record = json.loads((tmp_path / "BENCH_2.json").read_text())
    assert set(record) == {"provenance", "settings", "cells"}
    assert set(record["provenance"]) == {
        "git_sha", "git_dirty", "numpy", "python", "nproc", "source", "wall_s",
        "cpu_over_wall", "steal_jiffies"}
    assert record["provenance"]["source"] == source_counts()
    cells = {(c["task"], c["scale"], c["method"]): c for c in record["cells"]}
    assert len(cells) == len(record["cells"]) == 8
    for (task, scale, method), cell in cells.items():
        assert cell["size"] == 32 and cell["T"] == 5 and len(cell["ms_runs"]) == 3
        assert cell["ms"] == sorted(cell["ms_runs"])[1] > 0
        assert cell["minor_faults_per_iter"] >= 0
        # the Fourier-domain step makes 2 transforms and the mask's none; Wiener makes 2
        assert cell["transforms_per_iter"] == (2 if task == "inpaint" else 4)
    assert {scale for task, scale, _ in cells if task == "sr"} == {2, 4}

