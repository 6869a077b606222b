"""Smoke tests: the scripts under scripts/ run against the current package."""

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
