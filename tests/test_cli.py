import argparse
import hashlib
import time

import numpy as np
import pytest

from pgrestore import cli, io
from pgrestore.cli import main
from pgrestore.denoisers import WienerPrior, make_denoiser
from pgrestore.kernels import delta_kernel, gaussian_kernel


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_sample_image(path, size=16, seed=0, channels=1):
    prior = WienerPrior.smooth_default((size, size), amplitude=0.2)
    x = prior.sample(np.random.default_rng(seed), channels=channels) + 0.5
    io.write_image(path, np.clip(x, 0.0, 1.0))
    return io.read_image(path)


@pytest.fixture
def workspace(tmp_path):
    io.write_kernel(tmp_path / "delta.txt", delta_kernel(1))
    io.write_kernel(tmp_path / "gauss.txt", gaussian_kernel(5, 10.0))
    mask = np.random.default_rng(1).random((16, 16)) < 0.5
    mask[0, 0] = True
    io.write_mask(tmp_path / "mask.txt", mask)
    write_sample_image(tmp_path / "source.pgm")
    return tmp_path


def subcommand_flags(name):
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for action in subparsers.choices[name]._actions for flag in action.option_strings}


class TestSurface:
    def test_parser_is_built_once(self, monkeypatch, capsys):
        cli._parser()
        monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert main(["eval"]) == 2  # argparse: the required flags are missing
        assert "--restored" in capsys.readouterr().err

    def test_degrade_flags(self):
        assert subcommand_flags("degrade") == {
            "-h", "--help", "--input", "--output", "--task", "--kernel", "--scale", "--mask",
            "--sigma-e", "--seed", "--config",
        }

    def test_restore_flags(self):
        assert subcommand_flags("restore") == {
            "-h", "--help", "--measurement", "--output", "--method", "--denoiser",
            "--sigma-e", "--gamma", "--zeta", "--eta-tilde", "--T", "--seed",
            "--step-size-policy", "--export-image", "--config",
        }
        assert list(cli.RESTORE_OPTIONS) == [
            "measurement", "output", "method", "denoiser", "sigma_e", "gamma", "zeta",
            "eta_tilde", "T", "seed", "step_size_policy", "export_image",
        ]

    def test_verify_flags(self):
        assert subcommand_flags("verify") == {"-h", "--help", "--claims"}

    @pytest.mark.parametrize("argv,bad", [
        (["restore", "--method", "bogus"], "bogus"),
        (["restore", "--step-size-policy", "nope"], "nope"),
        (["restore", "--config", "{config}"], "bogus"),
        (["degrade", "--task", "bogus"], "bogus"),
    ])
    def test_bad_value_is_validation_error(self, workspace, capsys, argv, bad):
        main([
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / "y.pgt"),
            "--task", "deblur", "--kernel", str(workspace / "gauss.txt"),
        ])
        (workspace / "bad.cfg").write_text("method=bogus\n")
        paths = {
            "restore": ["--measurement", str(workspace / "y.pgt"), "--T", "4"],
            "degrade": ["--input", str(workspace / "source.pgm")],
        }[argv[0]]
        out = workspace / "out.pgt"
        argv = [arg.format(config=workspace / "bad.cfg") for arg in argv]
        capsys.readouterr()
        code = main(argv + paths + ["--output", str(out)])
        assert code == 2
        assert repr(bad) in capsys.readouterr().err
        assert not out.exists()


class TestDegrade:
    def test_writes_measurement_and_sidecar(self, workspace):
        code = main([
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / "y.pgt"),
            "--task", "deblur", "--kernel", str(workspace / "gauss.txt"),
            "--sigma-e", "0.05", "--seed", "3",
        ])
        assert code == 0
        assert (workspace / "y.pgt").exists()
        sidecar = io.read_config(workspace / "y.pgt.meta")
        assert sidecar["task"] == "deblur"
        assert float(sidecar["sigma_e"]) == 0.05
        # restore derives the image shape from the measurement
        assert not {"channels", "height", "width"} & set(sidecar)

    def test_deblur_sidecar_records_no_scale(self, workspace):
        main([
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / "y.pgt"),
            "--task", "deblur", "--kernel", str(workspace / "gauss.txt"),
        ])
        assert io.read_config(workspace / "y.pgt.meta")["scale"] == "None"

    def test_sr_without_scale_is_validation_error(self, workspace, capsys):
        code = main([
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / "y.pgt"),
            "--task", "sr", "--kernel", str(workspace / "gauss.txt"),
        ])
        assert code == 2
        assert "sr requires --scale" in capsys.readouterr().err
        assert not (workspace / "y.pgt").exists()

    def test_sigma_zero_recorded_exactly(self, workspace):
        main([
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / "clean.pgt"),
            "--task", "deblur", "--kernel", str(workspace / "gauss.txt"),
        ])
        sidecar = io.read_config(workspace / "clean.pgt.meta")
        assert float(sidecar["sigma_e"]) == 0.0

    def test_same_seed_is_byte_identical(self, workspace):
        argv = [
            "degrade", "--input", str(workspace / "source.pgm"),
            "--task", "deblur", "--kernel", str(workspace / "gauss.txt"),
            "--sigma-e", "0.1", "--seed", "9",
        ]
        main(argv + ["--output", str(workspace / "a.pgt")])
        main(argv + ["--output", str(workspace / "b.pgt")])
        assert file_hash(workspace / "a.pgt") == file_hash(workspace / "b.pgt")

    def test_sidecar_config_reproduces_measurement(self, workspace):
        argv = [
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / "y.pgt"),
            "--task", "deblur", "--kernel", str(workspace / "gauss.txt"),
            "--sigma-e", "0.07", "--seed", "4",
        ]
        main(argv)
        first = file_hash(workspace / "y.pgt")
        assert main(["degrade", "--config", str(workspace / "y.pgt.meta")]) == 0
        assert file_hash(workspace / "y.pgt") == first

    def test_missing_input_is_validation_error(self, workspace, capsys):
        code = main([
            "degrade", "--input", str(workspace / "nope.pgm"),
            "--output", str(workspace / "y.pgt"),
            "--task", "deblur", "--kernel", str(workspace / "gauss.txt"),
        ])
        assert code == 2
        assert "nope.pgm" in capsys.readouterr().err

    @pytest.mark.parametrize("task,shape,extra", [
        ("deblur", (5, 5), []),
        ("sr", (5, 5), ["--scale", "2"]),
        ("sr", (0, 0), ["--scale", "2"]),
    ], ids=["deblur-zeros", "sr-zeros", "sr-empty"])
    def test_kernel_without_nonzero_tap_is_validation_error(
        self, workspace, capsys, task, shape, extra
    ):
        io.write_kernel(workspace / "zero.txt", np.zeros(shape))
        code = main([
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / "y.pgt"),
            "--task", task, "--kernel", str(workspace / "zero.txt"), *extra,
        ])
        assert code == 2
        assert "no nonzero tap" in capsys.readouterr().err
        assert not (workspace / "y.pgt").exists()

    @pytest.mark.parametrize("task,grid,message", [
        ("deblur", np.ones((4, 4)) / 16, "kernel sides must be odd"),
        ("deblur", np.ones((17, 17)) / 289, "larger than grid"),
        ("deblur", np.zeros((3, 3)), "no nonzero tap"),
        ("inpaint", np.ones((8, 8), dtype=bool), "does not match image"),
        ("inpaint", np.zeros((16, 16), dtype=bool), "keeps no pixels"),
        ("inpaint", np.zeros((0, 0), dtype=bool), "does not match image"),
    ], ids=["even-kernel", "kernel-17", "zero-kernel", "mask-8", "zero-mask", "empty-mask"])
    def test_operator_error_names_its_file(self, workspace, capsys, task, grid, message):
        if task == "deblur":
            path, flags = workspace / "k.txt", ["--kernel", str(workspace / "k.txt")]
            io.write_kernel(path, grid)
        else:
            path, flags = workspace / "m.txt", ["--mask", str(workspace / "m.txt")]
            io.write_mask(path, grid)
        code = main(["degrade", "--input", str(workspace / "source.pgm"),
                     "--output", str(workspace / "y.pgt"), "--task", task, *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {path}: " in err and message in err
        assert not (workspace / "y.pgt").exists()


class TestRestore:
    def degrade_identity(self, workspace):
        main([
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / "y.pgt"),
            "--task", "deblur", "--kernel", str(workspace / "delta.txt"),
        ])

    def test_identity_round_trip(self, workspace, capsys):
        # oracle settings on the identity task reproduce the input
        self.degrade_identity(workspace)
        code = main([
            "restore", "--measurement", str(workspace / "y.pgt"),
            "--output", str(workspace / "x.pgt"),
            "--method", "idbp", "--denoiser", "identity", "--T", "8",
        ])
        assert code == 0
        restored = io.read_tensor(workspace / "x.pgt")
        source = io.read_image(workspace / "source.pgm")
        assert float(np.abs(restored - source).max()) <= 1e-6
        capsys.readouterr()
        code = main([
            "eval", "--restored", str(workspace / "x.pgt"),
            "--reference", str(workspace / "source.pgm"),
        ])
        assert code == 0
        psnr_value = float(capsys.readouterr().out.splitlines()[0].split()[1])
        assert psnr_value > 100.0

    def test_missing_kernel_exit_code_names_path(self, workspace, capsys):
        self.degrade_identity(workspace)
        meta = io.read_config(workspace / "y.pgt.meta")
        io.write_config(workspace / "y.pgt.meta",
                        {**meta, "kernel": str(workspace / "missing_kernel.txt")})
        code = main([
            "restore", "--measurement", str(workspace / "y.pgt"),
            "--output", str(workspace / "x.pgt"),
            "--method", "idbp", "--denoiser", "identity", "--T", "4",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "kernel file not found" in err and "missing_kernel.txt" in err

    def test_idbp_equals_idpg_when_noiseless(self, workspace):
        self.degrade_identity(workspace)
        for method, out in (("idbp", "a.pgt"), ("idpg", "b.pgt")):
            main([
                "restore", "--measurement", str(workspace / "y.pgt"),
                "--output", str(workspace / out),
                "--method", method, "--denoiser", "wiener", "--T", "10",
                "--gamma", "8.0", "--seed", "5",
            ])
        assert file_hash(workspace / "a.pgt") == file_hash(workspace / "b.pgt")

    def test_config_echo_reproduces_bit_exactly(self, workspace):
        main([
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / "y.pgt"),
            "--task", "deblur", "--kernel", str(workspace / "gauss.txt"),
            "--sigma-e", "0.05", "--seed", "2",
        ])
        code = main([
            "restore", "--measurement", str(workspace / "y.pgt"),
            "--output", str(workspace / "x.pgt"),
            "--method", "ddpg", "--denoiser", "wiener", "--T", "12", "--seed", "4",
            "--zeta", "0.3",
        ])
        assert code == 0
        first = file_hash(workspace / "x.pgt")
        echoed = io.read_config(workspace / "x.pgt.cfg")
        assert echoed["method"] == "ddpg" and echoed["seed"] == "4"
        code = main(["restore", "--config", str(workspace / "x.pgt.cfg")])
        assert code == 0
        assert file_hash(workspace / "x.pgt") == first
        # a config echoed before the LS scale, the beta endpoints, the sidecar
        # path, the operator settings and the image shape retired still
        # reproduces, and so does a sidecar that carries the image shape: each
        # key is accepted and ignored, and a unit-sum blur derives c = 1 exactly
        shape = {"channels": "1", "height": "16", "width": "16"}
        retired = {"sidecar": str(workspace / "y.pgt.meta"), "beta_start": "0.0001",
                   "beta_end": "0.02", "task": "deblur", "kernel": str(workspace / "gauss.txt"),
                   "scale": "None", "mask": "None", "c": "1.0", **shape}
        assert set(retired) == set(cli.RETIRED_KEYS)
        io.write_config(workspace / "old.cfg", {**echoed, **retired})
        meta = io.read_config(workspace / "y.pgt.meta")
        io.write_config(workspace / "y.pgt.meta", {**meta, **shape})
        (workspace / "x.pgt").unlink()
        assert main(["restore", "--config", str(workspace / "old.cfg")]) == 0
        assert file_hash(workspace / "x.pgt") == first

    def test_unknown_sidecar_key_names_key_and_sidecar(self, workspace, capsys):
        self.degrade_identity(workspace)
        meta = io.read_config(workspace / "y.pgt.meta")
        io.write_config(workspace / "y.pgt.meta", {**meta, "sigma": "0.1"})
        capsys.readouterr()
        code = main(["restore", "--measurement", str(workspace / "y.pgt"),
                     "--output", str(workspace / "x.pgt"), "--method", "idpg", "--T", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'sigma'" in err and "y.pgt.meta" in err
        assert not (workspace / "x.pgt").exists()

    def test_operator_error_names_the_sidecars_file(self, workspace, capsys):
        self.degrade_identity(workspace)
        io.write_kernel(workspace / "even.txt", np.ones((2, 2)) / 4)
        meta = io.read_config(workspace / "y.pgt.meta")
        io.write_config(workspace / "y.pgt.meta", {**meta, "kernel": str(workspace / "even.txt")})
        capsys.readouterr()
        code = main(["restore", "--measurement", str(workspace / "y.pgt"),
                     "--output", str(workspace / "x.pgt"), "--method", "idpg", "--T", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {workspace / 'even.txt'}: kernel sides must be odd" in err

    @pytest.mark.parametrize("command,flags", [
        ("restore", ["--method", "ddpg"]),
        ("restore", ["--method", "idpg"]),
        ("degrade", ["--sigma-e", "0.05"]),
        ("degrade", []),
    ], ids=["restore-ddpg", "restore-idpg", "degrade-noisy", "degrade-noiseless"])
    def test_negative_seed_names_key(self, workspace, capsys, command, flags):
        # numpy rejected it only where it drew, naming no key; elsewhere it was echoed
        self.degrade_identity(workspace)
        paths = {
            "restore": ["--measurement", str(workspace / "y.pgt"), "--T", "4"],
            "degrade": ["--input", str(workspace / "source.pgm"), "--task", "deblur",
                        "--kernel", str(workspace / "delta.txt")],
        }[command]
        out = workspace / "out.pgt"
        capsys.readouterr()
        assert main([command, *paths, *flags, "--seed", "-1", "--output", str(out)]) == 2
        assert "seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_misspelled_config_key_is_validation_error(self, workspace, capsys):
        self.degrade_identity(workspace)
        io.write_config(workspace / "typo.cfg", {
            "measurement": str(workspace / "y.pgt"), "output": str(workspace / "x.pgt"),
            "method": "idpg", "T": "4", "gama": "2",
        })
        assert main(["restore", "--config", str(workspace / "typo.cfg")]) == 2
        err = capsys.readouterr().err
        assert "'gama'" in err and "typo.cfg" in err
        assert not (workspace / "x.pgt").exists()
        # degrade's sidecar keys are accepted by degrade only
        meta = io.read_config(workspace / "y.pgt.meta")
        io.write_config(workspace / "y.cfg", {**meta, "sigma": "0.1"})
        assert main(["degrade", "--config", str(workspace / "y.cfg")]) == 2
        assert "'sigma'" in capsys.readouterr().err
        io.write_config(workspace / "x.cfg", {**meta, "method": "idpg", "T": "4"})
        assert main(["restore", "--config", str(workspace / "x.cfg")]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_unparsable_config_value_names_key_and_file(self, workspace, capsys):
        self.degrade_identity(workspace)
        io.write_config(workspace / "bad.cfg", {
            "measurement": str(workspace / "y.pgt"), "output": str(workspace / "x.pgt"),
            "method": "idpg", "T": "abc",
        })
        assert main(["restore", "--config", str(workspace / "bad.cfg")]) == 2
        err = capsys.readouterr().err
        assert "T='abc' is not a valid int" in err and "bad.cfg" in err
        assert not (workspace / "x.pgt").exists()

    @pytest.mark.parametrize("command,flags,key,source", [
        ("restore", ["--sigma-e", "nan"], "sigma_e", "command line"),
        ("degrade", ["--sigma-e", "nan"], "sigma_e", "command line"),
        ("restore", ["--eta-tilde", "nan"], "eta_tilde", "command line"),
        ("restore", ["--eta-tilde", "inf"], "eta_tilde", "command line"),
        ("restore", ["--gamma", "inf"], "gamma", "command line"),
        ("restore", ["--config", "{nan_cfg}"], "gamma", "nan.cfg"),
        ("restore", [], "sigma_e", "y.pgt.meta"),
    ], ids=["restore-sigma-e-nan", "degrade-sigma-e-nan", "eta-tilde-nan", "eta-tilde-inf",
            "gamma-inf", "gamma-nan-in-cfg", "sigma-e-nan-in-sidecar"])
    def test_non_finite_setting_names_key_and_source(
        self, workspace, capsys, command, flags, key, source
    ):
        # NaN passes every `x < 0` check: these ran as the noiseless
        # configuration, or failed only inside the loop
        self.degrade_identity(workspace)
        if source == "y.pgt.meta":
            meta = io.read_config(workspace / "y.pgt.meta")
            io.write_config(workspace / "y.pgt.meta", {**meta, "sigma_e": "nan"})
        io.write_config(workspace / "nan.cfg", {"gamma": "nan"})
        out = workspace / "out.pgt"
        paths = {
            "restore": ["--measurement", str(workspace / "y.pgt"), "--method", "idpg",
                        "--T", "4"],
            "degrade": ["--input", str(workspace / "source.pgm"), "--task", "deblur",
                        "--kernel", str(workspace / "delta.txt")],
        }[command]
        flags = [flag.format(nan_cfg=workspace / "nan.cfg") for flag in flags]
        capsys.readouterr()
        assert main([command, *flags, *paths, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{key}=" in err and "is not a finite number" in err and source in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--output", "--export-image"])
    def test_output_naming_a_directory_fails_before_the_run(
        self, workspace, monkeypatch, capsys, flag
    ):
        runs = []
        monkeypatch.setattr(cli, "run_scheme", lambda *args: runs.append(args))
        self.degrade_identity(workspace)
        (workspace / "taken").mkdir()
        paths = {"--output": str(workspace / "x.pgt"), "--export-image": str(workspace / "x.pgm")}
        paths[flag] = str(workspace / "taken")
        argv = ["restore", "--measurement", str(workspace / "y.pgt"), "--method", "idpg",
                "--T", "4"]
        for name, path in paths.items():
            argv += [name, path]
        capsys.readouterr()
        assert main(argv) == 2
        assert f"{flag} {workspace / 'taken'} is a directory" in capsys.readouterr().err
        assert runs == []

    @pytest.mark.parametrize("where,key", [
        *(("restore", key) for key in
          ("T", "gamma", "seed", "zeta", "eta_tilde", "denoiser")),
        ("degrade", "sigma_e"),
        ("sidecar", "sigma_e"),
    ])
    def test_none_for_a_setting_with_a_default_is_validation_error(
        self, workspace, capsys, where, key
    ):
        # echoed files hold None only for settings whose default is None
        self.degrade_identity(workspace)
        meta = io.read_config(workspace / "y.pgt.meta")
        out = workspace / "x.pgt"
        if where == "degrade":
            config = {**meta, "output": str(out)}
        else:
            config = {"measurement": str(workspace / "y.pgt"), "output": str(out),
                      "method": "idpg", "T": "4"}
        if where == "sidecar":
            io.write_config(workspace / "y.pgt.meta", {**meta, key: "None"})
        else:
            config[key] = "None"
        io.write_config(workspace / "none.cfg", config)
        command = "degrade" if where == "degrade" else "restore"
        capsys.readouterr()
        assert main([command, "--config", str(workspace / "none.cfg")]) == 2
        assert f"{key} must not be None" in capsys.readouterr().err
        assert not out.exists()

    def test_kernel_with_norm_three_restores_finite(self, workspace):
        # taps summing to 3 make ||A|| = 3; the derived LS scale 1/9 keeps
        # the pure-LS run bounded, and the echoed config records no scale
        io.write_kernel(workspace / "gauss3.txt", 3.0 * gaussian_kernel(5, 1.0))
        main([
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / "y.pgt"),
            "--task", "deblur", "--kernel", str(workspace / "gauss3.txt"),
            "--sigma-e", "0.05", "--seed", "2",
        ])
        code = main([
            "restore", "--measurement", str(workspace / "y.pgt"),
            "--output", str(workspace / "x.pgt"),
            "--method", "pgm_ls", "--denoiser", "wiener", "--T", "30",
        ])
        assert code == 0
        x = io.read_tensor(workspace / "x.pgt")
        assert np.isfinite(x).all() and np.abs(x).max() < 10.0
        assert "c" not in io.read_config(workspace / "x.pgt.cfg")

    def test_hash_in_output_path_round_trips(self, workspace):
        self.degrade_identity(workspace)
        out = workspace / "run#1" / "x.pgt"
        code = main([
            "restore", "--measurement", str(workspace / "y.pgt"), "--output", str(out),
            "--method", "ddpg", "--denoiser", "wiener", "--T", "6", "--seed", "2",
        ])
        assert code == 0
        first = file_hash(out)
        out.unlink()
        assert main(["restore", "--config", str(out) + ".cfg"]) == 0
        assert file_hash(out) == first
        assert not (workspace / "run").exists()

    def test_sidecar_shape_mismatch_is_validation_error(self, workspace, capsys):
        # a mask fixes the image's sides, so its measurement must hold one value
        # per kept pixel; the sidecar here names a mask that keeps one more
        main([
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / "y.pgt"),
            "--task", "inpaint", "--mask", str(workspace / "mask.txt"),
        ])
        mask = io.read_mask(workspace / "mask.txt")
        mask[np.unravel_index(np.argmin(mask), mask.shape)] = True
        io.write_mask(workspace / "more.txt", mask)
        meta = io.read_config(workspace / "y.pgt.meta")
        io.write_config(workspace / "y.pgt.meta", {**meta, "mask": str(workspace / "more.txt")})
        code = main([
            "restore", "--measurement", str(workspace / "y.pgt"),
            "--output", str(workspace / "x.pgt"),
            "--method", "idpg", "--denoiser", "wiener", "--T", "4",
        ])
        assert code == 2
        assert "does not match" in capsys.readouterr().err
        assert not (workspace / "x.pgt").exists()

    def test_sr_sidecar_without_scale_is_validation_error(self, workspace, capsys):
        main([
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / "y.pgt"),
            "--task", "sr", "--kernel", str(workspace / "gauss.txt"), "--scale", "2",
        ])
        meta = io.read_config(workspace / "y.pgt.meta")
        io.write_config(workspace / "y.pgt.meta", {**meta, "scale": "None"})
        code = main([
            "restore", "--measurement", str(workspace / "y.pgt"),
            "--output", str(workspace / "x.pgt"), "--method", "idpg", "--T", "4",
        ])
        assert code == 2
        assert "sr requires --scale" in capsys.readouterr().err
        assert not (workspace / "x.pgt").exists()

    @pytest.mark.parametrize("task,flags,shape", [
        ("deblur", ["--kernel", "gauss.txt"], (16, 16)),
        ("sr", ["--kernel", "gauss.txt", "--scale", "2"], (8, 8)),
        ("sr", ["--kernel", "gauss.txt", "--scale", "4"], (4, 4)),
        ("inpaint", ["--mask", "mask.txt"], None),
    ], ids=["deblur", "sr2", "sr4", "inpaint"])
    def test_restore_derives_the_image_shape_from_the_measurement(
            self, workspace, task, flags, shape):
        write_sample_image(workspace / "color.ppm", channels=3)
        flags = [str(workspace / flag) if flag.endswith(".txt") else flag for flag in flags]
        assert main(["degrade", "--input", str(workspace / "color.ppm"),
                     "--output", str(workspace / "y.pgt"), "--task", task, *flags]) == 0
        kept = int(io.read_mask(workspace / "mask.txt").sum())
        assert io.read_tensor(workspace / "y.pgt").shape == (3, *(shape or (kept, 1)))
        assert main(["restore", "--measurement", str(workspace / "y.pgt"),
                     "--output", str(workspace / "x.pgt"), "--method", "idpg", "--T", "4"]) == 0
        assert io.read_tensor(workspace / "x.pgt").shape == (3, 16, 16)

    def test_non_finite_iterate_is_runtime_error(self, workspace, monkeypatch, capsys):
        def nan_denoiser(spec, prior):
            denoiser = make_denoiser(spec, prior)
            return lambda x, sigma: denoiser(x, sigma) * np.nan

        monkeypatch.setattr(cli, "make_denoiser", nan_denoiser)
        self.degrade_identity(workspace)
        code = main([
            "restore", "--measurement", str(workspace / "y.pgt"),
            "--output", str(workspace / "x.pgt"),
            "--method", "idpg", "--denoiser", "wiener", "--T", "4",
        ])
        assert code == 1
        assert "t=4, stage denoise" in capsys.readouterr().err
        assert not (workspace / "x.pgt").exists()

    def test_trace_and_image_export(self, workspace):
        self.degrade_identity(workspace)
        main([
            "restore", "--measurement", str(workspace / "y.pgt"),
            "--output", str(workspace / "x.pgt"),
            "--method", "idpg", "--denoiser", "wiener", "--T", "6",
            "--export-image", str(workspace / "x.pgm"),
        ])
        lines = (workspace / "x.pgt.trace").read_text().strip().splitlines()
        assert len(lines) == 6 and len(lines[0].split()) == 4
        exported = io.read_image(workspace / "x.pgm")
        assert exported.shape == (1, 16, 16)
        assert exported.min() >= 0.0 and exported.max() <= 1.0

    @pytest.mark.parametrize("task,extra", [
        ("sr", ["--scale", "2"]),
        ("inpaint", []),
    ])
    def test_other_tasks_round_trip(self, workspace, task, extra):
        kernel_args = (
            ["--kernel", str(workspace / "gauss.txt")] if task == "sr"
            else ["--mask", str(workspace / "mask.txt")]
        )
        code = main([
            "degrade", "--input", str(workspace / "source.pgm"),
            "--output", str(workspace / f"{task}.pgt"), "--task", task,
            *kernel_args, *extra, "--sigma-e", "0.02",
        ])
        assert code == 0
        code = main([
            "restore", "--measurement", str(workspace / f"{task}.pgt"),
            "--output", str(workspace / f"{task}_hat.pgt"),
            "--method", "idpg", "--denoiser", "wiener", "--T", "10",
        ])
        assert code == 0
        assert io.read_tensor(workspace / f"{task}_hat.pgt").shape == (1, 16, 16)


class TestEval:
    def make_pair(self, tmp_path, name, offset, rng):
        ref = 0.5 + 0.3 * (rng.random((1, 8, 8)) - 0.5)
        io.write_tensor(tmp_path / f"{name}_ref.pgt", ref)
        io.write_tensor(tmp_path / f"{name}_out.pgt", ref + offset)
        return str(tmp_path / f"{name}_out.pgt"), str(tmp_path / f"{name}_ref.pgt")

    def test_identical_files_print_inf(self, tmp_path, rng, capsys):
        out, _ = self.make_pair(tmp_path, "same", 0.0, rng)
        code = main(["eval", "--restored", out, "--reference", out])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[1] == "inf"
        assert lines[1].split()[1] == "inf"

    def test_offset_pair_is_twenty_db(self, tmp_path, rng, capsys):
        out, ref = self.make_pair(tmp_path, "off", 0.1, rng)
        main(["eval", "--restored", out, "--reference", ref])
        value = float(capsys.readouterr().out.splitlines()[0].split()[1])
        assert value == pytest.approx(20.0, abs=1e-3)

    def test_batch_mean_is_arithmetic_mean(self, tmp_path, rng, capsys):
        pairs = [self.make_pair(tmp_path, f"p{i}", off, rng)
                 for i, off in enumerate((0.1, 0.2, 0.25))]
        code = main([
            "eval",
            "--restored", *[p[0] for p in pairs],
            "--reference", *[p[1] for p in pairs],
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        per_image = [float(line.split()[1]) for line in lines[:3]]
        assert lines[3].startswith("mean ")
        mean_value = float(lines[3].split()[1])
        assert mean_value == pytest.approx(sum(per_image) / 3.0, abs=1e-6)

    def test_count_mismatch_rejected(self, tmp_path, rng, capsys):
        out, ref = self.make_pair(tmp_path, "solo", 0.1, rng)
        code = main(["eval", "--restored", out, out, "--reference", ref])
        assert code == 2


class TestVerify:
    def test_selected_claims_only(self, capsys):
        code = main(["verify", "--claims", "4"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 1 and lines[0].startswith("claim4: PASS")

    def test_claim_names_accepted(self, capsys):
        code = main(["verify", "--claims", "claim1,claim2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "claim1: PASS" in out and "claim2: PASS" in out

    def test_unknown_claim_is_validation_error(self, capsys):
        assert main(["verify", "--claims", "9"]) == 2

    @pytest.mark.parametrize("selection", ["", ",", " , "])
    def test_empty_selection_is_validation_error(self, selection, capsys):
        assert main(["verify", "--claims", selection]) == 2
        assert "no claims selected" in capsys.readouterr().err

    def test_each_selected_check_runs_once_in_the_order_given(self, capsys):
        assert main(["verify", "--claims", "4,1,claim4,4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines if line] == ["claim4", "claim1"]

    def test_full_battery_passes(self, capsys):
        # each check's workload is fixed, and the committed seeds are calibrated for it
        code = main(["verify"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        workload = {
            "claim1": "25/25 instances",
            "claim2": "50/50 pairs",
            "claim3": "250/250 steps",
            "claim4": "50/50 instances",
            "theorem1": "orderings 100/100",
        }
        assert [line.split(":")[0] for line in lines] == list(workload)
        for line, (name, count) in zip(lines, workload.items()):
            assert line.startswith(f"{name}: PASS (") and count in line
        assert "20000 draws" in lines[-1]


def test_ddpg_on_64px_deblurring_completes_quickly(tmp_path):
    io.write_kernel(tmp_path / "gauss.txt", gaussian_kernel(5, 10.0))
    write_sample_image(tmp_path / "src.pgm", size=64, seed=7)
    main([
        "degrade", "--input", str(tmp_path / "src.pgm"),
        "--output", str(tmp_path / "y.pgt"),
        "--task", "deblur", "--kernel", str(tmp_path / "gauss.txt"),
        "--sigma-e", "0.05", "--seed", "7",
    ])
    start = time.perf_counter()
    code = main([
        "restore", "--measurement", str(tmp_path / "y.pgt"),
        "--output", str(tmp_path / "x.pgt"),
        "--method", "ddpg", "--denoiser", "wiener",
        "--gamma", "8", "--zeta", "0.5", "--eta-tilde", "0.7",
        "--T", "100", "--seed", "7",
    ])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 30.0
    assert io.read_tensor(tmp_path / "x.pgt").shape == (1, 64, 64)
