"""Command-line interface: degrade, restore, eval, verify.

Every run is deterministic given its flags (all randomness is seeded),
and the commands that produce files also write the fully resolved
configuration next to their outputs, so any run can be reproduced
bit-exactly with ``--config <echoed file>``. Flags override config-file
values, which override defaults; each ``degrade``/``restore`` setting is
declared once, in that command's option table.

Exit codes: 0 success, 1 runtime failure (including failed verification
claims), 2 validation failure (bad flags, missing or malformed files).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import io
from .denoisers import WienerPrior, make_denoiser
from .linops import CircularConvolution, DownsampleConvolution, Mask, as_image
from .metrics import NoiseSpec, degrade, mse, psnr
from .schemes import make_ddpm_schedule, make_scheme_config, run_scheme

TASKS = ("deblur", "sr", "inpaint")

# One table per command, key -> (type, default, help). Each key is both a
# flag (--key, underscores as dashes) and a config-file key, and the table
# order is the key order of the echoed .meta/.cfg files. Values are checked
# where they are used, so a bad one fails alike from a flag or a file.
DEGRADE_OPTIONS = {
    "input": (str, None, "source image (.pgm/.ppm/.pgt)"),
    "output": (str, None, "measurement tensor (.pgt)"),
    "task": (str, None, "deblur | sr | inpaint"),
    "kernel": (str, None, "kernel text file (deblur, sr)"),
    "scale": (int, None, "downsampling factor (required for sr)"),
    "mask": (str, None, "mask text file (inpaint)"),
    "sigma_e": (float, 0.0, "measurement noise standard deviation"),
    "seed": (int, 0, "noise seed"),
}

# T and the beta endpoints are fixed convention (the LS scale is derived from
# ||A||); the rest are starting points that flags or a config file override.
RESTORE_OPTIONS = {
    "measurement": (str, None, "measurement tensor (.pgt)"),
    "sidecar": (str, None, "sidecar path (default <measurement>.meta)"),
    "output": (str, None, "restored tensor (.pgt)"),
    "method": (str, "ddpg", "idpg | idbp | pgm_ls | ddpg"),
    "denoiser": (str, "wiener", "identity | wiener | gauss[:kappa] | external:CMD"),
    "sigma_e": (float, None, "noise level (default: the sidecar's)"),
    "gamma": (float, 8.0, "BP-to-LS mix exponent, delta_t = alpha_bar_t ** gamma"),
    "zeta": (float, 0.5, "DDPG share of fresh noise, in [0, 1]"),
    "eta_tilde": (float, 0.7, "BP regularizer scale, eta = (2 sigma_e)^2 eta_tilde"),
    "T": (int, 100, "number of iterations"),
    "beta_start": (float, 1e-4, "first beta of the linear schedule"),
    "beta_end": (float, 0.02, "last beta of the linear schedule"),
    "seed": (int, 0, "DDPG random seed"),
    "step_size_policy": (str, "unit", "unit | ddim-ratio"),
    "export_image": (str, None, "8-bit image export path"),
    "task": (str, None, "override the sidecar's task"),
    "kernel": (str, None, "override the sidecar's kernel file"),
    "scale": (int, None, "override the sidecar's scale"),
    "mask": (str, None, "override the sidecar's mask file"),
}

# Keys a config file may hold besides a command's settings: the image shape
# that degrade adds to its .meta sidecar, and retired settings, which old
# echoed files still carry (the LS scale c is now derived from ||A||).
SIDECAR_SHAPE_KEYS = ("channels", "height", "width")
RETIRED_KEYS = ("c",)


def _coerce(options: dict, key: str, value, source):
    """A flag or config string as the option's type; "None" only where that is the default.

    ``source`` names where the string came from (a file, or the command
    line), for the message of a value that does not convert.
    """
    if not isinstance(value, str):
        return value
    kind, default, _ = options[key]
    if value == "None":
        if default is not None:
            raise ValueError(f"{key} must not be None (default {default})")
        return None
    return _convert(kind, key, value, source)


def _convert(kind, key: str, value: str, source):
    """``kind(value)``; a failure or a non-finite float names the key, the value and ``source``."""
    try:
        converted = kind(value)
    except ValueError:
        raise ValueError(f"{source}: {key}={value!r} is not a valid {kind.__name__}") from None
    if kind is float and not math.isfinite(converted):
        raise ValueError(f"{source}: {key}={value!r} is not a finite number")
    return converted


def _resolve(options: dict, config_path, flag_values: dict, echoed_keys=()) -> dict:
    """defaults < config file < explicit flags.

    A config key that is neither an option, one of ``echoed_keys`` nor a
    retired key is a validation error, so a misspelled key is not dropped.
    """
    resolved = {key: default for key, (_, default, _) in options.items()}
    if config_path:
        for key, value in io.read_config(config_path).items():
            if key in options:
                resolved[key] = _coerce(options, key, value, config_path)
            elif key not in echoed_keys and key not in RETIRED_KEYS:
                raise ValueError(f"{config_path}: unknown config key {key!r}")
    for key, value in flag_values.items():
        if key in options and value is not None:
            resolved[key] = _coerce(options, key, value, "command line")
    return resolved


def _require_file(path, what: str) -> Path:
    if path is None:
        raise ValueError(f"missing required {what}")
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def _build_operator(cfg: dict, image_shape):
    task = cfg.get("task")
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    if task == "deblur":
        kernel = io.read_kernel(_require_file(cfg.get("kernel"), "kernel file"))
        return CircularConvolution(kernel, image_shape)
    if task == "sr":
        kernel = io.read_kernel(_require_file(cfg.get("kernel"), "kernel file"))
        if cfg.get("scale") is None:
            raise ValueError("sr requires --scale")
        return DownsampleConvolution(kernel, int(cfg["scale"]), image_shape)
    mask = io.read_mask(_require_file(cfg.get("mask"), "mask file"))
    return Mask(mask, image_shape)


def _output_path(path, flag: str) -> Path:
    """``path`` as a file to write, checked before any work: given, and not a directory."""
    if path is None:
        raise ValueError(f"missing required {flag} path")
    p = Path(path)
    if p.is_dir():
        raise ValueError(f"{flag} {p} is a directory, not a file")
    return p


def _read_source(path) -> np.ndarray:
    p = _require_file(path, "input image")
    data = io.read_tensor(p) if p.suffix == ".pgt" else io.read_image(p)
    return as_image(data)


def _measurement_to_3d(y: np.ndarray) -> np.ndarray:
    return y if y.ndim == 3 else y[:, :, None]


def _fit_measurement(y: np.ndarray, op, path) -> np.ndarray:
    """``y`` in the operator's output shape, or its file form (c, kept, 1) for masks."""
    if y.shape in (op.output_shape, op.output_shape + (1,)):
        return y.reshape(op.output_shape)
    raise ValueError(
        f"{path}: measurement shape {y.shape} does not match the shape "
        f"{op.output_shape} that the sidecar's operator produces"
    )


def cmd_degrade(args) -> int:
    cfg = _resolve(DEGRADE_OPTIONS, args.config, vars(args), SIDECAR_SHAPE_KEYS)
    source = _read_source(cfg["input"])
    op = _build_operator(cfg, source.shape)
    out = _output_path(cfg["output"], "--output")
    y = degrade(op, source, NoiseSpec(sigma_e=cfg["sigma_e"], seed=cfg["seed"]))
    out.parent.mkdir(parents=True, exist_ok=True)
    io.write_tensor(out, _measurement_to_3d(y))
    sidecar = dict(cfg)
    sidecar.update(zip(SIDECAR_SHAPE_KEYS, source.shape), output=str(out))
    io.write_config(str(out) + ".meta", sidecar)
    print(f"wrote {out} and {out}.meta (sigma_e={cfg['sigma_e']}, seed={cfg['seed']})")
    return 0


def cmd_restore(args) -> int:
    cfg = _resolve(RESTORE_OPTIONS, args.config, vars(args))
    out = _output_path(cfg["output"], "--output")
    if cfg["export_image"]:
        _output_path(cfg["export_image"], "--export-image")
    meas_file = _require_file(cfg["measurement"], "measurement file")
    sidecar_path = cfg["sidecar"] or str(meas_file) + ".meta"
    sidecar = io.read_config(_require_file(sidecar_path, "measurement sidecar"))
    for key in ("task", "kernel", "scale", "mask"):
        if cfg.get(key) is None and key in sidecar:
            cfg[key] = _coerce(RESTORE_OPTIONS, key, sidecar[key], sidecar_path)
    if cfg["sigma_e"] is None:  # the sidecar is degrade's: its sigma_e is never None
        cfg["sigma_e"] = _coerce(DEGRADE_OPTIONS, "sigma_e", sidecar.get("sigma_e", "0.0"),
                                 sidecar_path)
    missing = [key for key in SIDECAR_SHAPE_KEYS if key not in sidecar]
    if missing:
        raise ValueError(f"{sidecar_path}: sidecar lacks the image shape key(s) "
                         f"{', '.join(missing)}, which degrade writes")
    image_shape = tuple(_convert(int, key, sidecar[key], sidecar_path)
                        for key in SIDECAR_SHAPE_KEYS)

    op = _build_operator(cfg, image_shape)
    y = io.read_tensor(meas_file)
    if not np.isfinite(y).all():
        raise ValueError(f"{meas_file}: measurement contains non-finite values")
    y = _fit_measurement(y, op, meas_file)
    # Unit-range images: smooth default prior around a 0.5 gray mean.
    prior = WienerPrior(spectrum=WienerPrior.smooth_default(image_shape[1:]).spectrum, mean=0.5)
    denoiser = make_denoiser(cfg["denoiser"], prior)
    schedule = make_ddpm_schedule(cfg["T"], cfg["beta_start"], cfg["beta_end"])
    scheme = make_scheme_config(
        cfg["method"],
        schedule,
        cfg["sigma_e"],
        gamma=cfg["gamma"],
        eta_tilde=cfg["eta_tilde"],
        zeta=cfg["zeta"],
        seed=cfg["seed"],
        step_size_policy=cfg["step_size_policy"],
    )
    x, trace = run_scheme(denoiser, op, y, scheme)

    out.parent.mkdir(parents=True, exist_ok=True)
    io.write_tensor(out, x)
    trace.save(str(out) + ".trace")
    if cfg["export_image"]:
        io.write_image(cfg["export_image"], np.clip(x, 0.0, 1.0))
    echo = dict(cfg)
    echo.update(measurement=str(meas_file), sidecar=str(sidecar_path), output=str(out))
    io.write_config(str(out) + ".cfg", echo)
    print(
        f"wrote {out} (method={cfg['method']}, T={cfg['T']}, seed={cfg['seed']}, "
        f"final residual {trace.residual_after[-1]:.6g})"
    )
    return 0


def cmd_eval(args) -> int:
    if len(args.restored) != len(args.reference):
        raise ValueError(
            f"{len(args.restored)} restored files but {len(args.reference)} references"
        )
    psnrs, mses = [], []
    for restored_path, reference_path in zip(args.restored, args.reference):
        restored = io.read_tensor(_require_file(restored_path, "restored file"))
        reference = _read_source(reference_path)
        restored = np.clip(restored, 0.0, 1.0)
        value_psnr = psnr(restored, reference, peak=args.peak)
        value_mse = mse(restored, reference)
        psnrs.append(value_psnr)
        mses.append(value_mse)
        print(f"{Path(restored_path).name} {value_psnr:.6f} {value_mse:.6g}")
    mean_psnr = sum(psnrs) / len(psnrs)
    mean_mse = sum(mses) / len(mses)
    print(f"mean {mean_psnr:.6f} {mean_mse:.6g}")
    return 0


def _parse_claims(text: str) -> list[str]:
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise ValueError("no claims selected")
    return [f"claim{token}" if token.isdigit() else token for token in tokens]


def cmd_verify(args) -> int:
    from .theory import run_verifier_battery  # only here: no other command needs the verifier

    results = run_verifier_battery(_parse_claims(args.claims) if args.claims else None)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgrestore",
        description="Solve linear inverse problems by guided iterative denoising.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = (
        ("degrade", "synthesize a measurement from an image", DEGRADE_OPTIONS, cmd_degrade),
        ("restore", "run a restoration scheme on a measurement", RESTORE_OPTIONS, cmd_restore),
    )
    for name, help_text, options, func in commands:
        p_cmd = sub.add_parser(name, help=help_text)
        # Flags stay strings here: _resolve converts them as it converts config values.
        for key, (_, default, key_help) in options.items():
            if default is not None:
                key_help = f"{key_help} (default {default})"
            p_cmd.add_argument("--" + key.replace("_", "-"), dest=key, help=key_help)
        p_cmd.add_argument("--config", help="flat key=value config file")
        p_cmd.set_defaults(func=func)

    p_eval = sub.add_parser("eval", help="PSNR/MSE of restored files against references")
    p_eval.add_argument("--restored", nargs="+", required=True)
    p_eval.add_argument("--reference", nargs="+", required=True)
    p_eval.add_argument("--peak", type=float, default=1.0)
    p_eval.set_defaults(func=cmd_eval)

    p_ver = sub.add_parser("verify", help="run the numerical verification battery")
    p_ver.add_argument("--claims", help="comma-separated subset, e.g. 1,4 or claim1,theorem1")
    p_ver.set_defaults(func=cmd_verify)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
