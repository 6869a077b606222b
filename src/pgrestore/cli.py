"""Command-line interface: degrade, restore, eval, verify.

Every run is deterministic given its flags (all randomness is seeded),
and the commands that produce files also write the fully resolved
configuration next to their outputs, so any run can be reproduced
bit-exactly with ``--config <echoed file>``. Flags override config-file
values, which override defaults; each ``degrade``/``restore`` setting is
declared once, in that command's option table. ``restore`` takes the
measurement's operator and noise level from the ``<measurement>.meta``
sidecar that ``degrade`` wrote, read with ``degrade``'s own table, and the
image shape from the measurement itself.

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
from .linops import CircularConvolution, DownsampleConvolution, Mask, _check_finite
from .metrics import NoiseSpec, degrade, mse, psnr
from .schemes import make_ddpm_schedule, make_scheme_config, run_scheme

TASKS = ("deblur", "sr", "inpaint")


def denoiser_spec(spec: str) -> str:
    """``spec`` if ``make_denoiser`` accepts it: a restore's prior is bound later."""
    make_denoiser(spec, None)
    return spec


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

# The operator comes from the measurement's sidecar, the beta schedule is
# DDPM's and the LS scale is derived from ||A||; these are the run's settings.
_SCHEME_DEFAULTS = make_scheme_config.__kwdefaults__  # declared there only
RESTORE_OPTIONS = {
    "measurement": (str, None, "measurement tensor (.pgt); its sidecar is <measurement>.meta"),
    "output": (str, None, "restored tensor (.pgt)"),
    "method": (str, "ddpg", "idpg | idbp | pgm_ls | ddpg"),
    "denoiser": (denoiser_spec, "wiener", "identity | wiener | gauss[:kappa] | external:CMD"),
    "sigma_e": (float, None, "noise level (default: the sidecar's)"),
    "gamma": (float, _SCHEME_DEFAULTS["gamma"],
              "BP-to-LS mix exponent, delta_t = alpha_bar_t ** gamma"),
    "zeta": (float, _SCHEME_DEFAULTS["zeta"], "DDPG share of fresh noise, in [0, 1]"),
    "eta_tilde": (float, _SCHEME_DEFAULTS["eta_tilde"],
                  "BP regularizer scale, eta = (2 sigma_e)^2 eta_tilde"),
    "T": (int, 100, "number of iterations"),
    "seed": (int, _SCHEME_DEFAULTS["seed"], "DDPG random seed"),
    "step_size_policy": (str, _SCHEME_DEFAULTS["step_size_policy"], "unit | ddim-ratio"),
    "export_image": (str, None, "8-bit image export path"),
}

# Keys a config file may hold besides a command's settings: retired ones,
# which old echoed files still carry. The LS scale c is now derived from
# ||A||, the beta endpoints are DDPM's, the sidecar path and the operator
# settings are read from <measurement>.meta only, and restore derives the
# image shape from the measurement.
RETIRED_KEYS = ("c", "beta_start", "beta_end", "sidecar", "task", "kernel", "scale", "mask",
                "channels", "height", "width")


def _coerce(options: dict, key: str, value, source):
    """A flag or config string as the option's type; "None" only where that is the default.

    ``source`` names where the string came from (a file, or the command
    line), for the message of a value that does not convert or is not finite.
    """
    if not isinstance(value, str):
        return value
    kind, default, _ = options[key]
    if value == "None":
        if default is not None:
            raise ValueError(f"{key} must not be None (default {default})")
        return None
    try:
        converted = kind(value)
    except ValueError:
        raise ValueError(f"{source}: {key}={value!r} is not a valid {kind.__name__}") from None
    if kind is float and not math.isfinite(converted):
        raise ValueError(f"{source}: {key}={value!r} is not a finite number")
    return converted


def _resolve(options: dict, config_path, flag_values: dict) -> dict:
    """defaults < config file < explicit flags.

    A config key that is neither an option nor a retired key is a
    validation error, so a misspelled key is not dropped.
    """
    resolved = {key: default for key, (_, default, _) in options.items()}
    if config_path:
        for key, value in io.read_config(config_path).items():
            if key in options:
                resolved[key] = _coerce(options, key, value, config_path)
            elif key not in RETIRED_KEYS:
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


def _build_operator(cfg: dict, channels: int, sides=None):
    """The operator that degrade's settings ``cfg`` describe; its errors name the file.

    The image has ``channels`` channels and ``sides`` (height, width);
    ``sides=None`` takes a mask's own grid.
    """
    task = cfg["task"]
    if task not in TASKS:
        raise ValueError(f"task must be one of {TASKS}, got {task!r}")
    if task == "sr" and cfg["scale"] is None:
        raise ValueError("sr requires --scale")
    key, read = ("mask", io.read_mask) if task == "inpaint" else ("kernel", io.read_kernel)
    path = _require_file(cfg[key], f"{key} file")
    grid = read(path)
    image_shape = (channels, *(grid.shape if sides is None else sides))
    try:
        if task == "deblur":
            return CircularConvolution(grid, image_shape)
        if task == "sr":
            return DownsampleConvolution(grid, cfg["scale"], image_shape)
        return Mask(grid, image_shape)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
    _check_finite(f"{p}: image", data)  # a .pgt may hold NaN or infinity
    return data


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
    cfg = _resolve(DEGRADE_OPTIONS, args.config, vars(args))
    source = _read_source(cfg["input"])
    op = _build_operator(cfg, source.shape[0], source.shape[1:])
    out = _output_path(cfg["output"], "--output")
    y = degrade(op, source, NoiseSpec(sigma_e=cfg["sigma_e"], seed=cfg["seed"]))
    out.parent.mkdir(parents=True, exist_ok=True)
    io.write_tensor(out, _measurement_to_3d(y))
    io.write_config(str(out) + ".meta", {**cfg, "output": str(out)})
    print(f"wrote {out} and {out}.meta (sigma_e={cfg['sigma_e']}, seed={cfg['seed']})")
    return 0


def cmd_restore(args) -> int:
    cfg = _resolve(RESTORE_OPTIONS, args.config, vars(args))
    out = _output_path(cfg["output"], "--output")
    if cfg["export_image"]:
        _output_path(cfg["export_image"], "--export-image")
    meas_file = _require_file(cfg["measurement"], "measurement file")
    sidecar_path = _require_file(str(meas_file) + ".meta", "measurement sidecar")
    sidecar = _resolve(DEGRADE_OPTIONS, sidecar_path, {})
    if cfg["sigma_e"] is None:
        cfg["sigma_e"] = sidecar["sigma_e"]

    y = io.read_tensor(meas_file)
    _check_finite(f"{meas_file}: measurement", y)
    if cfg["export_image"] and y.shape[0] not in (1, 3):
        raise ValueError(f"--export-image writes 1 or 3 channels; {meas_file} has {y.shape[0]}")
    # The image's sides: blur keeps them, sr x s multiplies them by s (an sr
    # without a scale keeps them, and _build_operator rejects it), a mask fixes them.
    s = sidecar["scale"] if sidecar["task"] == "sr" and sidecar["scale"] else 1
    sides = None if sidecar["task"] == "inpaint" else (y.shape[1] * s, y.shape[2] * s)
    op = _build_operator(sidecar, y.shape[0], sides)
    y = _fit_measurement(y, op, meas_file)
    # Unit-range images: smooth default prior around a 0.5 gray mean.
    prior = WienerPrior(spectrum=WienerPrior.smooth_default(op.input_shape[1:]).spectrum, mean=0.5)
    denoiser = make_denoiser(cfg["denoiser"], prior)
    schedule = make_ddpm_schedule(cfg["T"])
    scheme = make_scheme_config(cfg["method"], schedule, cfg["sigma_e"],
                                **{key: cfg[key] for key in _SCHEME_DEFAULTS})
    x, trace = run_scheme(denoiser, op, y, scheme)

    out.parent.mkdir(parents=True, exist_ok=True)
    io.write_tensor(out, x)
    trace.save(str(out) + ".trace")
    if cfg["export_image"]:
        io.write_image(cfg["export_image"], np.clip(x, 0.0, 1.0))
    echo = dict(cfg)
    echo.update(measurement=str(meas_file), output=str(out))
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
        _check_finite(f"{restored_path}: restored tensor", restored)
        reference = _read_source(reference_path)
        restored = np.clip(restored, 0.0, 1.0)
        value_psnr = psnr(restored, reference)
        value_mse = mse(restored, reference)
        psnrs.append(value_psnr)
        mses.append(value_mse)
        print(f"{Path(restored_path).name} {value_psnr:.6f} {value_mse:.6g}")
    mean_psnr = sum(psnrs) / len(psnrs)
    mean_mse = sum(mses) / len(mses)
    print(f"mean {mean_psnr:.6f} {mean_mse:.6g}")
    return 0


def _parse_claims(text: str) -> list[str]:
    """The checks ``text`` names, each once, in the order given."""
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise ValueError("no claims selected")
    return list(dict.fromkeys(f"claim{token}" if token.isdigit() else token for token in tokens))


def cmd_verify(args) -> int:
    from .theory import run_verifier_battery  # only here: no other command needs the verifier

    results = run_verifier_battery(None if args.claims is None else _parse_claims(args.claims))
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

    p_eval = sub.add_parser("eval", help="PSNR (peak 1) and MSE of restored files")
    p_eval.add_argument("--restored", nargs="+", required=True)
    p_eval.add_argument("--reference", nargs="+", required=True)
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
