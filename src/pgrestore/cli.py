"""Command-line interface: degrade, restore, eval, verify.

Every run is deterministic given its flags (all randomness is seeded),
and the commands that produce files also write the fully resolved
configuration next to their outputs, so any run can be reproduced
bit-exactly with ``--config <echoed file>``. Flags override config-file
values, which override defaults.

Exit codes: 0 success, 1 runtime failure (including failed verification
claims), 2 validation failure (bad flags, missing or malformed files).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io
from .denoisers import WienerPrior, make_denoiser
from .linops import CircularConvolution, DownsampleConvolution, Mask, as_image
from .metrics import NoiseSpec, degrade, mse, psnr
from .schemes import make_ddpm_schedule, make_scheme_config, run_scheme
from .theory import BATTERY_CHECKS, run_verifier_battery

TASKS = ("deblur", "sr", "inpaint")

# Defaults for the restoration hyperparameter surface. T, the beta
# endpoints and c are fixed convention; the rest are starting points the
# flags/config override per task.
RESTORE_DEFAULTS = {
    "measurement": None,
    "sidecar": None,
    "output": None,
    "method": "ddpg",
    "denoiser": "wiener",
    "sigma_e": None,  # resolved from the sidecar when not given
    "gamma": 8.0,
    "zeta": 0.5,
    "eta_tilde": 0.7,
    "c": 1.0,
    "T": 100,
    "beta_start": 1e-4,
    "beta_end": 0.02,
    "seed": 0,
    "step_size_policy": "unit",
    "export_image": None,
    "task": None,
    "kernel": None,
    "scale": None,
    "mask": None,
}

DEGRADE_DEFAULTS = {
    "input": None,
    "output": None,
    "task": None,
    "kernel": None,
    "scale": 2,
    "mask": None,
    "sigma_e": 0.0,
    "seed": 0,
}

_FIELD_TYPES = {
    "sigma_e": float,
    "gamma": float,
    "zeta": float,
    "eta_tilde": float,
    "c": float,
    "beta_start": float,
    "beta_end": float,
    "T": int,
    "seed": int,
    "scale": int,
    "channels": int,
    "height": int,
    "width": int,
}


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    if value == "None":
        return None
    caster = _FIELD_TYPES.get(key, str)
    return caster(value)


def _resolve(defaults: dict, config_path, flag_values: dict) -> dict:
    """defaults < config file < explicit flags; unknown config keys ignored."""
    resolved = dict(defaults)
    if config_path:
        file_values = io.read_config(config_path)
        for key, value in file_values.items():
            if key in resolved:
                resolved[key] = _coerce(key, value)
    for key, value in flag_values.items():
        if key in resolved and value is not None:
            resolved[key] = _coerce(key, value)
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
    cfg = _resolve(DEGRADE_DEFAULTS, args.config, vars(args))
    source = _read_source(cfg["input"])
    op = _build_operator(cfg, source.shape)
    y = degrade(op, source, NoiseSpec(sigma_e=cfg["sigma_e"], seed=cfg["seed"]))
    if cfg["output"] is None:
        raise ValueError("missing required --output path")
    out = Path(cfg["output"])
    out.parent.mkdir(parents=True, exist_ok=True)
    io.write_tensor(out, _measurement_to_3d(y))
    sidecar = dict(cfg)
    sidecar.update(
        output=str(out),
        channels=source.shape[0],
        height=source.shape[1],
        width=source.shape[2],
    )
    io.write_config(str(out) + ".meta", sidecar)
    print(f"wrote {out} and {out}.meta (sigma_e={cfg['sigma_e']}, seed={cfg['seed']})")
    return 0


def cmd_restore(args) -> int:
    cfg = _resolve(RESTORE_DEFAULTS, args.config, vars(args))
    meas_file = _require_file(cfg["measurement"], "measurement file")
    sidecar_path = cfg["sidecar"] or str(meas_file) + ".meta"
    sidecar = io.read_config(_require_file(sidecar_path, "measurement sidecar"))
    for key in ("task", "kernel", "scale", "mask"):
        if cfg.get(key) is None and key in sidecar:
            cfg[key] = _coerce(key, sidecar[key])
    if cfg["sigma_e"] is None:
        cfg["sigma_e"] = _coerce("sigma_e", sidecar.get("sigma_e", "0.0"))
    image_shape = tuple(_coerce(k, sidecar[k]) for k in ("channels", "height", "width"))

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
        c=cfg["c"],
        zeta=cfg["zeta"],
        seed=cfg["seed"],
        step_size_policy=cfg["step_size_policy"],
    )
    x, trace = run_scheme(denoiser, op, y, scheme)

    if cfg["output"] is None:
        raise ValueError("missing required --output path")
    out = Path(cfg["output"])
    out.parent.mkdir(parents=True, exist_ok=True)
    io.write_tensor(out, x)
    trace.save(str(out) + ".trace")
    if cfg.get("export_image"):
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
    names = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name = f"claim{token}" if token.isdigit() else token
        if name not in BATTERY_CHECKS:
            raise ValueError(
                f"unknown claim {token!r}; choose from {sorted(BATTERY_CHECKS)}"
            )
        names.append(name)
    if not names:
        raise ValueError("no claims selected")
    return names


def cmd_verify(args) -> int:
    selection = _parse_claims(args.claims) if args.claims else None
    overrides = {}
    if args.mc_draws is not None:
        overrides["theorem1"] = {"mc_draws": args.mc_draws}
    results = run_verifier_battery(selection, **overrides)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgrestore",
        description="Solve linear inverse problems by guided iterative denoising.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_deg = sub.add_parser("degrade", help="synthesize a measurement from an image")
    p_deg.add_argument("--input", help="source image (.pgm/.ppm/.pgt)")
    p_deg.add_argument("--output", help="measurement tensor (.pgt)")
    p_deg.add_argument("--task", choices=TASKS)
    p_deg.add_argument("--kernel", help="kernel text file (deblur, sr)")
    p_deg.add_argument("--scale", type=int, help="downsampling factor (sr)")
    p_deg.add_argument("--mask", help="mask text file (inpaint)")
    p_deg.add_argument("--sigma-e", dest="sigma_e", type=float)
    p_deg.add_argument("--seed", type=int)
    p_deg.add_argument("--config", help="flat key=value config file")
    p_deg.set_defaults(func=cmd_degrade)

    p_res = sub.add_parser("restore", help="run a restoration scheme on a measurement")
    p_res.add_argument("--measurement", help="measurement tensor (.pgt)")
    p_res.add_argument("--sidecar", help="sidecar path (default <measurement>.meta)")
    p_res.add_argument("--output", help="restored tensor (.pgt)")
    p_res.add_argument("--method", choices=("idpg", "idbp", "pgm_ls", "ddpg"))
    p_res.add_argument("--denoiser", help="identity | wiener | gauss[:kappa] | external:CMD")
    p_res.add_argument("--task", choices=TASKS, help="override the sidecar's task")
    p_res.add_argument("--kernel")
    p_res.add_argument("--scale", type=int)
    p_res.add_argument("--mask")
    p_res.add_argument("--sigma-e", dest="sigma_e", type=float)
    p_res.add_argument("--gamma", type=float)
    p_res.add_argument("--zeta", type=float)
    p_res.add_argument("--eta-tilde", dest="eta_tilde", type=float)
    p_res.add_argument("--c", type=float)
    p_res.add_argument("--T", dest="T", type=int)
    p_res.add_argument("--beta-start", dest="beta_start", type=float)
    p_res.add_argument("--beta-end", dest="beta_end", type=float)
    p_res.add_argument("--seed", type=int)
    p_res.add_argument(
        "--step-size-policy", dest="step_size_policy", choices=("unit", "ddim-ratio")
    )
    p_res.add_argument("--export-image", dest="export_image", help="8-bit image export path")
    p_res.add_argument("--config", help="flat key=value config file")
    p_res.set_defaults(func=cmd_restore)

    p_eval = sub.add_parser("eval", help="PSNR/MSE of restored files against references")
    p_eval.add_argument("--restored", nargs="+", required=True)
    p_eval.add_argument("--reference", nargs="+", required=True)
    p_eval.add_argument("--peak", type=float, default=1.0)
    p_eval.set_defaults(func=cmd_eval)

    p_ver = sub.add_parser("verify", help="run the numerical verification battery")
    p_ver.add_argument("--claims", help="comma-separated subset, e.g. 1,4 or claim1,theorem1")
    p_ver.add_argument("--mc-draws", dest="mc_draws", type=int, help="Monte-Carlo draw count")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
