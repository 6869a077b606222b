"""Generated bad settings and files, driven through ``cli.main``.

Each must exit 2 with one ``error:`` line that names the key or the file,
and print no traceback.
"""

import contextlib
import io as stdio
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgrestore import cli, io
from pgrestore.kernels import bicubic_kernel, gaussian_kernel

NUMERIC_KEYS = [
    (command, key)
    for command, options in (("degrade", cli.DEGRADE_OPTIONS), ("restore", cli.RESTORE_OPTIONS))
    for key, (kind, _, _) in options.items()
    if kind in (int, float)
]

_NEGATIVE = st.floats(max_value=-1e-6, allow_infinity=False)
# Values that each key's own check rejects (the measurement is noisy, the
# method ddpg, so gamma and sigma_e are checked too).
OUT_OF_RANGE = {
    ("degrade", "scale"): st.integers(max_value=0),
    ("degrade", "sigma_e"): _NEGATIVE,
    ("degrade", "seed"): st.integers(max_value=-1),
    ("restore", "sigma_e"): _NEGATIVE,
    ("restore", "gamma"): _NEGATIVE,
    ("restore", "zeta"): _NEGATIVE | st.floats(min_value=1.0, exclude_min=True,
                                               allow_infinity=False),
    ("restore", "eta_tilde"): _NEGATIVE,
    ("restore", "T"): st.integers(max_value=0),
    ("restore", "seed"): st.integers(max_value=-1),
}


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# Lower case only, because "None" is a valid value of a key whose default is None.
NON_NUMBERS = st.text("abcdefghijklmnopqrstuvwxyz_", max_size=8).filter(
    lambda s: not _is_float(s))
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("bad-inputs")
    rng = np.random.default_rng(0)
    io.write_image(d / "source.pgm", rng.random((1, 16, 16)))
    io.write_tensor(d / "source.pgt", rng.random((1, 16, 16)))
    io.write_kernel(d / "gauss.txt", gaussian_kernel(5, 10.0))
    io.write_kernel(d / "bicubic.txt", bicubic_kernel(2))
    io.write_mask(d / "mask.txt", rng.random((16, 16)) < 0.5)
    assert _run(["degrade", "--input", d / "source.pgm", "--output", d / "y.pgt",
                 "--task", "deblur", "--kernel", d / "gauss.txt", "--sigma-e", "0.05"])[0] == 0
    assert _run(["restore", "--measurement", d / "y.pgt", "--output", d / "x.pgt",
                 "--method", "idpg", "--T", "3"])[0] == 0
    return d


def _run(argv):
    err = stdio.StringIO()
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, err.getvalue()


def _assert_one_error_naming(code, err, name):
    assert code == 2, err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert re.search(rf"\b{re.escape(name)}\b", err), (name, err)


def _base_flags(files, command, key, out):
    if command == "restore":
        return ["--measurement", files / "y.pgt", "--output", out]
    task = ["--task", "sr", "--kernel", files / "bicubic.txt"] if key == "scale" else \
        ["--task", "deblur", "--kernel", files / "gauss.txt"]
    return ["--input", files / "source.pgm", "--output", out, *task]


@st.composite
def bad_settings(draw):
    command, key = draw(st.sampled_from(NUMERIC_KEYS))
    kind = {"degrade": cli.DEGRADE_OPTIONS, "restore": cli.RESTORE_OPTIONS}[command][key][0]
    kinds = [NON_FINITE, NON_NUMBERS, OUT_OF_RANGE[command, key].map(repr)]
    if kind is int:
        kinds.append(st.just("2.5"))
    return command, key, draw(st.one_of(kinds)), draw(st.booleans())


def test_numeric_keys_cover_both_tables():
    assert set(NUMERIC_KEYS) == set(OUT_OF_RANGE)


@settings(max_examples=80, deadline=None)
@given(case=bad_settings())
def test_bad_numeric_setting_names_its_key(files, case):
    command, key, value, in_config = case
    out = files / "out.pgt"
    argv = [command, *_base_flags(files, command, key, out)]
    if in_config:
        (files / "bad.cfg").write_text(f"{key}={value}\n")
        argv += ["--config", files / "bad.cfg"]
    else:
        argv.append(f"--{key.replace('_', '-')}={value}")
    code, err = _run(argv)
    _assert_one_error_naming(code, err, key)
    assert not out.exists()


@pytest.mark.parametrize("spec", ["gauss:abc", "gauss:-1", "gauss:nan", "gauss:inf", "external:",
                                  "external: ", "nlm"])
@pytest.mark.parametrize("in_config", [False, True], ids=["flag", "cfg"])
def test_bad_denoiser_spec_names_its_key_and_source(files, spec, in_config):
    out = files / "out.pgt"
    argv = ["restore", *_base_flags(files, "restore", "denoiser", out)]
    if in_config:
        (files / "bad.cfg").write_text(f"denoiser={spec}\n")
        argv += ["--config", files / "bad.cfg"]
    else:
        argv.append(f"--denoiser={spec}")
    code, err = _run(argv)
    _assert_one_error_naming(code, err, "denoiser")
    assert ("bad.cfg" if in_config else "command line") in err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["restored", "reference"])
def test_eval_rejects_non_finite_tensor(files, value, which):
    tensor = io.read_tensor(files / "source.pgt")
    tensor[0, 3, 5] = value
    io.write_tensor(files / "bad.pgt", tensor)
    paths = {"restored": files / "x.pgt", "reference": files / "source.pgt"}
    paths[which] = files / "bad.pgt"
    code, err = _run(["eval", "--restored", paths["restored"], "--reference", paths["reference"]])
    _assert_one_error_naming(code, err, "bad.pgt")


def _token_spans(text):
    return [m.span() for m in re.finditer(r"\S+", text)]


def _replace_token(text, draw, value):
    start, end = draw(st.sampled_from(_token_spans(text)))
    return text[:start] + value + text[end:]


def _mangled_tensor(data, draw):
    how = draw(st.sampled_from(["cut", "magic", "append", "non-finite"]))
    if how == "cut":
        return data[: draw(st.integers(0, len(data) - 1))]
    if how == "magic":
        return draw(st.binary(min_size=4, max_size=4).filter(lambda b: b != b"PGT1")) + data[4:]
    if how == "append":
        return data + draw(st.binary(min_size=1, max_size=8))
    body = np.frombuffer(data[16:], dtype="<f4").copy()
    body[draw(st.integers(0, body.size - 1))] = draw(st.sampled_from([math.nan, math.inf]))
    return data[:16] + body.tobytes()


def _mangled_image(data, draw):
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data) - 1))]
    header_end = len(b"P5\n16 16\n255\n")
    value = draw(NON_NUMBERS.filter(bool) | st.sampled_from(["-3", "0"]))
    return _replace_token(data[:header_end].decode(), draw, value).encode() + data[header_end:]


def _mangled_grid(data, draw, bad_value):
    text = data.decode()
    how = draw(st.sampled_from(["cut", "token", "value"]))
    if how == "cut":  # before the last token starts, so a value goes missing
        text = text[: draw(st.integers(0, _token_spans(text)[-1][0]))]
    elif how == "token":
        text = _replace_token(text, draw, draw(NON_NUMBERS.filter(bool)))
    else:
        start, end = draw(st.sampled_from(_token_spans(text)[2:]))
        text = text[:start] + draw(bad_value) + text[end:]
    return text.encode()


def _mangled_config(data, draw):
    lines = data.decode().splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    key = lines[i].split("=", 1)[0]
    how = draw(st.sampled_from(["cut", "rename", "no-equals"]))
    if how == "cut":  # inside a key, so the last line has no '='
        lines = lines[:i] + [key[: draw(st.integers(1, len(key)))]]
    elif how == "rename":
        known = {*cli.DEGRADE_OPTIONS, *cli.RESTORE_OPTIONS, *cli.RETIRED_KEYS,
                 *cli.SIDECAR_SHAPE_KEYS}
        new = draw(NON_NUMBERS.filter(lambda k: k and k not in known))
        lines[i] = new + lines[i][len(key):]
    else:
        lines[i] = lines[i].replace("=", ":", 1)
    return ("\n".join(lines) + "\n").encode()


def _deblur(files):
    return ["--input", files / "source.pgm", "--task", "deblur", "--kernel", files / "gauss.txt"]


# kind -> (pristine file, name of the mangled copy, mangler, argv that reads the copy);
# each argv gets --output out.pgt, except eval's
FILE_CASES = {
    "pgt-measurement": ("y.pgt", "bad.pgt", _mangled_tensor,
                        lambda f, bad: ["restore", "--measurement", bad]),
    "pgt-input": ("source.pgt", "bad.pgt", _mangled_tensor,
                  lambda f, bad: ["degrade", *_deblur(f), "--input", bad]),
    "pgm-input": ("source.pgm", "bad.pgm", _mangled_image,
                  lambda f, bad: ["degrade", *_deblur(f), "--input", bad]),
    "pgm-reference": ("source.pgm", "bad.pgm", _mangled_image,
                      lambda f, bad: ["eval", "--restored", f / "x.pgt", "--reference", bad]),
    "kernel": ("gauss.txt", "bad.txt",
               lambda data, draw: _mangled_grid(data, draw, NON_FINITE),
               lambda f, bad: ["degrade", *_deblur(f), "--kernel", bad]),
    "mask": ("mask.txt", "bad.txt",
             lambda data, draw: _mangled_grid(data, draw, st.sampled_from(["2", "0.5", "-1"])),
             lambda f, bad: ["degrade", *_deblur(f), "--task", "inpaint", "--mask", bad]),
    "cfg": ("x.pgt.cfg", "bad.cfg", _mangled_config,
            lambda f, bad: ["restore", "--config", bad]),
    "meta": ("y.pgt.meta", "bad.pgt.meta", _mangled_config,
             lambda f, bad: ["restore", "--measurement", f / "bad.pgt"]),
}


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(sorted(FILE_CASES)), data=st.data())
def test_bad_file_names_itself(files, kind, data):
    source, name, mangle, argv = FILE_CASES[kind]
    for stale in files.glob("bad*"):
        stale.unlink()
    # a measurement and its sidecar travel together: one of them is mangled
    (files / "bad.pgt").write_bytes((files / "y.pgt").read_bytes())
    (files / "bad.pgt.meta").write_bytes((files / "y.pgt.meta").read_bytes())
    bad = files / name
    bad.write_bytes(mangle((files / source).read_bytes(), data.draw))
    out = files / "out.pgt"
    code, err = _run(argv(files, bad) + ([] if kind == "pgm-reference" else ["--output", out]))
    _assert_one_error_naming(code, err, name)
    assert not out.exists()
