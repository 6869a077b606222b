"""Timing proxies around pgrestore's public callables, and the per-layer
metrics computed from the spans they record.

The program is not modified: ``Tracer.install`` replaces, for the length
of a traced phase, the callables below with proxies that record a span
(name, start, end, parent span, request id) and puts the originals back
in ``uninstall``:

* ``linops``: the operator classes' apply, apply_adjoint, solve_gram and
  apply_reg_pinv;
* ``guidance``: the names g_delta and wls_objective as bound in
  ``pgrestore.schemes``;
* ``denoisers``: each denoiser class's ``__call__``;
* ``io``: every ``pgrestore.io`` function, and the tensor functions as
  bound in ``pgrestore.denoisers``;
* ``schemes``: ``run_scheme`` as bound in ``pgrestore`` and ``pgrestore.cli``;
* ``theory``: the entries of ``BATTERY_CHECKS``;
* ``numpy.fft.{fft2, ifft2, rfft2, irfft2}``: counters (calls and bytes
  in + out) added to the innermost open span.

The CLI commands get their spans from the benchmark's call sites
(``Tracer.top``). Every restore increments an iteration counter at each
denoiser call (both loops call the denoiser once per iteration), so a
span records which iteration it belongs to; iteration 0 is the set-up
before the first denoiser call.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

OPERATOR_METHODS = ("apply", "apply_adjoint", "solve_gram", "apply_reg_pinv")
FFT_FUNCTIONS = ("fft2", "ifft2", "rfft2", "irfft2")
BATTERY = ("claim1", "claim2", "claim3", "claim4", "theorem1")
RESTORE_ROOT = "schemes.run_scheme"
TENSOR_HEADER_BYTES = 16

# Span record fields, in order.
FIELDS = ("name", "start", "end", "parent", "req", "op", "iteration",
          "fft_calls", "fft_bytes", "io_bytes")
NAME, START, END, PARENT, REQ, OP, ITER, FFT_CALLS, FFT_BYTES, IO_BYTES = range(len(FIELDS))


def _tensor_bytes(args, result, name):
    array = args[1] if name == "io.write_tensor" else result
    return TENSOR_HEADER_BYTES + 4 * int(np.size(array))


class Tracer:
    """Records spans in memory, over every pass it is installed for."""

    def __init__(self):
        self.spans: list[list] = []
        self.case_of_req: dict[int, str] = {}
        self._stack: list[int] = []
        self._undo: list = []
        self.req = 0
        self.op = None
        self.iteration = 0

    # -- recording ---------------------------------------------------------

    def _begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.req, self.op, self.iteration, 0, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _end(self, record):
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def top(self, name, op, req):
        """Tags the spans of one call the benchmark makes (a restore, a CLI
        command) with ``op`` and ``req``; opens a span too unless ``name``
        is None (a library restore's span is its ``run_scheme`` proxy)."""
        self.op, self.req, self.iteration = op, req, 0
        record = self._begin(name) if name else None
        try:
            yield
        finally:
            if record is not None:
                self._end(record)
            self.op = None

    def _proxy(self, name, fn, *, bytes_of=None, iteration_step=False, restore_root=False):
        tracer = self

        @functools.wraps(fn)
        def proxy(*args, **kwargs):
            if restore_root:
                tracer.iteration = 0
            elif iteration_step and tracer.op == "restore":
                tracer.iteration += 1
            record = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(record)
            if bytes_of is not None:
                record[IO_BYTES] = bytes_of(args, result, name)
            return result

        return proxy

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            result = fn(a, *args, **kwargs)
            if tracer._stack:
                record = tracer.spans[tracer._stack[-1]]
                record[FFT_CALLS] += 1
                record[FFT_BYTES] += np.asarray(a).nbytes + result.nbytes
            return result

        return counted

    # -- installing the proxies ----------------------------------------------

    def _patch(self, owner, attr, new):
        if isinstance(owner, dict):
            self._undo.append((owner.__setitem__, attr, owner[attr]))
            owner[attr] = new
        else:
            self._undo.append((functools.partial(setattr, owner), attr, vars(owner)[attr]))
            setattr(owner, attr, new)

    def install(self, pgrestore, cli=None):
        """Wrap the public callables of an imported pgrestore (and its CLI)."""
        linops, schemes = pgrestore.linops, pgrestore.schemes
        denoisers, io, theory = pgrestore.denoisers, pgrestore.io, pgrestore.theory
        for cls in (linops.LinearOperator, linops.CircularConvolution,
                    linops.DownsampleConvolution, linops.Mask, linops.DenseOperator):
            for method in OPERATOR_METHODS:
                if method in vars(cls):
                    self._patch(cls, method, self._proxy(f"linops.{method}", vars(cls)[method]))
        for name in ("g_delta", "wls_objective"):
            self._patch(schemes, name, self._proxy(f"guidance.{name}", getattr(schemes, name)))
        for cls in (denoisers.Identity, denoisers.GaussianSmooth,
                    denoisers.WienerMMSE, denoisers.ExternalDenoiser):
            self._patch(cls, "__call__", self._proxy(
                f"denoisers.{cls.__name__}", cls.__call__, iteration_step=True))
        for name in io.__all__:
            tensor = name in ("read_tensor", "write_tensor")
            self._patch(io, name, self._proxy(
                f"io.{name}", getattr(io, name), bytes_of=_tensor_bytes if tensor else None))
        for name in ("read_tensor", "write_tensor"):
            self._patch(denoisers, name, self._proxy(
                f"io.{name}", getattr(denoisers, name), bytes_of=_tensor_bytes))
        for owner in (pgrestore, cli) if cli is not None else (pgrestore,):
            self._patch(owner, "run_scheme", self._proxy(
                RESTORE_ROOT, owner.run_scheme, restore_root=True))
        for name in BATTERY:
            self._patch(theory.BATTERY_CHECKS, name, self._proxy(
                f"theory.{name}", theory.BATTERY_CHECKS[name]))
        for name in FFT_FUNCTIONS:
            self._patch(np.fft, name, self._counter(getattr(np.fft, name)))

    def uninstall(self):
        while self._undo:
            restore, attr, original = self._undo.pop()
            restore(attr, original)


def _per_call_ms(durations):
    return 1e3 * sum(durations) / len(durations) if durations else 0.0


def _percentile_ms(durations, q):
    return 1e3 * float(np.percentile(durations, q)) if durations else 0.0


def layer_metrics(spans, case_of_req):
    """Per-layer metrics from a traced phase, and per-case counts.

    Per-iteration figures cover the spans of restores (iteration >= 1)
    and divide by the number of iterations run; they are exact counts or
    summed self times. Self time is a span's duration minus its children's.
    """
    n = len(spans)
    duration = [s[END] - s[START] for s in spans]
    child_time = [0.0] * n
    child_io_time = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += duration[i]
            if s[NAME].startswith("io."):
                child_io_time[s[PARENT]] += duration[i]
    self_ms = [1e3 * (duration[i] - child_time[i]) for i in range(n)]

    def in_loop(s):
        return s[OP] == "restore" and s[ITER] >= 1

    roots = [i for i, s in enumerate(spans) if s[NAME] == RESTORE_ROOT]
    root_set = set(roots)
    denoiser_spans = [i for i, s in enumerate(spans) if s[NAME].startswith("denoisers.")]
    iters = sum(1 for i in denoiser_spans if in_loop(spans[i]))
    restores = len(roots)

    def per_iter(values):
        return sum(values) / iters if iters else 0.0

    m = {}
    for method in OPERATOR_METHODS:
        name = f"linops.{method}"
        picked = [i for i, s in enumerate(spans) if s[NAME] == name and in_loop(s)]
        m[f"{name}.calls_per_iter"] = per_iter([1] * len(picked))
        m[f"{name}.self_ms_per_iter"] = per_iter([self_ms[i] for i in picked])
    linops_loop = [s for s in spans if s[NAME].startswith("linops.") and in_loop(s)]
    m["linops.fft_per_iter"] = per_iter([s[FFT_CALLS] for s in linops_loop])
    m["linops.fft_bytes_per_iter"] = per_iter([s[FFT_BYTES] for s in linops_loop])
    for fn in ("g_delta", "wls_objective"):
        name = f"guidance.{fn}"
        picked = [i for i, s in enumerate(spans) if s[NAME] == name and in_loop(s)]
        m[f"{name}.calls_per_iter"] = per_iter([1] * len(picked))
        m[f"{name}.self_ms_per_iter"] = per_iter([self_ms[i] for i in picked])

    # Trace bookkeeping: wls_objective spans plus the operator calls the
    # loop makes itself (parent is the restore), children included.
    trace_s = sum(
        duration[i] for i, s in enumerate(spans) if in_loop(s) and (
            s[NAME] == "guidance.wls_objective"
            or (s[NAME].startswith("linops.") and s[PARENT] in root_set)))
    restore_s = sum(duration[i] for i in roots)
    m["schemes.trace_ms_per_iter"] = per_iter([1e3 * trace_s])
    m["schemes.trace_share"] = 100.0 * trace_s / restore_s if restore_s else 0.0
    m["schemes.self_ms_per_iter"] = per_iter([self_ms[i] for i in roots])

    den_loop = [i for i in denoiser_spans if in_loop(spans[i])]
    m["denoisers.calls_per_iter"] = per_iter([1] * len(den_loop))
    den_ms = [duration[i] for i in denoiser_spans]
    m["denoisers.ms_per_call.p50"] = _percentile_ms(den_ms, 50)
    m["denoisers.ms_per_call.p90"] = _percentile_ms(den_ms, 90)
    m["denoisers.fft_per_iter"] = per_iter([spans[i][FFT_CALLS] for i in den_loop])
    external = [i for i in denoiser_spans if spans[i][NAME] == "denoisers.ExternalDenoiser"]
    m["denoisers.external.self_ms_per_call"] = _per_call_ms(
        [duration[i] - child_io_time[i] for i in external])

    for fn in ("read_tensor", "write_tensor"):
        m[f"io.{fn}.ms_per_call"] = _per_call_ms(
            [duration[i] for i, s in enumerate(spans) if s[NAME] == f"io.{fn}"])
    m["io.tensor_bytes_per_restore"] = (
        sum(s[IO_BYTES] for s in spans if s[OP] == "restore" and s[NAME] in
            ("io.read_tensor", "io.write_tensor")) / restores if restores else 0.0)
    m["io.config.ms_per_restore"] = (
        1e3 * sum(duration[i] for i, s in enumerate(spans) if s[OP] == "restore" and s[NAME] in
                  ("io.read_config", "io.write_config")) / restores if restores else 0.0)

    # cmd_restore minus run_scheme and io: every direct child is one of those.
    m["cli.restore.self_ms"] = _per_call_ms(
        [duration[i] - child_time[i] for i, s in enumerate(spans) if s[NAME] == "cli.restore"])
    for command in ("degrade", "eval"):
        m[f"cli.{command}.ms"] = _per_call_ms(
            [duration[i] for i, s in enumerate(spans) if s[NAME] == f"cli.{command}"])
    for check in BATTERY:
        m[f"theory.{check}.s"] = sum(
            duration[i] for i, s in enumerate(spans) if s[NAME] == f"theory.{check}")

    by_case = {}
    for s in spans:
        if not in_loop(s):
            continue
        entry = by_case.setdefault(case_of_req[s[REQ]], {
            "iterations": 0, "fft_per_iter": 0, "linops.fft_per_iter": 0,
            "denoisers.fft_per_iter": 0, "linops.apply.calls_per_iter": 0})
        layer = s[NAME].split(".", 1)[0]
        entry["fft_per_iter"] += s[FFT_CALLS]
        if layer in ("linops", "denoisers"):
            entry[f"{layer}.fft_per_iter"] += s[FFT_CALLS]
        if s[NAME] == "linops.apply":
            entry["linops.apply.calls_per_iter"] += 1
        if layer == "denoisers":
            entry["iterations"] += 1
    for entry in by_case.values():
        for key in entry:
            if key != "iterations":
                entry[key] /= entry["iterations"]
    return m, by_case
