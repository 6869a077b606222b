#!/usr/bin/env python3
"""The external-64 workload's reference denoiser process.

    probe_worker.py <input.pgt> <output.pgt> <sigma>

Speaks pgrestore's external-denoiser protocol with numpy and the
standard library only: reads the tensor file, applies a Wiener shrink of
the smooth prior spectrum around a 0.5 gray mean, writes the result.
``External64.probe`` times calls to it, the same calls the program makes
to its external worker, as the host-speed reference of the workload; it
imports nothing from pgrestore, so no change to the program moves it.
"""

import sys

import numpy as np


def main(argv) -> int:
    if len(argv) != 3:
        print("usage: probe_worker.py INPUT.pgt OUTPUT.pgt SIGMA", file=sys.stderr)
        return 2
    data = open(argv[0], "rb").read()
    c, h, w = np.frombuffer(data[4:16], dtype="<u4").astype(int)
    x = np.frombuffer(data[16:], dtype="<f4").astype(float).reshape(c, h, w)
    fy = np.fft.fftfreq(h, d=1.0 / h)[:, None]
    fx = np.fft.rfftfreq(w, d=1.0 / w)[None, :]
    spectrum = 1.0 / (1.0 + fy**2 + fx**2)
    sigma = float(argv[2])
    shrink = spectrum / (spectrum + sigma**2)
    out = 0.5 + np.fft.irfft2(shrink * np.fft.rfft2(x - 0.5), s=(h, w))
    with open(argv[1], "wb") as fh:
        fh.write(data[:16] + out.astype("<f4").tobytes())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
