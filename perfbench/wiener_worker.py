#!/usr/bin/env python3
"""External denoiser for the external-64 workload.

Follows pgrestore's external-denoiser protocol,
``wiener_worker.py <input.pgt> <output.pgt> <sigma>``, and applies the
prior the CLI's built-in ``wiener`` denoiser uses (the smooth default
spectrum around a 0.5 gray mean), so its restores agree with
``--denoiser wiener`` up to the float32 rounding of the tensor files.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pgrestore.denoisers import WienerMMSE, WienerPrior  # noqa: E402
from pgrestore.io import read_tensor, write_tensor  # noqa: E402


def main(argv) -> int:
    if len(argv) != 3:
        print("usage: wiener_worker.py INPUT.pgt OUTPUT.pgt SIGMA", file=sys.stderr)
        return 2
    x = read_tensor(argv[0])
    prior = WienerPrior(spectrum=WienerPrior.smooth_default(x.shape[1:]).spectrum, mean=0.5)
    write_tensor(argv[1], WienerMMSE(prior)(x, float(argv[2])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
