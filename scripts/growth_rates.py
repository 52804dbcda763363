#!/usr/bin/env python3
"""Compare measured nonlinear growth rates to the spectral predictions."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from relequil.dynamics import estimate_growth_rate
from relequil.model import Equilibrium
from relequil.pipeline import _worst_direction
from relequil.presets import all_standard_cases
from relequil.spectrum import full_linearization_spectrum


def main():
    print(f"{'case':<24} {'predicted':>10} {'measured':>10} {'rel err':>9}")
    for case in all_standard_cases():
        eq = Equilibrium(case.configuration(), case.potential)
        predicted = float(full_linearization_spectrum(eq).real.max())
        if predicted <= 0.05 * eq.omega:
            print(f"{case.name:<24} {predicted:>10.6f} {'(skipped)':>10}")
            continue
        est = estimate_growth_rate(eq, _worst_direction(eq))
        rel = abs(est.rate - predicted) / predicted
        print(f"{case.name:<24} {predicted:>10.6f} {est.rate:>10.6f} {rel:>9.2%}")


if __name__ == "__main__":
    main()
