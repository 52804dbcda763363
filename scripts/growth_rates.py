#!/usr/bin/env python3
"""Compare measured nonlinear growth rates to the spectral predictions.

Each preset's report carries both in its dynamics section: the growth fit
runs where the predicted rate exceeds 0.05 omega, and is skipped below.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from relequil.pipeline import AnalysisRequest, run_analysis
from relequil.presets import all_standard_cases


def main():
    print(f"{'case':<24} {'predicted':>10} {'measured':>10} {'rel err':>9}")
    for case in all_standard_cases():
        report = run_analysis(AnalysisRequest(case=case.name, alpha=case.alpha,
                                              with_dynamics=True)).to_dict()
        predicted, dynamics = report["verdict"]["max_real_part"], report["dynamics"]
        if dynamics["growth_rate"] is None:
            print(f"{case.name:<24} {predicted:>10.6f} {'(skipped)':>10}")
            continue
        print(f"{case.name:<24} {predicted:>10.6f} {dynamics['growth_rate']:>10.6f} "
              f"{dynamics['relative_error']:>9.2%}")


if __name__ == "__main__":
    main()
