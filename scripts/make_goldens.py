#!/usr/bin/env python3
"""Regenerate the golden stability reports for the six preset cases.

    python3 scripts/make_goldens.py           # rewrite golden/*.json
    python3 scripts/make_goldens.py --check   # compare only, write nothing

With ``--check`` the reports are rendered in memory and compared byte for
byte with the files; the exit code is 1, with the names of the goldens
that differ, when any of them does.
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from relequil.pipeline import AnalysisRequest, run_analysis
from relequil.presets import HOMOGENEOUS_PRESETS, PRESET_NAMES

OUT = pathlib.Path(__file__).resolve().parents[1] / "golden"


def render(name):
    alpha = 1.0 if name in HOMOGENEOUS_PRESETS else None
    report = run_analysis(AnalysisRequest(case=name, alpha=alpha))
    return json.dumps(report.to_dict(), indent=2) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with golden/ and write nothing")
    args = parser.parse_args(argv)
    if args.check:
        differ = [name for name in PRESET_NAMES
                  if not (OUT / f"{name}.json").is_file()
                  or (OUT / f"{name}.json").read_text() != render(name)]
        for name in differ:
            print(f"differs: {OUT / name}.json")
        if not differ:
            print(f"all {len(PRESET_NAMES)} goldens match")
        return 1 if differ else 0
    OUT.mkdir(exist_ok=True)
    for name in PRESET_NAMES:
        path = OUT / f"{name}.json"
        path.write_text(render(name))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
