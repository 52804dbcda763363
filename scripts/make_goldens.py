#!/usr/bin/env python3
"""Regenerate the golden stability reports for the six preset cases.

    python3 scripts/make_goldens.py           # rewrite golden/*.json
    python3 scripts/make_goldens.py --check   # compare only, write nothing

With ``--check`` the reports are rendered in memory and compared byte for
byte with the files; the exit code is 1, with the names of the goldens
that differ, when any of them does.  Under each such name one line per
field that changed gives its JSON path and the absolute change of a
number (``blocks[2].lam1 2.2e-16``), or the old and new value otherwise.
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


def field_changes(old, new, path=""):
    """(path, description) of every leaf where two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return [c for key in old
                for c in field_changes(old[key], new[key], f"{path}.{key}" if path else key)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [c for i, (a, b) in enumerate(zip(old, new))
                for c in field_changes(a, b, f"{path}[{i}]")]
    if old == new and type(old) is type(new):
        return []
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (old, new))
    return [(path, f"{abs(new - old):.2g}" if numbers else f"{old!r} -> {new!r}")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with golden/ and write nothing")
    args = parser.parse_args(argv)
    if args.check:
        differ = 0
        for name in PRESET_NAMES:
            path = OUT / f"{name}.json"
            text = render(name)
            if path.is_file() and path.read_text() == text:
                continue
            differ += 1
            print(f"differs: {path}")
            if path.is_file():
                for field, change in field_changes(json.loads(path.read_text()),
                                                   json.loads(text)):
                    print(f"  {field} {change}")
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
