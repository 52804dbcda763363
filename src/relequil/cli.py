"""Command line interface.

Subcommands: analyze, sweep, simulate, presets, selfcheck, each taking
only the flags it reads.  Exit codes: 0 = completed (whatever the
verdict), 2 = input error, 3 = internal consistency failure; a sweep
exits 2 when an input error is among its failed grid points.
RELEQUIL_OUT_DIR sets the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .pipeline import (
    AnalysisRequest,
    ConsistencyError,
    InputError,
    require_positive,
    run_analysis,
    run_sweep,
)
from .presets import HOMOGENEOUS_PRESETS, PRESET_NAMES, get_case

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONSISTENCY = 3


def _parse_potential(text):
    """'1:1,1:2' -> ((1.0, 1.0), (1.0, 2.0)) as (coefficient:exponent) pairs."""
    terms = []
    for chunk in text.split(","):
        c, sep, a = chunk.partition(":")
        if not sep:
            raise InputError(f"--potential: term {chunk!r} is not coefficient:exponent")
        terms.append(_parse_floats(f"{c},{a}", "--potential"))
    return tuple(terms)


def _out_path(args, default_name):
    if args.out:
        return args.out
    base = os.environ.get("RELEQUIL_OUT_DIR")
    if base:
        return os.path.join(base, default_name)
    return None


def _emit(args, payload, text, default_name):
    """Print the --format that was asked for, and write it to the output path
    if there is one; ``payload`` and ``text`` are callables, so only the
    printed format is built."""
    rendered = json.dumps(payload(), indent=2) if args.format == "json" else text()
    path = _out_path(args, default_name)
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(rendered + "\n")
    print(rendered)


def _parse_floats(text, flag):
    """'1,2.5,3' -> (1.0, 2.5, 3.0); None stays None."""
    if not text:
        return None
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"{flag}: {exc}") from exc


def _request_from_args(args):
    potential = _parse_potential(args.potential) if args.potential else None
    return AnalysisRequest(
        case=args.case,
        alpha=getattr(args, "alpha", None),
        potential=potential,
        masses=_parse_floats(args.masses, "--masses"),
        positions=_parse_floats(args.positions, "--positions"),
        compare_tol=getattr(args, "tol", AnalysisRequest.compare_tol),
        with_dynamics=getattr(args, "dynamics", False),
        with_timing=getattr(args, "timing", False),
    )


def cmd_analyze(args):
    request = _request_from_args(args)
    report = run_analysis(request)
    _emit(args, report.to_dict, report.render_table, f"{args.case or 'analysis'}.json")
    return EXIT_OK


def cmd_sweep(args):
    grid = _parse_floats(args.grid, "--grid")
    if not grid:
        raise InputError("--grid: need at least one alpha")
    base = _request_from_args(args)
    result = run_sweep(base, grid)

    def payload():
        return {
            "grid": grid,
            "summary": [{"alpha": a, "label": lab} for a, lab in result.summary],
            "failures": [{"alpha": a, "message": str(e)} for a, e in result.failures],
            "reports": [
                {"alpha": a, "report": (r.to_dict() if r is not None else None)}
                for a, r in result.reports
            ],
        }

    _emit(args, payload, result.render_table, "sweep.json")
    if any(isinstance(e, InputError) for _, e in result.failures):
        return EXIT_INPUT
    return EXIT_CONSISTENCY if result.failures else EXIT_OK


def cmd_simulate(args):
    from .dynamics import equilibrium_check, estimate_growth_rate, worst_direction

    require_positive("--periods", args.periods)
    require_positive("--steps-per-period", args.steps_per_period)
    if args.epsilon is not None:
        require_positive("--epsilon", args.epsilon)
    eq, _case = _request_from_args(args).equilibrium()
    growth = None
    if args.kick:
        try:
            est = estimate_growth_rate(eq, worst_direction(eq), epsilon=args.epsilon)
        except ValueError as exc:
            raise InputError(f"--epsilon: {exc}") from exc
        growth = {
            "rate": est.rate,
            "no_growth": est.no_growth,
            "window": list(est.window),
        }
    pin_ratio, drift, traj = equilibrium_check(
        eq.config, eq.spec, eq.omega2, args.periods, args.steps_per_period,
        sample_every=max(1, args.steps_per_period // 100),
    )
    energy_drift = float(np.max(np.abs(traj.jacobi_energy - traj.jacobi_energy[0])))
    payload = {
        "omega": eq.omega,
        "periods": args.periods,
        "pin_ratio": pin_ratio,
        "equilibrium_drift": drift,
        "jacobi_energy_drift": energy_drift,
        "blew_up": traj.blew_up,
        "growth": growth,
    }
    # the sampled trajectory is only in the JSON
    _emit(args, lambda: {**payload, "trajectory": traj.records()} if args.dump else payload,
          lambda: "\n".join(f"{k}: {v}" for k, v in payload.items()), "simulate.json")
    return EXIT_OK


def cmd_presets(args):
    rows = []
    for name in PRESET_NAMES:
        case = get_case(name, 1.0 if name in HOMOGENEOUS_PRESETS else None)
        rows.append({
            "name": name,
            "bodies": case.n,
            "potential": case.potential.describe(),
            "takes_alpha": name in HOMOGENEOUS_PRESETS,
            "reference_omega_squared": case.omega_squared.value,
            "suspect_references": case.omega_squared.suspect
            or any(rv.suspect for rv in case.hessian_eigenvalues)
            or case.hessian_entry[1].suspect,
        })
    _emit(args, lambda: rows, lambda: "\n".join(
        f"{r['name']:<24} n={r['bodies']} {r['potential']:<22} "
        f"alpha={'yes' if r['takes_alpha'] else 'no'}"
        + ("  [has suspect reference values]" if r["suspect_references"] else "")
        for r in rows
    ), "presets.json")
    return EXIT_OK


def cmd_selfcheck(args):
    from .checks import run_selfcheck

    ok, results = run_selfcheck(fast=args.fast)
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return EXIT_OK if ok else EXIT_CONSISTENCY


def _attach_list_values(argv):
    """'--positions -1,0' -> '--positions=-1,0', and so for --masses: argparse
    reads a separate value starting with '-' as an option, an attached one not."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--positions", "--masses") and not arg.startswith("--"):
            arg = f"{out.pop()}={arg}"
        out.append(arg)
    return out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="relequil",
        description="Linear stability of relative equilibria of planar "
                    "n-body configurations under power-law pair potentials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--case": dict(choices=PRESET_NAMES, default=None),
        "--alpha": dict(type=float, default=None),
        "--potential": dict(default=None, help="explicit terms 'c1:a1,c2:a2'"),
        "--positions": dict(default=None,
                            help="flat x1,y1,x2,y2,... for explicit configurations"),
        "--masses": dict(default=None,
                         help="m1,m2,... for explicit configurations (default all 1)"),
        "--tol": dict(type=float, default=AnalysisRequest.compare_tol,
                      help="block-vs-oracle comparison tolerance"),
        "--out": dict(default=None, help="write output to this path"),
        "--format": dict(choices=("json", "table"), default="table"),
    }

    def common(p, *skip):
        for name, kwargs in flags.items():
            if name not in skip:
                p.add_argument(name, **kwargs)

    p = sub.add_parser("analyze", help="full stability report for one case")
    common(p)
    p.add_argument("--dynamics", action="store_true",
                   help="add the nonlinear growth-rate confirmation")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sweep", help="alpha sweep for a homogeneous case")
    common(p, "--alpha")
    p.add_argument("--grid", required=True, help="comma-separated alphas")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("simulate", help="integrate the nonlinear system")
    common(p, "--tol")
    p.add_argument("--periods", type=float, default=10.0)
    p.add_argument("--steps-per-period", type=int, default=10000)
    p.add_argument("--kick", action="store_true",
                   help="perturb along the worst eigendirection and fit growth")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--dump", action="store_true",
                   help="include the sampled trajectory in the output")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("presets", help="list the preset cases")
    p.add_argument("--out", **flags["--out"])
    p.add_argument("--format", **flags["--format"])
    p.set_defaults(fn=cmd_presets)

    p = sub.add_parser("selfcheck", help="run the invariant battery")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY


if __name__ == "__main__":
    sys.exit(main())
