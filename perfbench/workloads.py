"""The benchmark's workloads: a fixed deck of inputs, one operation, one check.

An operation is one call a user would make.  Each workload deals its
operations from a deck: a fixed list of inputs drawn once from
``DECK_SEED``.  A pass plays the whole deck in an order shuffled by the
run's seed, so the same seed gives the same sequence of inputs, and every
run, whatever its seed or length, meets the same inputs in the same
proportions.  Its failed fraction is therefore the same on every run, and
its timings do not depend on which inputs a seed happened to draw.
``run`` performs the operation through module attributes
(``pipeline.run_analysis``, not a name bound at import), so the tracer in
``spans`` sees every call.
``check`` returns whether a returned result is correct.  The exceptions in
``EXPECTED_FAILURES`` are the program refusing an input or catching its
own inconsistency: they count as failed operations, not as wrong outputs.
"""

from __future__ import annotations

import json
import signal
import time
from dataclasses import dataclass

import numpy as np

from relequil import central, dynamics, model, pipeline, presets, spectrum

EXPECTED_FAILURES = (
    pipeline.InputError, pipeline.ConsistencyError, central.RefinementError,
)

MIN_OPS = 100
# The decks are drawn from this generator seed; --seed only orders them.
DECK_SEED = 20220713
# An operation still running after OP_LIMIT_S is stopped and counted as
# failed.  The limit is three times the slowest successful analysis measured
# (an n=24 polygon, 0.25 s on a 2-core x86-64 VM).  Without it one broken
# large-polygon analysis outweighs the rest of a run: an n=21 Schwarzschild
# polygon took 15 s, and an n=24 Manev one ran for 30 min and grew to 2.6 GB.
# In a timed loop the limit is in seconds of the reference host (speed.py).
OP_LIMIT_S = 0.75

# name -> pair-potential terms ((c, a), ...)
POTENTIALS = {
    "r-1": ((1.0, 1.0),),
    "r-2.5": ((1.0, 2.5),),
    "manev": ((1.0, 1.0), (1.0, 2.0)),
    "schwarzschild": ((1.0, 1.0), (1.0, 3.0)),
}


@dataclass(frozen=True)
class Case:
    label: str
    params: tuple


class Presets:
    """The six presets at alpha=1 against the goldens, plus an alpha grid.

    The grid steps by 0.1 over [0.5, 3] and by 0.005 over [1.965, 2.035].
    Near the inverse-square exponent the 1e-9 gate fails at scattered
    points between 1.98 and 2.03 (9 of the 30 there); the fine grid makes
    every pass meet that defect the same number of times.
    """

    name = "presets"
    ALPHAS = tuple(sorted({float(round(a, 3)) for a in (
        *np.linspace(0.5, 3.0, 26), *np.linspace(1.965, 2.035, 15))}))

    def __init__(self, golden_dir):
        self.golden = {
            name: json.loads((golden_dir / f"{name}.json").read_text())
            for name in presets.PRESET_NAMES
        }

    def deck(self, rng):
        out = [
            Case(f"golden {name}", (name, 1.0 if name in presets.HOMOGENEOUS_PRESETS else None))
            for name in presets.PRESET_NAMES
        ]
        for name in presets.HOMOGENEOUS_PRESETS:
            for alpha in self.ALPHAS:
                out.append(Case(f"grid {name}", (name, alpha)))
        return out

    def run(self, case):
        name, alpha = case.params
        return pipeline.run_analysis(pipeline.AnalysisRequest(case=name, alpha=alpha))

    def check(self, case, report):
        name, _ = case.params
        if case.label.startswith("golden"):
            return report.to_dict() == self.golden[name]
        return report.verdict == spectrum.UNSTABLE and report.matches_oracle


class Polygons:
    """Equal-mass regular n-gons, n = 3..24, at seeded radius and rotation."""

    name = "polygons"
    SIZES = tuple(range(3, 25))

    def deck(self, rng):
        out = []
        for n in self.SIZES:
            for pot in POTENTIALS:
                radius, theta = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * np.pi)
                ang = theta + 2.0 * np.pi * np.arange(n) / n
                q = radius * np.column_stack([np.cos(ang), np.sin(ang)])
                q -= q.mean(axis=0)
                out.append(Case(f"n={n} {pot}", (n, pot, tuple(q.ravel().tolist()))))
        return out

    def run(self, case):
        _, pot, positions = case.params
        return pipeline.run_analysis(
            pipeline.AnalysisRequest(positions=positions, potential=POTENTIALS[pot])
        )

    def check(self, case, report):
        n = case.params[0]
        d = report.to_dict()
        return (
            report.matches_oracle
            and bool(d["isotypic"])
            and len(d["oracle_spectrum"]) == 4 * n
            and len(d["block_union_spectrum"]) == 4 * n
        )


class Collinear:
    """Newton refinement of unequal-mass collinear guesses, then analysis."""

    name = "collinear"
    SIZES = tuple(range(3, 11))
    DRAWS = 2

    def deck(self, rng):
        out = []
        for n in self.SIZES:
            for pot in POTENTIALS:
                for _ in range(self.DRAWS):
                    masses = rng.uniform(0.5, 2.0, n)
                    x = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.2, 0.2, n) / (n - 1)
                    out.append(Case(f"n={n} {pot}",
                                    (n, pot, tuple(masses.tolist()), tuple(x.tolist()))))
        return out

    def run(self, case):
        n, pot, masses, x = case.params
        guess = np.zeros(2 * n)
        guess[0::2] = x
        config = central.refine_central_configuration(
            model.BodyConfiguration(np.array(masses), guess),
            model.PotentialSpec(POTENTIALS[pot]),
        )
        return pipeline.run_analysis(pipeline.AnalysisRequest(
            positions=tuple(config.positions), masses=tuple(config.masses),
            potential=POTENTIALS[pot],
        ))

    def check(self, case, report):
        n = case.params[0]
        d = report.to_dict()
        q = np.array(d["configuration"]["positions"]).reshape(-1, 2)
        return (
            report.matches_oracle
            and len(d["oracle_spectrum"]) == 4 * n
            and len(d["block_union_spectrum"]) == 4 * n
            and float(np.max(np.abs(q[:, 1]))) <= 1e-9 * float(np.max(np.abs(q[:, 0])))
        )


class Dynamics:
    """Kicked rotating-frame RK4 runs on the six presets."""

    name = "dynamics"
    PERIOD_FRACTION = 0.1
    STEPS_PER_PERIOD = 2000
    SAMPLE_EVERY = 10
    KICK = 1e-6
    DRIFT_TOL = 1e-8

    def deck(self, rng):
        out = []
        for name in presets.PRESET_NAMES:
            n = presets.get_case(name).n
            kick = rng.standard_normal(2 * n)
            kick *= self.KICK / np.linalg.norm(kick)
            out.append(Case(name, (name, tuple(kick.tolist()))))
        return out

    def run(self, case):
        name, kick = case.params
        preset = presets.get_case(name)
        config, spec = preset.configuration(), preset.potential
        period = 2.0 * np.pi / np.sqrt(model.angular_frequency_squared(config, spec))
        return dynamics.integrate_rotating_frame(
            config, spec, initial_velocity=np.array(kick),
            duration=self.PERIOD_FRACTION * period,
            dt=period / self.STEPS_PER_PERIOD, sample_every=self.SAMPLE_EVERY,
            reference_equilibrium=config.positions,
        )

    def check(self, case, traj):
        e = traj.jacobi_energy
        drift = float(np.max(np.abs(e - e[0]))) / abs(float(e[0]))
        return not traj.blew_up and drift <= self.DRIFT_TOL


WORKLOADS = {w.name: w for w in (Presets, Polygons, Collinear, Dynamics)}
NAMES = tuple(WORKLOADS)


def make(name, golden_dir):
    return Presets(golden_dir) if name == Presets.name else WORKLOADS[name]()


def passes(workload, seed):
    """Endless sequence of the workload's passes for one seed.

    Each pass is the whole deck, shuffled by a generator of ``seed``.
    """
    deck = workload.deck(np.random.default_rng(DECK_SEED))
    rng = np.random.default_rng(seed)
    while True:
        yield [deck[i] for i in rng.permutation(len(deck))]


class OpTimeout(Exception):
    """An operation ran past OP_LIMIT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def attempt(workload, case, limit_s=OP_LIMIT_S):
    """Run one operation, stopped after ``limit_s``, and return its outcome.

    The outcome is "ok", "wrong" when the returned output fails the
    workload's check, or else the name of the exception that stopped it.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            result = workload.run(case)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (OpTimeout, *EXPECTED_FAILURES) as exc:
        return type(exc).__name__
    return "ok" if workload.check(case, result) else "wrong"


def closed_loop(workload, stream, seconds=None, count=None, tracer=None, gauge=None):
    """Issue operations back to back, each after the previous one returns.

    Runs ``count`` passes of ``stream``, or else whole passes while the
    next pass, taking as long as the last one, ends within ``seconds``
    and until at least MIN_OPS were attempted.  Returns the per-operation
    durations, the same divided by the host slowness measured around each
    by ``gauge`` (a ``speed.Gauge`` that samples between operations; the
    durations again without one), their outcomes, the loop's wall time and
    the number of passes run.  With a gauge, OP_LIMIT_S is in seconds of the
    reference host too, so a slow spell of the host does not turn a slow
    operation into a failure.
    """
    durations, spans, outcomes = [], [], []
    clock = time.perf_counter
    start = last = clock()
    done = 0
    for cases in stream:
        now = clock()
        if count is not None:
            if done >= count:
                break
        elif 2 * now - last - start > seconds and len(durations) >= MIN_OPS:
            break
        last = now
        for case in cases:
            if tracer is not None:
                tracer.begin_op(len(durations))
            limit_s = OP_LIMIT_S
            if gauge is not None:
                gauge.tick()
                limit_s *= gauge.slowness(clock(), clock())
            t0 = clock()
            outcomes.append(attempt(workload, case, limit_s))
            t1 = clock()
            durations.append(t1 - t0)
            spans.append((t0, t1))
        done += 1
    wall = clock() - start
    if gauge is None:
        return durations, durations, outcomes, wall, done
    gauge.take()
    scaled = [d / gauge.slowness(t0, t1) for d, (t0, t1) in zip(durations, spans)]
    return durations, scaled, outcomes, wall, done
