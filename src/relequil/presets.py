"""Catalog of the standard equal-mass polygon cases with reference values.

Each case records the closed-form quantities known for it from prior
analyses of these configurations.  Reference entries marked ``suspect``
are internally inconsistent with the finite-difference-verified operators
(see the notes on each case); reports carry them side by side with the
computed values and an agreement flag, and every computation in this
package binds to the computed route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .central import regular_polygon
from .model import PotentialSpec

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)
_unit_polygon = functools.cache(regular_polygon)   # one shared n-gon per n; presets have n = 3, 4
# homogeneous presets built per float(alpha); CaseDefinition is frozen, so shared
HOMOGENEOUS_CACHE_SIZE = 256


@dataclass(frozen=True)
class ReferenceValue:
    value: float
    suspect: bool = False
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class CaseDefinition:
    """A named configuration/potential pair plus its reference data."""

    name: str
    n: int
    potential: PotentialSpec
    alpha: float | None                       # exponent for homogeneous cases
    omega_squared: ReferenceValue
    hessian_eigenvalues: tuple                # ReferenceValue per distinct level
    eigenvalue_multiplicities: tuple
    hessian_entry: tuple                      # ((row, col), ReferenceValue)
    notes: str = ""

    def configuration(self):
        return _unit_polygon(self.n)


@functools.lru_cache(maxsize=HOMOGENEOUS_CACHE_SIZE)
def _triangle_homogeneous(a):
    w2 = 3.0 ** (-a / 2.0) * a
    return CaseDefinition(
        name="triangle-homogeneous",
        n=3,
        potential=PotentialSpec.homogeneous(a),
        alpha=a,
        omega_squared=ReferenceValue(w2),
        hessian_eigenvalues=(
            ReferenceValue(3.0 ** (-a / 2.0) * a * (1.0 + a)),
            ReferenceValue(-(3.0 ** (-a / 2.0)) * a),
            ReferenceValue(0.0),
            ReferenceValue(0.5 * 3.0 ** (-a / 2.0) * a * a),
        ),
        eigenvalue_multiplicities=(1, 1, 2, 2),
        hessian_entry=(
            (0, 0),
            ReferenceValue(
                3.0 ** (-a / 2.0) * a * (3.0 + 2.0 * a) / 6.0,
                suspect=(abs(a - 1.0) > 1e-12),
                note="printed coefficient (3+2a); the FD-verified entry has "
                     "(2+3a) and the two agree only at a=1",
            ),
        ),
        notes="a commonly quoted essential-block matrix for this family "
              "carries omega^2 + 3*lam instead of omega^2 + lam; the "
              "computed blocks here are cross-checked against the dense "
              "oracle and, at a=1, against the classical equal-mass "
              "quartic coefficients",
    )


@functools.lru_cache(maxsize=HOMOGENEOUS_CACHE_SIZE)
def _square_homogeneous(a):
    w2 = (2.0 ** (-1.0 - a) + 2.0 ** (-a / 2.0)) * a
    p = 2.0 ** (1.0 + a / 2.0)
    return CaseDefinition(
        name="square-homogeneous",
        n=4,
        potential=PotentialSpec.homogeneous(a),
        alpha=a,
        omega_squared=ReferenceValue(w2),
        hessian_eigenvalues=(
            ReferenceValue(2.0 ** (-1.0 - a) * (1.0 + p) * a * (1.0 + a)),
            ReferenceValue(-(2.0 ** (-1.0 - a)) * (1.0 + p) * a),
            ReferenceValue(-(2.0 ** (-1.0 - a)) * (-1.0 + p - a) * a),
            ReferenceValue(2.0 ** (-1.0 - a) * a * (-1.0 + p + p * a)),
            ReferenceValue(0.0),
            ReferenceValue(2.0 ** (-a / 2.0) * a * a),
        ),
        eigenvalue_multiplicities=(1, 1, 1, 1, 2, 2),
        hessian_entry=(
            (0, 0),
            ReferenceValue(2.0 ** (-a) * a * (1.0 + a + p * a) / 4.0),
        ),
    )


MANEV_TRIANGLE = CaseDefinition(
    name="manev-triangle",
    n=3,
    potential=PotentialSpec.manev(),
    alpha=None,
    omega_squared=ReferenceValue(2.0 / 3.0 + 1.0 / SQRT3),
    hessian_eigenvalues=(
        ReferenceValue(4.0 / 3.0 * (3.0 + SQRT3), suspect=True,
                       note="twice the true eigenvalue 2(3+sqrt3)/3"),
        ReferenceValue(-2.0 / 3.0 * (2.0 + SQRT3), suspect=True,
                       note="twice the true eigenvalue -(2+sqrt3)/3"),
        ReferenceValue(0.0),
        ReferenceValue((4.0 + SQRT3) / 3.0, suspect=True,
                       note="twice the true eigenvalue (4+sqrt3)/6"),
    ),
    eigenvalue_multiplicities=(1, 1, 2, 2),
    hessian_entry=(
        (0, 0),
        ReferenceValue((16.0 + 5.0 * SQRT3) / 9.0, suspect=True,
                       note="twice the FD-verified entry (16+5 sqrt3)/18"),
    ),
    notes="the reference Hessian for this case is scaled by 2 throughout; "
          "its omega^2 is consistent with the unscaled potential",
)

SCHWARZSCHILD_TRIANGLE = CaseDefinition(
    name="schwarzschild-triangle",
    n=3,
    potential=PotentialSpec.schwarzschild(),
    alpha=None,
    omega_squared=ReferenceValue(2.0 / SQRT3),
    hessian_eigenvalues=(
        ReferenceValue(29.0 / (6.0 * SQRT3), suspect=True,
                       note="inconsistent with the reference matrix itself; "
                            "direct diagonalization gives 2 sqrt3"),
        ReferenceValue(-19.0 / (6.0 * SQRT3), suspect=True,
                       note="direct diagonalization gives -2/sqrt3"),
        ReferenceValue(0.0),
        ReferenceValue(-1.0 / (3.0 * SQRT3), suspect=True,
                       note="direct diagonalization gives +2/sqrt3"),
    ),
    eigenvalue_multiplicities=(1, 1, 2, 2),
    hessian_entry=((1, 1), ReferenceValue(0.0)),
    notes="the reference eigenvalue list does not diagonalize the reference "
          "matrix; the matrix itself is correct, and with its true "
          "eigenvalues the configuration/rotation block is exactly the "
          "zero matrix (all four of its modes vanish)",
)

MANEV_SQUARE = CaseDefinition(
    name="manev-square",
    n=4,
    potential=PotentialSpec.manev(),
    alpha=None,
    omega_squared=ReferenceValue(
        2.0 / 3.0 + 1.0 / SQRT3, suspect=True,
        note="repeats the triangle value; the Euler route gives (3+sqrt2)/2 "
             "and zeroes the centrality residual",
    ),
    hessian_eigenvalues=(
        ReferenceValue(17.0 / 4.0 + SQRT2),
        ReferenceValue(-1.5 - 1.0 / SQRT2),
        ReferenceValue(0.25 - 1.0 / SQRT2),
        ReferenceValue(2.5 + SQRT2),
        ReferenceValue(0.0),
        ReferenceValue(2.0 + 1.0 / SQRT2),
    ),
    eigenvalue_multiplicities=(1, 1, 1, 1, 2, 2),
    hessian_entry=((0, 0), ReferenceValue((13.0 + 2.0 * SQRT2) / 8.0)),
)

SCHWARZSCHILD_SQUARE = CaseDefinition(
    name="schwarzschild-square",
    n=4,
    potential=PotentialSpec.schwarzschild(),
    alpha=None,
    omega_squared=ReferenceValue(7.0 / 16.0 + 5.0 / (2.0 * SQRT2)),
    hessian_eigenvalues=(
        ReferenceValue((5.0 + 16.0 * SQRT2) / 4.0),
        ReferenceValue((-7.0 - 20.0 * SQRT2) / 16.0),
        ReferenceValue((5.0 - 5.0 * SQRT2) / 4.0),
        ReferenceValue((-7.0 + 64.0 * SQRT2) / 16.0),
        ReferenceValue(0.0),
        ReferenceValue(11.0 * SQRT2 / 4.0),
    ),
    eigenvalue_multiplicities=(1, 1, 1, 1, 2, 2),
    hessian_entry=((0, 0), ReferenceValue((5.0 + 11.0 * SQRT2) / 8.0)),
)


PRESET_BUILDERS = {
    "triangle-homogeneous": _triangle_homogeneous,
    "square-homogeneous": _square_homogeneous,
    "manev-triangle": lambda alpha=None: MANEV_TRIANGLE,
    "schwarzschild-triangle": lambda alpha=None: SCHWARZSCHILD_TRIANGLE,
    "manev-square": lambda alpha=None: MANEV_SQUARE,
    "schwarzschild-square": lambda alpha=None: SCHWARZSCHILD_SQUARE,
}

PRESET_NAMES = tuple(PRESET_BUILDERS)
HOMOGENEOUS_PRESETS = ("triangle-homogeneous", "square-homogeneous")


def get_case(name, alpha=None):
    """Resolve a preset name (plus alpha for the homogeneous families)."""
    if name not in PRESET_BUILDERS:
        raise KeyError(f"unknown preset {name!r}; know {', '.join(PRESET_NAMES)}")
    if name in HOMOGENEOUS_PRESETS:
        return PRESET_BUILDERS[name](float(1.0 if alpha is None else alpha))
    if alpha is not None:
        raise ValueError(f"preset {name!r} does not take alpha")
    return PRESET_BUILDERS[name]()


def all_standard_cases(alpha=1.0):
    """The six standard cases, homogeneous families at the given alpha."""
    return [
        get_case("triangle-homogeneous", alpha),
        get_case("square-homogeneous", alpha),
        get_case("manev-triangle"),
        get_case("schwarzschild-triangle"),
        get_case("manev-square"),
        get_case("schwarzschild-square"),
    ]
