"""Geometries, point pairs, and the curvature coupling.

Every kernel in this package is a two-point function on a static
spacetime whose spatial section is flat space, a cone, a wedge bounded
by reflecting walls, or the infinite-sheeted covering of the punctured
plane.  Points are given in cylindrical coordinates (r, theta, z), and
the Euclidean time offset t > 0 doubles as the ultraviolet cutoff.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PointPair:
    """Two points in cylindrical coordinates plus a Euclidean time offset.

    The primed point is (rp, thetap, zp).  The offset t is the Euclidean
    time separation; it must be nonnegative, and a strictly positive t
    regulates coincident spatial points.
    """

    t: float
    r: float
    rp: float
    theta: float = 0.0
    thetap: float = 0.0
    z: float = 0.0
    zp: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t", "r", "rp", "theta", "thetap", "z", "zp"):
            _require_finite(name, getattr(self, name))
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t!r}")
        if self.r <= 0 or self.rp <= 0:
            raise ValueError(
                f"radii must be positive, got r={self.r!r}, rp={self.rp!r}"
            )

    @property
    def dtheta(self) -> float:
        return self.theta - self.thetap

    def scaled(self, factor: float) -> "PointPair":
        """Dilate every length by ``factor`` (angles are untouched)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor!r}")
        return replace(
            self,
            t=self.t * factor,
            r=self.r * factor, rp=self.rp * factor,
            z=self.z * factor, zp=self.zp * factor,
        )

    def is_coincident(self) -> bool:
        return (
            self.t == 0.0
            and self.r == self.rp
            and self.theta == self.thetap
            and self.z == self.zp
        )


class BoundaryCondition(enum.Enum):
    """Reflecting wall type for wedge geometries."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"

    @property
    def image_sign(self) -> int:
        """Sign of the reflected image term: -1 Dirichlet, +1 Neumann."""
        return -1 if self is BoundaryCondition.DIRICHLET else +1


@dataclass(frozen=True)
class Minkowski:
    """Unbounded flat space."""


@dataclass(frozen=True)
class Cone:
    """Flat cone: the plane with total angle ``theta1`` glued at r = 0.

    ``theta1`` = 2*pi is ordinary flat space; ``theta1`` < 2*pi has a
    deficit (an idealized cosmic string), ``theta1`` > 2*pi a surplus.
    """

    theta1: float

    def __post_init__(self) -> None:
        _require_finite("theta1", self.theta1)
        if self.theta1 <= 0:
            raise ValueError(f"theta1 must be positive, got {self.theta1!r}")

    @property
    def order(self) -> float:
        """Fourier order 2*pi/theta1 of the angular mode sum."""
        return 2.0 * math.pi / self.theta1


@dataclass(frozen=True)
class Dowker:
    """Infinite-sheeted covering of the punctured plane.

    The limit theta1 -> infinity of the cone, with the angle ranging
    over the whole real line.  No periodicity in theta remains.
    """


@dataclass(frozen=True)
class Wedge:
    """Wedge 0 <= theta <= theta0 bounded by two reflecting half-planes."""

    theta0: float
    bc: BoundaryCondition = BoundaryCondition.DIRICHLET

    def __post_init__(self) -> None:
        _require_finite("theta0", self.theta0)
        if self.theta0 <= 0:
            raise ValueError(f"theta0 must be positive, got {self.theta0!r}")
        if not isinstance(self.bc, BoundaryCondition):
            raise TypeError(f"bc must be a BoundaryCondition, got {self.bc!r}")


Geometry = Minkowski | Cone | Dowker | Wedge


@dataclass(frozen=True)
class Coupling:
    """Curvature coupling of the scalar field.

    The stress tensor depends on the coupling only through the
    combination ``beta = xi - 1/4``, which multiplies a single block of
    radial derivatives.  ``beta`` is stored; ``xi`` is derived.
    """

    beta: float

    def __post_init__(self) -> None:
        _require_finite("beta", self.beta)

    @property
    def xi(self) -> float:
        return self.beta + 0.25

    @classmethod
    def minimal(cls) -> "Coupling":
        """xi = 0."""
        return cls(beta=-0.25)

    @classmethod
    def conformal(cls) -> "Coupling":
        """xi = 1/6, the trace-free choice in four dimensions."""
        return cls(beta=1.0 / 6.0 - 0.25)

    @classmethod
    def quarter(cls) -> "Coupling":
        """xi = 1/4, the choice that kills the radial-derivative block."""
        return cls(beta=0.0)

    @classmethod
    def from_xi(cls, xi: float) -> "Coupling":
        return cls(beta=xi - 0.25)

    @classmethod
    def from_name(cls, name: str) -> "Coupling":
        try:
            return {
                "minimal": cls.minimal,
                "conformal": cls.conformal,
                "quarter": cls.quarter,
            }[name.lower()]()
        except KeyError:
            raise ValueError(
                f"unknown coupling name {name!r}; "
                "expected minimal, conformal, or quarter"
            ) from None
