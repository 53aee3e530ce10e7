"""Shared value types: points of the upper half-plane, lattice coordinates,
real characteristics and the precision policy threaded through every
evaluation."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TauPoint:
    """A point of the upper half-plane; im > 0 is enforced at construction."""

    re: float
    im: float

    def __post_init__(self):
        if not (self.im > 0.0) or not math.isfinite(self.im) or not math.isfinite(self.re):
            raise ValueError(f"tau must lie in the upper half-plane, got {self.re}+{self.im}i")

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    @classmethod
    def from_complex(cls, z: complex) -> "TauPoint":
        return cls(float(z.real), float(z.imag))


def as_tau(tau) -> complex:
    """Accept TauPoint or complex, return the validated complex value."""
    if isinstance(tau, TauPoint):
        return tau.z
    z = complex(tau)
    if not (z.imag > 0.0 and cmath.isfinite(z)):
        raise ValueError(f"tau must be a finite point of the upper half-plane, got {z}")
    return z


def as_real(x, name: str) -> float:
    """Accept a real number, return it as a finite float."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v}")
    return v


@dataclass(frozen=True)
class LatticeCoord:
    """z = r + s*tau written in lattice coordinates."""

    r: float
    s: float


@dataclass(frozen=True)
class CharPair:
    """Real characteristic (r, s) indexing the pre-modular forms."""

    r: float
    s: float


def as_pair(rs) -> tuple[float, float]:
    """Accept LatticeCoord, CharPair or a plain pair."""
    r, s = (rs.r, rs.s) if isinstance(rs, (LatticeCoord, CharPair)) else rs
    return as_real(r, "r"), as_real(s, "s")


@dataclass(frozen=True)
class PrecisionPolicy:
    """Target absolute tolerance plus truncation/reduction parameters.

    eps: absolute tolerance on function values (scaled near poles).
    max_terms: hard cap on q-series length.
    min_im_direct: below this Im tau the argument is pulled back to a
        fundamental domain before series evaluation.
    """

    eps: float = 1e-12
    max_terms: int = 256
    min_im_direct: float = 0.35

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")
        if self.max_terms < 8:
            raise ValueError(f"max_terms must be >= 8, got {self.max_terms}")
        if self.min_im_direct < 0.3:
            raise ValueError(f"min_im_direct must be >= 0.3, got {self.min_im_direct}")


DEFAULT = PrecisionPolicy()
