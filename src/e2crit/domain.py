"""Shared value types: points of the upper half-plane, real characteristics
and the precision policy threaded through every evaluation."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import ClassVar


def _check_upper(re: float, im: float) -> None:
    """TauPoint's one rule: ValueError unless re + im i is a finite point
    of the upper half-plane."""
    if not (im > 0.0) or not math.isfinite(im) or not math.isfinite(re):
        raise ValueError(f"tau must lie in the upper half-plane, got {re}+{im}i")


@dataclass(frozen=True)
class TauPoint:
    """A point of the upper half-plane; im > 0 is enforced at construction."""

    re: float
    im: float

    def __post_init__(self):
        _check_upper(self.re, self.im)

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    @classmethod
    def from_complex(cls, z: complex) -> "TauPoint":
        """TauPoint(z.real, z.imag), built without the frozen dataclass's
        __init__: the fields are set in the instance dict directly, after
        the same check, so equality and hash are the constructor's."""
        re, im = float(z.real), float(z.imag)
        _check_upper(re, im)
        point = object.__new__(cls)
        fields = point.__dict__
        fields["re"] = re
        fields["im"] = im
        return point


class LatticePoint(complex):
    """A point of the upper half-plane that carries its lattice data: low
    and family are its pull-backs (qseries._Pulled) at the floor of the
    (eta1, g2, g3) series and at that of the wp/Z family.  Built by
    qseries.lattice_point; arithmetic on it gives plain complex numbers."""

    __slots__ = ("low", "family")


def as_tau(tau) -> complex:
    """Accept TauPoint or complex, return the validated complex value; a
    LatticePoint is returned as itself, with its lattice data."""
    if type(tau) is LatticePoint:
        return tau
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
class CharPair:
    """Real characteristic (r, s) indexing the pre-modular forms."""

    r: float
    s: float


def as_pair(rs) -> tuple[float, float]:
    """Accept CharPair or a plain pair, return it as two finite floats."""
    r, s = (rs.r, rs.s) if isinstance(rs, CharPair) else rs
    r, s = float(r), float(s)
    if not (math.isfinite(r) and math.isfinite(s)):
        name, v = ("s", s) if math.isfinite(r) else ("r", r)
        raise ValueError(f"{name} must be finite, got {v}")
    return r, s


@dataclass(frozen=True)
class PrecisionPolicy:
    """Target absolute tolerance threaded through every evaluation.

    eps: absolute tolerance on function values (scaled near poles), the
        policy's only setting.
    min_im_direct: a constant, 0.35.  Below this Im tau the argument of the
        (eta1, g2, g3) series is pulled back to a fundamental domain before
        series evaluation; the wp/Z family is pulled back below twice this
        height, because its ratio |q| max(|x|, 1/|x|) reaches |q|^{1/2}.
        As 0.70 < sqrt(3)/2, the lowest height in F, every series is then
        summed at a ratio of at most e^{-2 pi 0.35} = 0.111.
    """

    eps: float = 1e-12
    min_im_direct: ClassVar[float] = 0.35

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps}")


DEFAULT = PrecisionPolicy()
