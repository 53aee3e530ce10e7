"""Unimodular integer maps on the upper half-plane: Gamma_0(2) membership,
reduction to the fundamental domains F0 (of Gamma_0(2)) and F (of SL(2,Z)),
characteristic transformation and coset enumeration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .domain import CharPair, TauPoint, as_pair, as_tau
from .errors import ReductionStalled

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class MoebiusMap:
    """Integer matrix (a b; c d) with ad - bc = 1, normalized modulo +-I
    (canonical sign: c > 0, or c = 0 and d > 0)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant must be 1: {(self.a, self.b, self.c, self.d)}")
        if self.c < 0 or (self.c == 0 and self.d < 0):
            object.__setattr__(self, "a", -self.a)
            object.__setattr__(self, "b", -self.b)
            object.__setattr__(self, "c", -self.c)
            object.__setattr__(self, "d", -self.d)

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def mu(self, tau: complex) -> complex:
        """Denominator c*tau + d."""
        return self.c * tau + self.d

    def __call__(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)


IDENTITY = MoebiusMap(1, 0, 0, 1)
T_SHIFT = MoebiusMap(1, 1, 0, 1)
S_INVERT = MoebiusMap(0, -1, 1, 0)
# involution with isometric circle |2 tau - 1| = 1; W = V T^{-1} for the
# Gamma_0(2) generator V = (1 0; 2 1), and W^2 = -I
W_CIRCLE = MoebiusMap(1, -1, 2, -1)
GAMMA_1 = MoebiusMap(0, 1, -1, 1)
GAMMA_2 = MoebiusMap(1, -1, 1, 0)


class DomainTag(Enum):
    F0_INTERIOR = "F0_interior"
    F0_BOUNDARY = "F0_boundary"
    OUTSIDE = "outside"


def apply(gamma: MoebiusMap, tau) -> TauPoint:
    """Moebius action gamma . tau = (a tau + b)/(c tau + d)."""
    return TauPoint.from_complex(gamma(as_tau(tau)))


def is_gamma02(gamma: MoebiusMap) -> bool:
    """Membership in Gamma_0(2): lower-left entry even."""
    return gamma.c % 2 == 0


def f0_margin(t: complex) -> float:
    """The least of the margins Re t, 1 - Re t and |t - 1/2| - 1/2 of the
    complex number t inside F0: negative outside F0, whose position it
    gives to domain_tag.  t is not validated."""
    return min(t.real, 1.0 - t.real, abs(t - 0.5) - 0.5)


def domain_tag(margin: float, tol: float = BOUNDARY_TOL) -> DomainTag:
    """The position relative to F0 of a point whose f0_margin is margin."""
    if margin < -tol:
        return DomainTag.OUTSIDE
    if margin <= tol:
        return DomainTag.F0_BOUNDARY
    return DomainTag.F0_INTERIOR


def classify_domain(tau, tol: float = BOUNDARY_TOL) -> DomainTag:
    """Position of tau relative to F0 = {0 <= Re <= 1, |tau - 1/2| >= 1/2}."""
    return domain_tag(f0_margin(as_tau(tau)), tol)


def reduce_to_F0(tau) -> tuple[TauPoint, MoebiusMap]:
    """Reduce tau to F0, returning (tau0, gamma) with tau = gamma . tau0.

    T-translations center the real part; the involution W lifts points from
    inside the circle |tau - 1/2| < 1/2.  Each W strictly increases Im, so
    the walk terminates.
    """
    t = as_tau(tau)
    # gamma = (a b; c d) as plain integers, normalized once at the end
    a, b, c, d = 1, 0, 0, 1
    for _ in range(500):
        k = math.floor(t.real)
        if k != 0:
            t -= k
            b, d = a * k + b, c * k + d  # gamma @ T^k
        if abs(t - 0.5) >= 0.5 - BOUNDARY_TOL:
            return TauPoint.from_complex(t), MoebiusMap(a, b, c, d)
        t = (t - 1) / (2 * t - 1)  # W_CIRCLE(t), bit for bit
        a, b, c, d = a + 2 * b, -a - b, c + 2 * d, -c - d  # gamma @ W^{-1}, up to sign
    raise ReductionStalled(f"F0 reduction did not terminate for tau = {tau}")


def reduce_to_F_ints(tau: complex) -> tuple[complex, int, int, int, int]:
    """reduce_to_F with gamma as plain integers: (tau1, a, b, c, d), signed
    as MoebiusMap signs them.  tau must be a finite complex point of the
    upper half-plane; it is not validated, and no object is built, so the
    modular pull-back under every series evaluation calls this directly."""
    t = tau
    # gamma = (a b; c d), signed once at the end
    a, b, c, d = 1, 0, 0, 1
    for _ in range(500):
        k = math.floor(t.real + 0.5)
        if k != 0:
            t -= k
            b, d = a * k + b, c * k + d  # gamma @ T^k
        if abs(t) < 1.0 - BOUNDARY_TOL:
            t = -1.0 / t  # S_INVERT(t), bit for bit
            a, b, c, d = b, -a, d, -c  # gamma @ S^{-1}, up to sign
        else:
            break
    else:
        raise ReductionStalled(f"F reduction did not terminate for tau = {tau}")
    if t.real < -BOUNDARY_TOL:
        t += 1
        b, d = b - a, d - c  # gamma @ T^{-1}
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    return t, a, b, c, d


def reduce_to_F(tau) -> tuple[TauPoint, MoebiusMap]:
    """Reduce tau to F = {0 <= Re <= 1, |tau| >= 1, |tau - 1| >= 1}, the
    right-shifted SL(2,Z) fundamental domain; returns (tau1, gamma) with
    tau = gamma . tau1 and Im tau1 >= sqrt(3)/2."""
    t, a, b, c, d = reduce_to_F_ints(as_tau(tau))
    return TauPoint.from_complex(t), MoebiusMap(a, b, c, d)


def transform_char(gamma: MoebiusMap, rs) -> CharPair:
    """Characteristic carried to gamma.tau: (s', r') = (s, r) . gamma^{-1},
    so that Z_{r',s'}(gamma.tau) = (c tau + d) Z_{r,s}(tau)."""
    r, s = as_pair(rs)
    return CharPair(gamma.a * r - gamma.b * s, gamma.d * s - gamma.c * r)


def enumerate_gamma02(max_c: int) -> list[MoebiusMap]:
    """Normalized Gamma_0(2)/{+-I} representatives with 0 < c <= max_c, one
    per (c, d mod c) and both d = +-1 at c = 2: not every such tile.

    For each even c, d runs over the odd integers in the symmetric window
    [-c/2, c/2] with gcd(c, d) = 1; (a, b) is the canonical Bezout
    completion with a = d^{-1} mod c in [1, c].  Each (c, d) is visited once
    and fixes (a, b), so the maps are distinct.  The maps gamma T^m whose
    d + m c leaves the window are left out.
    """
    if max_c < 2:
        raise ValueError(f"max_c must be >= 2, got {max_c}")
    out = []
    for c in range(2, max_c + 1, 2):
        half = c // 2
        for d in range(-half, half + 1):
            if d % 2 == 0 or math.gcd(c, d) != 1:
                continue
            a = pow(d % c, -1, c)
            b = (a * d - 1) // c
            out.append(MoebiusMap(a, b, c, d))
    return out
