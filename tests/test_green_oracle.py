"""The Hecke form Z_{r,s} against the Green function of the torus, built from
its definition with mpmath alone.

On the torus C/(Z + tau Z) the Green function is, up to a constant in z,

    G(z) = -(1/2 pi) log|theta1(z)| + (Im z)^2 / (2 Im tau),

theta1 with periods 1 and tau (mpmath.jtheta(1, pi z, e^{i pi tau})).  At
z = r + s tau its derivative dG/dz = (G_x - i G_y)/2 gives

    -4 pi dG/dz = theta1'(z)/theta1(z) + 2 pi i s = Z_{r,s}(tau),

the form eval_Zrs sums from q-series and the modular pull-back.  The
reference takes G_x and G_y by mpmath.diff at 40 digits, so it shares no
code and no formula for Z with the library (C.-S. Lin and C.-L. Wang,
Ann. of Math. 172 (2010)).
"""

import math
import random

import mpmath as mp
import pytest

from e2crit import eval_Zrs

DPS = 40
# |eval_Zrs - reference| / |reference|, fixed here: the worst of 240 seeded
# points like these was 1.1e-14, where |Z| = 0.2 (the pulled-back
# characteristic is rounded on the scale of d r + b s)
TOL = 1e-13
PER_CASE = 8
# the three bands of the pull-back: the wp/Z family summed directly, the
# family pulled back to F, and both it and the (eta1, g2, g3) series
BANDS = {"direct": (0.70, 3.0), "family-pulled": (0.35, 0.70), "both-pulled": (0.02, 0.35)}


def green_Z(r: float, s: float, tau: complex) -> complex:
    """-4 pi dG/dz at z = r + s tau, from G by numerical differentiation."""
    with mp.workdps(DPS):
        t = mp.mpc(tau.real, tau.imag)
        q = mp.expjpi(t)

        def G(x, y):
            theta = mp.jtheta(1, mp.pi * mp.mpc(x, y), q)
            return -mp.log(abs(theta)) / (2 * mp.pi) + y * y / (2 * t.imag)

        z = r + s * t
        gx = mp.diff(lambda x: G(x, z.imag), z.real)
        gy = mp.diff(lambda y: G(z.real, y), z.imag)
        return complex(-2 * mp.pi * (gx - 1j * gy))


def _points(band: str, wide: bool, seed: int):
    """PER_CASE seeded (r, s, tau): Im tau log-uniform in the band, Re tau
    in [-1, 1], or with 2 <= |Re tau| <= 1000 (log-uniform) when wide."""
    rng = random.Random(seed)
    lo, hi = BANDS[band]
    out = []
    for _ in range(PER_CASE):
        re = rng.choice((-1, 1)) * 10 ** rng.uniform(math.log10(2), 3) if wide else rng.uniform(-1, 1)
        tau = complex(re, math.exp(rng.uniform(math.log(lo), math.log(hi))))
        out.append((rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), tau))
    return out


@pytest.mark.parametrize("wide", [False, True], ids=["re-small", "re-large"])
@pytest.mark.parametrize("band", list(BANDS))
def test_Z_is_the_green_function_derivative(band, wide):
    seed = 17 + 2 * list(BANDS).index(band) + wide
    worst = 0.0
    for r, s, tau in _points(band, wide, seed):
        want = green_Z(r, s, tau)
        err = abs(eval_Zrs((r, s), tau) - want) / abs(want)
        assert err <= TOL, (r, s, tau, want, err)
        worst = max(worst, err)
    assert worst > 0.0  # the comparison is not vacuous
