"""30-digit mpmath reference values for the pointwise workload.

Every value is summed straight from a q-series at the given tau, with no
modular pull-back and no code shared with the library: the Eisenstein
series for eta1, E2, g2 and g3, and the sums over lattice translates
n in Z for wp, wp' and zeta (not the Lambert sums the library uses).

A value is compared with its reference on a scale: the size of the terms
that a sum in double precision has to add up, plus the value's sensitivity
to the rounding of the sum's inputs.  Rounding is relative to that scale,
not to |value|, which may cancel to almost nothing (g2 near the corner
point, Z2 near its zero).  There are two ways to sum each value: at tau
itself, where the size is the same expression evaluated on the absolute
values of its terms, or at the point tau1 of the SL(2,Z) fundamental
domain with tau = gamma(tau1), where it is that magnitude at tau1 times
|c tau1 + d|^k for weight k (with the quasi-period terms of eta1 and zeta).
The scale takes the smaller of the two, so a library that sums in the worse
way, or loses digits in the pull-back, fails.  The oracle finds gamma
itself, with integer steps, and uses it for the scale only.  The library
sums its series to an absolute tolerance at the point it sums at; that
tolerance, carried back, is the third part of the scale (see _scales).  A
library value passes when |value - ref| <= TOL * scale.
"""

import functools
import math

import mpmath as mp

DPS = 30
TOL = 1e-10
_LOG_CUT = math.log(1e-34)


def _nterms(rho: float, power: int) -> int:
    """N past the peak of k^power rho^k whose tail is below 1e-34."""
    lr = math.log(rho)
    k = max(1, math.ceil((power + 1) / -lr))
    while (power + 1) * math.log(k) + k * lr - math.log1p(-rho) > _LOG_CUT:
        k += 1
    return k


@functools.cache
def _sigma(p: int, size: int) -> list:
    """sigma_p(k) for k < size (index 0 unused)."""
    table = [0] * size
    for d in range(1, size):
        dp = d**p
        for m in range(d, size, d):
            table[m] += dp
    return table


def _eisenstein(tau):
    """(eta1, g2, g3), each as (value, magnitude), from the divisor sums."""
    q = mp.exp(2j * mp.pi * tau)
    rho = float(abs(q))
    n = _nterms(rho, 6)
    size = 1 << (n + 1).bit_length()  # few distinct table sizes
    powers = []
    qk = mp.mpc(1)
    for _ in range(n):
        qk *= q
        powers.append(qk)
    rk = [rho**k for k in range(1, n + 1)]
    s, m = {}, {}
    for p in (1, 3, 5):
        coeffs = _sigma(p, size)[1:n + 1]
        s[p] = mp.fdot(coeffs, powers)
        m[p] = math.fsum(a * b for a, b in zip(coeffs, rk))
    pi = mp.pi
    eta1 = (pi**2 / 3 * (1 - 24 * s[1]), float(pi**2 / 3) * (1 + 24 * m[1]))
    g2 = (4 * pi**4 / 3 * (1 + 240 * s[3]), float(4 * pi**4 / 3) * (1 + 240 * m[3]))
    g3 = (8 * pi**6 / 27 * (1 - 504 * s[5]), float(8 * pi**6 / 27) * (1 + 504 * m[5]))
    return eta1, g2, g3


def _weierstrass(r: float, s: float, tau, eta1):
    """(wp, wp', zeta) at z = r + s*tau, each as (value, magnitude); |s| < 1."""
    pi = mp.pi
    z = r + s * tau
    q = mp.exp(2j * pi * tau)
    x = mp.exp(2j * pi * z)
    xi = 1 / x
    rho, ax = float(abs(q)), float(abs(x))
    n = _nterms(rho * max(ax, 1 / ax), 0) + 1
    # sum over n >= 1 of F(q^n x) + F(q^n / x), G(q^n x) - G(q^n / x) and
    # H(q^n x) - H(q^n / x), with H = y/(1-y), F = y/(1-y)^2, G = y(1+y)/(1-y)^3
    sum_f = sum_g = sum_h = mp.mpc(0)
    mag_f = mag_g = mag_h = 0.0
    qn = mp.mpc(1)
    for k in range(1, n + 1):
        qn *= q
        for y, sign in ((qn * x, 1), (qn * xi, -1)):
            inv = 1 / (1 - y)
            h = y * inv
            f = h * inv
            sum_f += f
            if sign > 0:
                sum_g += f * (1 + y) * inv
                sum_h += h
            else:
                sum_g -= f * (1 + y) * inv
                sum_h -= h
        for ay in (rho**k * ax, rho**k / ax):
            mag_h += ay / (1 - ay)
            mag_f += ay / (1 - ay) ** 2
            mag_g += ay * (1 + ay) / (1 - ay) ** 3
    f0 = x / (1 - x) ** 2
    g0 = f0 * (1 + x) / (1 - x)
    e1, m_e1 = eta1
    # 2 * sum sigma_1(k) q^k, recovered from eta1 = pi^2/3 (1 - 24 S1)
    two_s1 = (1 - e1 * 3 / pi**2) / 12
    m_two_s1 = (m_e1 * 3 / float(pi**2) - 1) / 12
    tpi = float(2 * pi)
    wp = ((2j * pi) ** 2 * (mp.mpf(1) / 12 + f0 + sum_f - two_s1),
          tpi**2 * (1 / 12 + float(abs(f0)) + mag_f + m_two_s1))
    wpp = ((2j * pi) ** 3 * (g0 + sum_g), tpi**3 * (float(abs(g0)) + mag_g))
    cot = (1 + x) / (1 - x)
    zeta = (e1 * z - 1j * pi * cot - 2j * pi * sum_h,
            m_e1 * float(abs(z)) + tpi / 2 * float(abs(cot)) + tpi * mag_h)
    return wp, wpp, zeta


def reference(fn: str, args: tuple) -> list:
    """[(value, magnitude)] for each component the library call returns.

    fn names the library call: 'eval_invariants' (tau), 'eval_E2' (tau),
    'eval_weierstrass' ((r, s), tau), 'eval_Zrs2' ((r, s), tau) or
    'eval_fC' (C, tau).
    """
    with mp.workdps(DPS):
        tau = mp.mpc(args[-1])
        eta1, g2, g3 = _eisenstein(tau)
        if fn == "eval_invariants":
            return [g2, g3]
        if fn == "eval_E2":
            k = 3 / mp.pi**2
            return [(k * eta1[0], float(k) * eta1[1])]
        eta2 = (tau * eta1[0] - 2j * mp.pi, float(abs(tau)) * eta1[1] + float(2 * mp.pi))
        if fn == "eval_fC":
            C = args[0]
            lin = C * eta1[0] - eta2[0]
            m_lin = abs(C) * eta1[1] + eta2[1]
            d = C - tau
            return [(12 * lin**2 - g2[0] * d**2,
                     12 * m_lin**2 + g2[1] * float(abs(d)) ** 2)]
        r, s = args[0]
        wp, wpp, zeta = _weierstrass(r, s, tau, eta1)
        if fn == "eval_weierstrass":
            return [wp, wpp, zeta]
        if fn == "eval_Zrs2":
            zh = zeta[0] - r * eta1[0] - s * eta2[0]
            m_zh = zeta[1] + abs(r) * eta1[1] + abs(s) * eta2[1]
            return [(zh**3 - 3 * wp[0] * zh - wpp[0],
                     m_zh**3 + 3 * wp[1] * m_zh + wpp[1])]
    raise ValueError(f"no reference for {fn}")


def _reduce(tau):
    """(tau1, (a, b, c, d)) with tau1 in the closure of the SL(2,Z)
    fundamental domain and tau = (a tau1 + b) / (c tau1 + d)."""
    a, b, c, d = 1, 0, 0, 1
    while True:
        n = int(mp.floor(tau.real + 0.5))
        tau -= n                          # tau_old = tau + n: gamma @ T^n
        b, d = a * n + b, c * n + d
        if abs(tau) >= 1:
            return tau, (a, b, c, d)
        tau = -1 / tau                    # tau_old = -1/tau: gamma @ S
        a, b, c, d = b, -a, d, -c


def _pulled_back(fn: str, args: tuple, tau1, gamma, dr=0) -> list:
    """[(value, magnitude, reach)] for each component, summed at tau1 (with
    the lattice coordinate r1 moved by dr) and carried back to gamma(tau1);
    reach is how far an absolute error of 1 in the sums at tau1 moves the
    value carried back."""
    a, b, c, d = gamma
    pi, tpi = mp.pi, float(2 * mp.pi)
    mu = c * tau1 + d
    m_mu = float(abs(mu))
    eta1, g2, g3 = _eisenstein(tau1)
    eta2 = (tau1 * eta1[0] - 2j * pi, float(abs(tau1)) * eta1[1] + tpi)
    if fn == "eval_invariants":
        return [(g2[0] * mu**4, g2[1] * m_mu**4, m_mu**4),
                (g3[0] * mu**6, g3[1] * m_mu**6, m_mu**6)]
    # eta1(tau) = mu (c eta2(tau1) + d eta1(tau1))
    e1 = (mu * (c * eta2[0] + d * eta1[0]), m_mu * (abs(c) * eta2[1] + abs(d) * eta1[1]))
    if fn == "eval_E2":
        k = 3 / pi**2
        return [(k * e1[0], float(k) * e1[1], float(k) * m_mu**2)]
    if fn == "eval_fC":
        C = args[0]
        t = (a * tau1 + b) / mu
        dist = float(abs(C - t))
        lin = (C * e1[0] - (t * e1[0] - 2j * pi), (abs(C) + float(abs(t))) * e1[1] + tpi)
        return [(12 * lin[0] ** 2 - g2[0] * mu**4 * (C - t) ** 2,
                 12 * lin[1] ** 2 + g2[1] * m_mu**4 * dist**2,
                 24 * float(abs(lin[0])) * dist * m_mu**2 + dist**2 * m_mu**4)]
    r, s = args[0]
    # z (c tau1 + d) in the tau1 lattice, then reduced into [-1/2, 1/2)^2
    r1, s1 = d * r + b * s + dr, c * r + a * s
    rh, sh = r1 - mp.floor(r1 + 0.5), s1 - math.floor(s1 + 0.5)
    wp, wpp, zeta = _weierstrass(rh, sh, tau1, eta1)
    hat = (zeta[0] - rh * eta1[0] - sh * eta2[0],
           zeta[1] + float(abs(rh)) * eta1[1] + abs(sh) * eta2[1])
    if fn == "eval_weierstrass":
        zeta1 = (hat[0] + r1 * eta1[0] + s1 * eta2[0],
                 hat[1] + float(abs(r1)) * eta1[1] + abs(s1) * eta2[1])
        return [(wp[0] * mu**2, wp[1] * m_mu**2, m_mu**2),
                (wpp[0] * mu**3, wpp[1] * m_mu**3, m_mu**3),
                (zeta1[0] * mu, zeta1[1] * m_mu,
                 m_mu * (1 + float(abs(r1)) + abs(s1) * float(abs(tau1))))]
    if fn == "eval_Zrs2":
        h, w = float(abs(hat[0])), float(abs(wp[0]))
        return [((hat[0] ** 3 - 3 * wp[0] * hat[0] - wpp[0]) * mu**3,
                 (hat[1] ** 3 + 3 * wp[1] * hat[1] + wpp[1]) * m_mu**3,
                 (3 * h * h + 3 * w + 3 * h + 1) * m_mu**3)]
    raise ValueError(f"no reference for {fn}")


def _scales(fn: str, args: tuple, direct: list, abs_tol: float) -> list:
    """The scale of each component, the sum of three parts.

    The size of its terms: the smaller of its magnitudes summed at tau
    (direct) and at the reduced point.

    Its sensitivity to the rounding of the inputs of the sum at the reduced
    point, |d value / d tau1| T + |d value / d z1| Z, with T and Z the sizes
    that the rounding of tau and of the characteristic leaves in tau1 and
    z1: where the value is ill-conditioned (wp' near a half period) double
    precision through the pull-back can do no better.

    The library's absolute target abs_tol at the point it sums at, carried
    back and divided by TOL: a value that meets the target passes."""
    tau = mp.mpc(args[-1])
    tau1, gamma = _reduce(tau)
    a, b, c, d = gamma
    base = _pulled_back(fn, args, tau1, gamma)
    h = mp.mpf(10) ** -12
    slope_t = _pulled_back(fn, args, tau1 + h, gamma)
    # tau = gamma(tau1) gives d tau1 / d tau = (c tau1 + d)^2
    size_t = float(abs(c * tau1 + d)) ** 2 * float(abs(tau)) + float(abs(tau1))
    sens = [float(abs(v - w[0]) / h) * size_t for (v, _, _), w in zip(base, slope_t)]
    if fn in ("eval_weierstrass", "eval_Zrs2"):
        r, s = args[0]
        slope_z = _pulled_back(fn, args, tau1, gamma, dr=h)
        size_z = abs(d * r) + abs(b * s) + float(abs(tau1)) * (abs(c * r) + abs(a * s))
        sens = [x + float(abs(v - w[0]) / h) * size_z
                for x, (v, _, _), w in zip(sens, base, slope_z)]
    return [min(m_direct, m_pulled) + x + abs_tol / TOL * reach
            for (_, m_direct), (_, m_pulled, reach), x in zip(direct, base, sens)]


def error(fn: str, args: tuple, value, abs_tol: float) -> float:
    """Largest |value - ref| / scale over the components of value, for a
    library whose sums aim at the absolute tolerance abs_tol."""
    values = value if isinstance(value, tuple) else (value,)
    with mp.workdps(DPS):
        refs = reference(fn, args)
        scales = _scales(fn, args, refs, abs_tol)
        return max(float(abs(mp.mpc(v) - ref) / scale)
                   for v, (ref, _), scale in zip(values, refs, scales, strict=True))
