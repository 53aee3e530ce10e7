"""The abstract's claims at scale: one critical point of E2 per Gamma_0(2)
tile, none in F0 itself, distinct points, and a tile the enumeration leaves
out."""

import math

from e2crit import (
    DEFAULT,
    Contour,
    MoebiusMap,
    count_zeros,
    count_zeros_info,
    critical_points_E2,
    enumerate_gamma02,
    eval_derivatives,
    eval_fC,
    f0_contour,
    newton_refine,
    reduce_to_F0,
    solve_tauC,
)
from e2crit.qseries import _HALF_I_PI, _basic, _derivs
from e2crit.zeros import BOUNDARY_ZERO_TOL, MAX_CONTOUR_POINTS, _winding

PI = math.pi


def test_one_zero_of_f_per_tile():
    # the critical point of E2 in gamma(F0) is gamma(tau(-d/c)), and f_C has
    # exactly one zero in F0
    contour = f0_contour()
    gammas = enumerate_gamma02(64)
    assert len(gammas) == 436
    for gam in gammas:
        C = -gam.d / gam.c
        assert count_zeros(lambda t: eval_fC(C, t), contour) == 1, gam


def _eta1_prime_pair(t):
    """(eta1', eta1'') at t from one series evaluation: E2' is a multiple
    of eta1', and eta1'' = (i/(2 pi))(2 eta1 eta1' - g2'/12)."""
    e1, g2, g3 = _basic(t, DEFAULT)
    e1p, g2p, _ = _derivs(e1, g2, g3)
    return e1p, _HALF_I_PI * (2 * e1 * e1p - g2p / 12)


def test_one_zero_of_E2_prime_per_tile():
    # E2' itself, not f_C: a gated count over the image polyline gamma(p),
    # p on f0_contour, finds one zero in each of the 436 tiles with c <= 64,
    # at most 76 points a count, and Newton from the zero sum of the walk
    # that forms it lands within 2.2e-16 relative of the listed critical
    # point.  The horodisks at gamma(0), gamma(1) and gamma(i infinity) are
    # left out.
    points = f0_contour().points
    found = critical_points_E2(64)
    assert len(found) == 436
    for p in found:
        contour = Contour(tuple(p.gamma(t) for t in points))
        n, used = count_zeros_info(_eta1_prime_pair, contour)
        assert n == 1 and used <= 100, p.gamma
        n, _, zsum = _winding(_eta1_prime_pair, contour, BOUNDARY_ZERO_TOL, MAX_CONTOUR_POINTS)
        assert n == 1, p.gamma
        root = newton_refine(_eta1_prime_pair, zsum, 1e-14).z
        assert abs(root - p.tau_star.z) <= 1e-13 * abs(p.tau_star.z), p.gamma


def test_no_critical_point_in_F0():
    # E2' decays like q toward the cusp, so the contour stays at height 3:
    # at height 6 |E2'| is about 1e-13 and the count stops at a boundary zero
    assert count_zeros(lambda t: eval_derivatives(t)[0], f0_contour(3.0)) == 0


def test_points_distinct_at_scale():
    found = critical_points_E2(256)
    assert len(found) == 6718
    assert max(p.scaled_residual for p in found) < 1e-9
    # the raw residual carries |c tau + d|^4 and is no longer small
    assert max(p.residual for p in found) > 1e-3
    # closest pair by sort-and-sweep in Re tau: a point closer than dmin to
    # z lies within dmin of z.real
    pts = sorted((p.tau_star.z for p in found), key=lambda z: z.real)
    dmin = math.inf
    for i, z in enumerate(pts):
        j = i + 1
        while j < len(pts) and pts[j].real - z.real < dmin:
            dmin = min(dmin, abs(pts[j] - z))
            j += 1
    assert dmin > 1e-9


def test_tile_outside_the_window():
    # (1,1;2,3) = (1,0;2,1) T has d = 3 outside [-c/2, c/2]
    gam = MoebiusMap(1, 1, 2, 3)
    assert gam not in enumerate_gamma02(8)
    tau_c = solve_tauC(-gam.d / gam.c).z
    point = gam(tau_c)
    assert abs(point - complex(0.39855, 0.03877)) < 1e-5
    scaled = abs(3 / PI**2 * eval_derivatives(point)[0]) / abs(gam.mu(tau_c)) ** 4
    assert scaled < 1e-12
    assert reduce_to_F0(point)[1] == gam
    # tau -> tau + 1 keeps the critical set, but no enumerated point reaches it
    for p in critical_points_E2(16):
        w = p.tau_star.z - point
        assert abs(w - round(w.real)) > 1e-6
