"""Property tests: 1-periodicity in Re tau, the E2, Z and Z2 transformation
laws, and the Gamma_0(2) reduction round trip."""

import math

from hypothesis import given, settings, strategies as st

from e2crit import (
    DomainTag,
    TriangleTag,
    classify,
    classify_domain,
    eval_E2,
    eval_invariants,
    eval_Zrs,
    eval_Zrs2,
    is_gamma02,
    reduce_to_F0,
    transform_char,
)
from e2crit.moebius import IDENTITY, S_INVERT, T_SHIFT

PI = math.pi
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

heights = st.floats(0.05, 3.0)
# (r, s) off the lattice and the half-lattice, where Z2 vanishes identically
characteristics = st.tuples(st.floats(0.0, 1.0), st.integers(1, 1023).map(lambda j: j / 1024)).filter(
    lambda rs: classify(rs) is not TriangleTag.HALF_LATTICE)
words = st.lists(st.sampled_from([T_SHIFT, T_SHIFT.inverse(), S_INVERT]), min_size=1, max_size=8)


def _word(gens):
    g = IDENTITY
    for h in gens:
        g = g @ h
    return g


def _close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b))


@PROPERTY
@given(x=st.integers(-2**19, 2**19).map(lambda m: m / 2**20), y=heights,
       k=st.integers(-10**6, 10**6), rs=characteristics)
def test_one_periodic_in_re_tau(x, y, k, rs):
    t, tk = complex(x, y), complex(x + k, y)
    for a, b in zip(eval_invariants(tk), eval_invariants(t)):
        assert _close(a, b, 1e-11)
    assert _close(eval_E2(tk), eval_E2(t), 1e-11)
    # Z2_{r,s}(tau + k) = Z2_{r + k s, s}(tau), and k s mod 1 is exact here
    r, s = rs
    assert _close(eval_Zrs2(rs, tk), eval_Zrs2((r + k * s % 1.0, s), t), 1e-11)


@PROPERTY
@given(gens=words, x=st.floats(-1.0, 2.0), y=heights)
def test_E2_quasi_law(gens, x, y):
    # E2(gamma tau) = mu^2 E2(tau) - (6 i / pi) c mu, mu = c tau + d
    g, t = _word(gens), complex(x, y)
    mu = g.mu(t)
    e2 = eval_E2(t)
    want = mu * mu * e2 - 6j / PI * g.c * mu
    assert abs(eval_E2(g(t)) - want) <= 1e-11 * abs(mu) ** 2 * (1 + abs(e2))


@PROPERTY
@given(gens=words, x=st.floats(-1.0, 2.0), y=heights, rs=characteristics)
def test_Z_and_Z2_laws(gens, x, y, rs):
    # Z_{r',s'}(gamma tau) = mu Z_{r,s}(tau) and Z2 likewise with mu^3,
    # (r', s') = transform_char(gamma, (r, s))
    g, t = _word(gens), complex(x, y)
    mu = g.mu(t)
    out = transform_char(g, rs)
    z1, z3 = eval_Zrs(rs, t), eval_Zrs2(rs, t)
    assert abs(eval_Zrs((out.r, out.s), g(t)) - mu * z1) <= 1e-11 * abs(mu) * (1 + abs(z1))
    assert abs(eval_Zrs2((out.r, out.s), g(t)) - mu**3 * z3) <= 1e-11 * abs(mu) ** 3 * (1 + abs(z3))


@PROPERTY
@given(x=st.floats(-50.0, 50.0), y=st.floats(1e-3, 3.0))
def test_reduce_to_F0_round_trip(x, y):
    t = complex(x, y)
    t0, g = reduce_to_F0(t)
    assert is_gamma02(g)
    assert classify_domain(t0) is not DomainTag.OUTSIDE
    assert abs(g(t0.z) - t) <= 1e-12 * (1 + abs(t))
