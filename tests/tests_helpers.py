"""Shared helpers for the test suite."""

from e2crit.moebius import IDENTITY, MoebiusMap

# the characteristics ((2 - s)/2, s) of appendix_bstar's three walks
BSTAR_CHARS = tuple(((2 - s) / 2, s) for s in (4e-3, 2e-3, 1e-3))

# (t_top, cusp_delta, admitted): settings of the truncated F0, and whether
# f0_contour admits them (t_top finite and >= 3, cusp_delta in (0, 0.25]);
# the CLI refuses exactly those that f0_contour refuses
F0_SETTINGS = (
    (6.0, 0.08, True),
    (3.0, 0.08, True),
    (6.0, 0.25, True),
    (6.0, 0.2500001, False),
    (6.0, 0.0, False),
    (6.0, float("nan"), False),
    (2.9, 0.08, False),
    (float("nan"), 0.08, False),
    (float("inf"), 0.08, False),
)

_T = MoebiusMap(1, 1, 0, 1)
_TI = MoebiusMap(1, -1, 0, 1)
_S = MoebiusMap(0, -1, 1, 0)


def random_sl2z(rng, max_entry=10, max_len=8):
    """One random SL(2,Z) element with bounded entries, from generator words."""
    while True:
        g = IDENTITY
        for _ in range(int(rng.integers(1, max_len))):
            g = g @ [_T, _TI, _S][int(rng.integers(0, 3))]
        if max(abs(v) for v in (g.a, g.b, g.c, g.d)) <= max_entry:
            return g


def float_bits(x):
    """x with every float, in tuples and complex numbers too, as its hex
    string, so that equal values compare equal only bit for bit (-0.0 and
    0.0 differ)."""
    if isinstance(x, tuple):
        return tuple(float_bits(v) for v in x)
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return x.hex()
    return x
