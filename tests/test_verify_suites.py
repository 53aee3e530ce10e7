"""The named verification suites behind the CLI `verify` command."""

import pytest

from e2crit.verify import SUITES, curve_extra_checks, modular_checks, premodular_checks


@pytest.mark.parametrize("fn", [modular_checks, premodular_checks, curve_extra_checks])
def test_extra_suite_passes(fn):
    results = fn()
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed, "; ".join(failed)


def test_suite_registry_complete():
    assert set(SUITES) == {"functions", "modular", "premodular", "curves", "special", "all"}
    assert SUITES["all"][:10] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


def _old_random_sl2z(rng, n, max_entry=10):
    """_random_sl2z as it was, a MoebiusMap at every product: the reference."""
    from e2crit.moebius import IDENTITY, S_INVERT, T_SHIFT
    words = [T_SHIFT, T_SHIFT.inverse(), S_INVERT]
    out = []
    seen = set()
    while len(out) < n:
        g = IDENTITY
        for _ in range(rng.randrange(1, 9)):
            g = g @ words[rng.randrange(0, 3)]
        key = (g.a, g.b, g.c, g.d)
        if max(abs(v) for v in key) <= max_entry and key not in seen:
            seen.add(key)
            out.append(g)
    return out


@pytest.mark.parametrize("n, max_entry", [(50, 10), (25, 10), (1, 50), (30, 10)])
def test_random_sl2z_matches_generator_products(n, max_entry):
    """The (n, max_entry) of every caller in verify: the same matrices, and
    the generator left where the old construction, which drew by
    randrange, left it, after each of several calls on one generator (as
    the verify sections make them) and for the draws that follow."""
    import random
    from e2crit.verify import _random_sl2z
    for seed in (20260809, 7, 1, 2, 3):
        rng_new, rng_old = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert _random_sl2z(rng_new, n, max_entry) == _old_random_sl2z(rng_old, n, max_entry)
            assert rng_new.getstate() == rng_old.getstate()
        assert rng_new.random() == rng_old.random()
