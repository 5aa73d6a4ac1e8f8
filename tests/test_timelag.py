import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fmwarp import timelag
from fmwarp.errors import InvalidInputError
from fmwarp.timelag import TimeLagParams
from helpers import WarpFactor, from_retention, warp


def test_params_consistency():
    p = TimeLagParams.from_tau(10.0)
    assert 0.0 < p.a < 1.0
    assert p.a == pytest.approx(math.exp(-0.1), abs=0)
    q = from_retention(p.a)
    assert q.tau == pytest.approx(10.0, rel=1e-14)


def test_params_reject_inconsistent_pair():
    with pytest.raises(InvalidInputError):
        TimeLagParams(tau=10.0, a=0.5)
    with pytest.raises(InvalidInputError):
        TimeLagParams.from_tau(-1.0)
    with pytest.raises(InvalidInputError):
        from_retention(1.5)


def test_step_fixed_point():
    for tau in (1.0, 10.0, 100.0, 1000.0):
        p = TimeLagParams.from_tau(tau)
        assert timelag.simulate(10.0, [10.0], p)[0] == 10.0
        assert timelag.simulate(5.0, [5.0], p)[0] == 5.0


def test_step_oracle_value():
    # a = e^-0.1; 10a + 20(1-a), evaluated independently.
    p = TimeLagParams.from_tau(10.0)
    assert timelag.simulate(10.0, [20.0], p)[0] == pytest.approx(10.951625819640405, abs=1e-12)


def test_step_stays_between_state_and_input():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m, x = rng.uniform(-50, 150, size=2)
        tau = rng.uniform(0.5, 500)
        out = timelag.simulate(m, [x], TimeLagParams.from_tau(tau))[0]
        assert min(m, x) <= out <= max(m, x)


def test_step_rejects_non_finite():
    p = TimeLagParams.from_tau(10.0)
    with pytest.raises(InvalidInputError):
        timelag.simulate(math.nan, [10.0], p)
    with pytest.raises(InvalidInputError):
        timelag.simulate(10.0, [math.inf], p)


def test_simulate_geometric_closed_form():
    # m_t = 100 (1 - a^t); after 10 steps with tau=10 that is 100(1 - e^-1).
    p = TimeLagParams.from_tau(10.0)
    out = timelag.simulate(0.0, np.full(10, 100.0), p)
    assert out.shape == (10,)
    assert out[-1] == pytest.approx(63.212055882855765, abs=1e-12)


def test_simulate_constant_fixed_point():
    p = TimeLagParams.from_tau(3.0)
    out = timelag.simulate(42.0, np.full(20, 42.0), p)
    assert_allclose(out, 42.0, rtol=0, atol=0)


def test_simulate_bounded_by_inputs():
    p = TimeLagParams.from_tau(5.0)
    x = np.tile([0.0, 100.0], 50)
    out = timelag.simulate(50.0, x, p)
    assert (out >= 0.0).all() and (out <= 100.0).all()


def test_simulate_rejects_empty():
    with pytest.raises(InvalidInputError):
        timelag.simulate(0.0, [], TimeLagParams.from_tau(1.0))


def test_simulate_geometric_decay_exact():
    # |m_t - x| = |m0 - x| a^t for constant input, at every t.
    p = TimeLagParams.from_tau(7.0)
    m0, x = 30.0, 12.0
    out = timelag.simulate(m0, np.full(40, x), p)
    t = np.arange(1, 41)
    assert_allclose(np.abs(out - x), abs(m0 - x) * p.a**t, rtol=1e-12)


def test_lag_definition_63_percent():
    # After exactly tau steps the gap has closed by 1 - e^-1.
    for tau in (1, 5, 10, 50):
        p = TimeLagParams.from_tau(float(tau))
        out = timelag.simulate(0.0, np.full(tau, 1.0), p)
        assert out[tau - 1] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_warp_identity():
    p = TimeLagParams.from_tau(10.0)
    w = warp(p, WarpFactor(1.0))
    assert w.tau == p.tau and w.a == p.a


def test_warp_oracle_value():
    w = warp(TimeLagParams.from_tau(10.0), WarpFactor(10.0))
    assert w.tau == pytest.approx(1.0, rel=1e-14)
    assert w.a == pytest.approx(0.36787944117144233, abs=1e-15)


def test_warp_composition():
    p = TimeLagParams.from_tau(40.0)
    w12 = warp(warp(p, WarpFactor(2.0)), WarpFactor(5.0))
    w = warp(p, WarpFactor(10.0))
    assert w12.a == pytest.approx(w.a, rel=1e-14)
    assert w12.tau == pytest.approx(w.tau, rel=1e-14)


def test_warp_timescale_equivalence():
    # simulate with warp(gamma) equals simulate with tau/gamma, elementwise.
    rng = np.random.default_rng(11)
    for _ in range(100):
        tau = rng.uniform(0.5, 300.0)
        gamma = rng.uniform(0.1, 20.0)
        m0 = rng.uniform(0, 50)
        x = rng.uniform(0, 50, size=48)
        warped = timelag.simulate(m0, x, warp(TimeLagParams.from_tau(tau), WarpFactor(gamma)))
        direct = timelag.simulate(m0, x, from_retention(math.exp(-gamma / tau)))
        assert np.max(np.abs(warped - direct)) <= 1e-12


def test_warp_rejects_bad_gamma():
    with pytest.raises(InvalidInputError):
        WarpFactor(0.0)
    with pytest.raises(InvalidInputError):
        WarpFactor(-2.0)


def test_equilibria_dry_air_limit():
    drying, wetting = timelag.equilibria_arrays([298.15], [0.0])
    assert drying[0] == pytest.approx(0.000499, abs=1e-12)
    assert wetting[0] == pytest.approx(0.000454, abs=1e-12)


def test_equilibria_reference_point():
    # Independent scalar evaluation of the published formula at 25 C, 50% RH.
    drying, wetting = timelag.equilibria_arrays([298.15], [50.0])
    assert drying[0] == pytest.approx(12.53479898307514, abs=1e-10)
    assert wetting[0] == pytest.approx(11.125057059268608, abs=1e-10)


def test_equilibria_drying_dominates_wetting_grid():
    # Brute-force sweep over a 100x100 grid of (rh, temp).
    rh = np.linspace(0.0, 100.0, 100)
    temp = np.linspace(243.15, 313.15, 100)
    for t in temp:
        drying, wetting = timelag.equilibria_arrays(np.full(rh.shape, t), rh)
        assert (wetting <= drying).all()
        assert np.isfinite(drying).all() and np.isfinite(wetting).all()
        assert (wetting >= 0.0).all()


def test_equilibria_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        timelag.equilibria_arrays([298.15], [-1.0])
    with pytest.raises(InvalidInputError):
        timelag.equilibria_arrays([298.15], [101.0])
    with pytest.raises(InvalidInputError):
        timelag.equilibria_arrays([-3.0], [50.0])
