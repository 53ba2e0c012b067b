import math

import numpy as np
import pytest
from pytest import approx

from warpcheck import ode
from warpcheck.jets import JetTensor, jet_space
from warpcheck.ode import (
    NoPeriodicOrbit,
    OdeWarpingFunction,
    PositivityLost,
    Trajectory,
    WarpOdeParams,
    c1_for_fiber_scalar,
    equilibrium_radius,
    find_periodic_solution,
    first_integral,
    integrate_warpedvss,
    _rk4_step,
    rbar_from_initial,
    trajectory_csv_rows,
)
from warpcheck.residuals import PreconditionSkip
from conftest import example_geometry

EJIRI = WarpOdeParams(n=4, scalar=3.0, rbar=6.0, c1=0.75)


def rhs(params: WarpOdeParams, h):
    """hddot as the ODE gives it, c1 h^(1-n) - R/(n(n-1)) h, as the RK4 step forms it."""
    c1, exponent, curvature = params._rhs_constants
    return c1 * h**exponent - curvature * h


def ejiri_h(t):
    return math.sqrt(2.0 + math.sin(t))


def ejiri_hdot(t):
    return math.cos(t) / (2.0 * math.sqrt(2.0 + math.sin(t)))


# Oracles that judge a whole trajectory, not one sample point.


def third_order_residual(params: WarpOdeParams, traj: Trajectory) -> float:
    """Max residual of the third-order form along the trajectory.

    hddot and the third derivative are obtained from the second-order
    right-hand side and its h-derivative, as the ODE dictates.
    """
    h, v = traj.h, traj.hdot
    hdd = np.array([rhs(params, x) for x in h])
    n = params.n
    h3 = (params.c1 * (1.0 - n) * h**-n - params.scalar / (n * (n - 1.0))) * v  # F'(h) hdot
    resid = h3 + (params.n - 1.0) * v * hdd / h + params.scalar / (params.n - 1.0) * v
    return float(np.max(np.abs(resid)))


def scalar_from_h(params: WarpOdeParams, h: float, hdot: float, hddot: float) -> float:
    """Total scalar curvature from (h, hdot, hddot) and the fiber scalar."""
    n = params.n
    return (params.rbar - (n - 1.0) * (n - 2.0) * hdot**2 - 2.0 * (n - 1.0) * h * hddot) / h**2


def test_tau_relation_exact():
    for n in (3, 4, 5, 7):
        params = WarpOdeParams(n=n, scalar=2.0, rbar=1.0, c1=0.4)
        assert params.tau + 2.0 * params.c1 / (n - 2.0) == 0.0


def test_ejiri_constants():
    """h = sqrt(2+sin t) solves hddot + h/4 = (3/4) h^-3 with tau = -3/4."""
    assert EJIRI.tau == approx(-0.75)
    for t in np.linspace(0, 2 * math.pi, 50):
        h = ejiri_h(t)
        hdd = -math.sin(t) / (2.0 * h) - math.cos(t) ** 2 / (4.0 * h**3)
        assert hdd + h / 4.0 == approx(0.75 * h**-3, abs=1e-12)
        assert first_integral(EJIRI, h, ejiri_hdot(t)) == approx(0.0, abs=1e-12)


def test_equilibrium_solution():
    params = WarpOdeParams(n=4, scalar=12.0, rbar=rbar_from_initial(WarpOdeParams(4, 12.0, 0.0, 1.0), 1.0, 0.0), c1=1.0)
    assert equilibrium_radius(params) == approx(1.0)
    traj = integrate_warpedvss(params, 1.0, 0.0, 5.0, 1e-3)
    assert np.max(np.abs(traj.h - 1.0)) < 1e-12 * 5.0  # drift < 1e-12 per unit time


def test_ejiri_trajectory_matches_analytic():
    traj = integrate_warpedvss(EJIRI, ejiri_h(0.0), ejiri_hdot(0.0), 2 * math.pi, 1e-3)
    analytic = np.sqrt(2.0 + np.sin(traj.times))
    assert np.max(np.abs(traj.h - analytic)) < 1e-8


def test_negative_h0_rejected():
    with pytest.raises(ValueError):
        integrate_warpedvss(EJIRI, -1.0, 0.0, 1.0, 1e-3)


def test_first_integral_sweep():
    for t in np.linspace(0.0, 2 * math.pi, 100):
        assert abs(first_integral(EJIRI, ejiri_h(t), ejiri_hdot(t))) < 1e-10


def test_first_integral_cosh():
    """h = cosh t, R = -n(n-1), Rbar = -(n-1)(n-2): value 0 with tau = 0."""
    for n in (4, 5, 6):
        params = WarpOdeParams(n=n, scalar=-n * (n - 1.0), rbar=-(n - 1.0) * (n - 2.0), c1=0.0)
        assert params.tau == 0.0
        for t in (-1.0, 0.0, 0.7, 2.0):
            assert first_integral(params, math.cosh(t), math.sinh(t)) == approx(0.0, abs=1e-12)


def test_first_integral_equilibrium():
    params4 = WarpOdeParams(4, 12.0, 0.0, 1.0)
    rbar = rbar_from_initial(params4, 1.0, 0.0)
    params = WarpOdeParams(4, 12.0, rbar, 1.0)
    assert params.tau == approx(-1.0)  # tau = -2 c1/(n-2) = -c1
    assert first_integral(params, 1.0, 0.0) == approx(0.0, abs=1e-14)


def test_third_order_residual_trajectories():
    traj = integrate_warpedvss(EJIRI, ejiri_h(0.0), ejiri_hdot(0.0), 2 * math.pi, 1e-3)
    assert third_order_residual(EJIRI, traj) < 1e-8
    eq_params = WarpOdeParams(4, 12.0, rbar_from_initial(WarpOdeParams(4, 12.0, 0.0, 1.0), 1.0, 0.0), 1.0)
    eq = integrate_warpedvss(eq_params, 1.0, 0.0, 2.0, 1e-3)
    assert third_order_residual(eq_params, eq) == approx(0.0, abs=1e-14)


def test_third_order_cosh_hand_substitution():
    n = 5
    params = WarpOdeParams(n, -n * (n - 1.0), -(n - 1.0) * (n - 2.0), 0.0)
    times = np.linspace(-1.0, 1.0, 21)
    traj = Trajectory(params, times, np.cosh(times), np.sinh(times), 0.1)
    assert third_order_residual(params, traj) < 1e-10


def test_scalar_from_h_ejiri():
    for t in np.linspace(0.0, 2 * math.pi, 60):
        h = ejiri_h(t)
        hdd = rhs(EJIRI, h)
        assert scalar_from_h(EJIRI, h, ejiri_hdot(t), hdd) == approx(3.0, abs=1e-10)


def test_scalar_from_h_constant():
    params = WarpOdeParams(4, 0.0, 5.0, 0.0)
    assert scalar_from_h(params, 1.0, 0.0, 0.0) == approx(5.0)


def test_scalar_from_h_cosh():
    for n in (4, 5):
        params = WarpOdeParams(n, 0.0, -(n - 1.0) * (n - 2.0), 0.0)
        t = 0.6
        got = scalar_from_h(params, math.cosh(t), math.sinh(t), math.cosh(t))
        assert got == approx(-n * (n - 1.0), rel=1e-12)


# -- conservation --------------------------------------------------------------


def test_conservation_per_unit_time():
    """First-integral drift < 1e-10 per unit time at dt = 1e-3."""
    cases = [
        (EJIRI, ejiri_h(0.0), ejiri_hdot(0.0), 2 * math.pi),
        (WarpOdeParams(4, 12.0, rbar_from_initial(WarpOdeParams(4, 12.0, 0.0, 2.0), 1.06929, 0.0), 2.0), 1.06929, 0.0, 10.0),
        (WarpOdeParams(5, 2.0, rbar_from_initial(WarpOdeParams(5, 2.0, 0.0, 0.1625), 1.0, 0.0), 0.1625), 1.0, 0.0, 10.0),
    ]
    for params, h0, v0, t_end in cases:
        traj = integrate_warpedvss(params, h0, v0, t_end, 1e-3)
        drift = np.max(np.abs(first_integral(params, traj.h, traj.hdot)))
        assert drift / t_end < 1e-10


def test_convergence_order():
    """Halving dt reduces the error against the analytic solution by >= 12x."""
    errors = []
    for dt in (2e-3, 1e-3):
        traj = integrate_warpedvss(EJIRI, ejiri_h(0.0), ejiri_hdot(0.0), 2 * math.pi, dt)
        analytic = np.sqrt(2.0 + np.sin(traj.times))
        errors.append(np.max(np.abs(traj.h - analytic)))
    assert errors[0] / errors[1] >= 12.0


# -- periodic orbits --------------------------------------------------------------


def test_find_periodic_orbit():
    base = WarpOdeParams(4, 12.0, 0.0, 2.0)
    h_eq = equilibrium_radius(base)
    h0 = 0.9 * h_eq
    params = WarpOdeParams(4, 12.0, rbar_from_initial(base, h0, 0.0), 2.0)
    traj, period = find_periodic_solution(params, h0, dt=1e-3)
    assert period > 0.0
    assert abs(traj.h[-1] - traj.h[0]) < 1e-7
    assert abs(traj.hdot[-1] - traj.hdot[0]) < 1e-7
    assert np.max(np.abs(first_integral(params, traj.h, traj.hdot))) < 1e-9


def test_periodic_equilibrium_flag():
    base = WarpOdeParams(4, 12.0, 0.0, 2.0)
    h_eq = equilibrium_radius(base)
    params = WarpOdeParams(4, 12.0, rbar_from_initial(base, h_eq, 0.0), 2.0)
    traj, period = find_periodic_solution(params, h_eq)
    assert period == 0.0
    assert np.all(traj.h == h_eq) and np.all(traj.hdot == 0.0)


# -- the RK4 step, bit for bit ------------------------------------------------------


def reference_rk4_step(params: WarpOdeParams, h, v, dt):
    """The step as first written: a closure over the ODE's right-hand side at each stage."""

    def f(hh, vv):
        return vv, rhs(params, hh)

    k1h, k1v = f(h, v)
    k2h, k2v = f(h + 0.5 * dt * k1h, v + 0.5 * dt * k1v)
    k3h, k3v = f(h + 0.5 * dt * k2h, v + 0.5 * dt * k2v)
    k4h, k4v = f(h + dt * k3h, v + dt * k3v)
    return (
        h + dt / 6.0 * (k1h + 2 * k2h + 2 * k3h + k4h),
        v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v),
    )


def _bits(*values) -> list[int]:
    return [int(np.float64(x).view(np.int64)) for x in values]


@pytest.mark.parametrize("kind", [float, np.float64], ids=["float", "float64"])
def test_rk4_step_matches_closure_form_bitwise(kind):
    rng = np.random.default_rng(19)
    for params in (EJIRI, WarpOdeParams(5, 2.0, 2.5, 0.8), WarpOdeParams(3, -1.0, 0.0, 0.3)):
        for h, v, dt in rng.uniform([0.2, -2.0, 1e-4], [3.0, 2.0, 0.1], (50, 3)):
            h, v, dt = kind(h), kind(v), kind(dt)
            assert _bits(*_rk4_step(params._rhs_constants, h, v, dt)) == _bits(*reference_rk4_step(params, h, v, dt))


def test_equiv_fail_orbit_matches_reference_loop_bitwise():
    """integrate_warpedvss over the equiv-fail orbit, against RK4 steps read back from the arrays."""
    warping = example_geometry("equiv-fail").warping
    traj = warping.traj
    hs, vs = np.empty_like(traj.h), np.empty_like(traj.hdot)
    hs[0], vs[0] = traj.h[0], traj.hdot[0]
    for i in range(len(hs) - 1):
        hs[i + 1], vs[i + 1] = reference_rk4_step(warping.params, hs[i], vs[i], traj.dt)
    assert len(hs) > 1000
    np.testing.assert_array_equal(traj.h.view(np.int64), hs.view(np.int64))
    np.testing.assert_array_equal(traj.hdot.view(np.int64), vs.view(np.int64))


@pytest.mark.parametrize("t_end", [0.0, -5.0, math.nan, math.inf])
def test_integration_rejects_a_bad_horizon(t_end):
    with pytest.raises(ValueError, match="horizon must be finite and positive"):
        integrate_warpedvss(EJIRI, 1.0, 0.0, t_end, 1e-3)


def test_stage_at_zero_height_loses_positivity():
    """A stage that lands on h = 0 exactly is lost positivity, not a ZeroDivisionError."""
    with pytest.raises(PositivityLost):
        integrate_warpedvss(WarpOdeParams(4, 12.0, 0.0, 1.0), 1.0, -2000.0, 1.0, 1e-3)


def test_stage_below_h_min_loses_the_step():
    """The second stage lands at h = 5e-11, and the step would end at h = 2.7e24: the step is NaN, and the
    integration loses positivity at the step's start."""
    params = WarpOdeParams(4, 12.0, 0.0, 1.0)
    assert all(math.isnan(x) for x in _rk4_step(params._rhs_constants, 1.0, -1999.9999999, 1e-3))
    with pytest.raises(PositivityLost, match="t = 0$"):
        integrate_warpedvss(params, 1.0, -1999.9999999, 0.01, 1e-3)


@pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
def test_periodic_search_rejects_a_bad_step(dt):
    """The search steps t by dt up to its horizon, which a zero or negative step never reaches."""
    params = WarpOdeParams(4, 12.0, 0.0, 2.0)
    with pytest.raises(ValueError, match="step size must be finite and positive"):
        find_periodic_solution(params, 1.0, dt=dt)


def test_periodic_search_stops_on_a_non_finite_height():
    """A NaN scalar makes h NaN at the first step: positivity is lost there, not at the search's t_max."""
    with pytest.raises(PositivityLost, match="t = 0$"):
        find_periodic_solution(WarpOdeParams(4, math.nan, 0.0, 2.0), 1.07)


def test_overflowing_stage_loses_the_step():
    """At n = 400, h = 0.1 makes h^(1-n) overflow a float: the step is NaN, as for a collapsed stage."""
    params = WarpOdeParams(400, 1.0, 1.0, 1.0)
    assert all(math.isnan(x) for x in _rk4_step(params._rhs_constants, 0.1, 0.0, 1e-3))
    with pytest.raises(PositivityLost, match="t = 0$"):
        integrate_warpedvss(params, 0.1, 0.0, 0.01, 1e-3)
    with pytest.raises(PositivityLost, match="t = 0$"):
        find_periodic_solution(params, 0.1)


def test_collapsed_substep_in_the_bisection_loses_positivity(monkeypatch):
    """A NaN from a bisection sub-step is lost positivity at the step's start, not a return event."""
    params = WarpOdeParams(4, 12.0, 0.0, 2.0)
    _, period = find_periodic_solution(params, 1.07)
    assert period > 0.0

    def collapsed(params, h, v, span, dt):
        return math.nan, math.nan

    monkeypatch.setattr(ode, "_propagate", collapsed)
    with pytest.raises(PositivityLost) as lost:
        find_periodic_solution(params, 1.07)
    assert 0.0 < lost.value.t < 0.5 * period


def test_small_oscillation_period():
    """Near h_eq the period approaches 2 pi / omega with omega^2 = -F'(h_eq)."""
    base = WarpOdeParams(4, 12.0, 0.0, 2.0)
    h_eq = equilibrium_radius(base)
    h0 = 0.995 * h_eq
    params = WarpOdeParams(4, 12.0, rbar_from_initial(base, h0, 0.0), 2.0)
    _, period = find_periodic_solution(params, h0, dt=5e-4)
    n, c1, scalar = params.n, params.c1, params.scalar
    omega = math.sqrt(-(c1 * (1.0 - n) * h_eq**-n - scalar / (n * (n - 1.0))))  # -F'(h_eq)
    assert period == approx(2.0 * math.pi / omega, rel=1e-3)


def test_linear_case_positivity_failure():
    """c1 = 0 makes the equation harmonic; h crosses zero and errors out."""
    params = WarpOdeParams(4, 12.0, 0.0, 0.0)
    short = integrate_warpedvss(params, 1.0, 0.0, 1.0, 1e-3)
    assert np.max(np.abs(short.h - np.cos(short.times))) < 1e-10
    with pytest.raises(PositivityLost):
        integrate_warpedvss(params, 1.0, 0.0, 3.0, 1e-3)
    with pytest.raises(NoPeriodicOrbit):
        find_periodic_solution(params, 1.0)


# -- kernel reduction ----------------------------------------------------------------


def kernel_reduction_check(traj: Trajectory, f_of_t, hdot_floor: float = 1e-3, pre_tol: float = 1e-6):
    """Spread of f/hdot along a trajectory where hddot f - hdot fdot vanishes.

    ``f_of_t`` maps t to f(t) and must satisfy hddot f - hdot fdot = 0 along
    the trajectory (checked first; violations raise PreconditionSkip).  The
    spread is max - min of f/hdot over samples with |hdot| > hdot_floor.
    """
    params = traj.params
    fs = []
    fdots = []
    for t in traj.times:
        j = f_of_t(JetTensor.variable(0, float(t), 1, 1))
        if not isinstance(j, JetTensor):
            j = JetTensor.const(jet_space(1, 1), float(j))
        fs.append(j.value)
        fdots.append(j.partial((1,)))
    fs = np.array(fs)
    fdots = np.array(fdots)
    hdd = np.array([rhs(params, x) for x in traj.h])
    numer = hdd * fs - traj.hdot * fdots
    scale = float(np.max(np.abs(hdd * fs)) + np.max(np.abs(traj.hdot * fdots)))
    if float(np.max(np.abs(numer))) > pre_tol * (1.0 + scale):
        raise PreconditionSkip(
            f"hddot f - hdot fdot is nonzero along the trajectory (max {np.max(np.abs(numer)):.3e})"
        )
    mask = np.abs(traj.hdot) > hdot_floor
    if not np.any(mask):
        raise PreconditionSkip("no samples with |hdot| above the floor")
    ratio = fs[mask] / traj.hdot[mask]
    return float(np.max(ratio) - np.min(ratio))


def _orbit():
    base = WarpOdeParams(4, 12.0, 0.0, 2.0)
    h0 = 0.9 * equilibrium_radius(base)
    params = WarpOdeParams(4, 12.0, rbar_from_initial(base, h0, 0.0), 2.0)
    traj, period = find_periodic_solution(params, h0, dt=1e-3)
    return params, traj, period


def _hdot_evaluator(params, traj, period):
    warping = OdeWarpingFunction(params, traj, period=period)

    def f(tj):
        t0 = tj.value if isinstance(tj, JetTensor) else float(tj)
        order = tj.order if isinstance(tj, JetTensor) else 1
        h, v = warping.state_at(t0)
        coeffs = ode._taylor_series(params, np.array([h, v]), order + 1)
        deriv = [(j + 1) * coeffs[j + 1] for j in range(order + 1)]
        out = JetTensor.const(jet_space(1, order), deriv[-1])
        shifted = tj - t0
        for j in range(order - 1, -1, -1):
            out = out * shifted + deriv[j]
        return out

    return f


def test_kernel_reduction_hdot():
    params, traj, period = _orbit()
    f = _hdot_evaluator(params, traj, period)
    assert kernel_reduction_check(traj, f) < 1e-9


def test_kernel_reduction_scaled():
    params, traj, period = _orbit()
    f = _hdot_evaluator(params, traj, period)
    assert kernel_reduction_check(traj, lambda tj: f(tj) * 3.0) < 1e-9


def test_kernel_reduction_witness_skipped():
    params, traj, period = _orbit()
    f = _hdot_evaluator(params, traj, period)
    warping = OdeWarpingFunction(params, traj, period=period)
    with pytest.raises(PreconditionSkip):
        kernel_reduction_check(traj, lambda tj: f(tj) + 0.1 * warping(tj))


# -- ODE-defined warping jets ------------------------------------------------------------


def test_ode_warping_jets_match_analytic():
    traj = integrate_warpedvss(EJIRI, ejiri_h(0.0), ejiri_hdot(0.0), 2 * math.pi, 1e-3)
    warping = OdeWarpingFunction(EJIRI, traj, period=2 * math.pi)
    for t0 in (0.37, 1.234, 4.5):
        jet = warping(JetTensor.variable(0, t0, 1, 4))
        s = 2.0 + math.sin(t0)
        assert jet.value == approx(math.sqrt(s), abs=1e-10)
        assert jet.partial((1,)) == approx(math.cos(t0) / (2.0 * math.sqrt(s)), abs=1e-10)
        hdd = rhs(EJIRI, math.sqrt(s))
        assert jet.partial((2,)) == approx(hdd, abs=1e-9)


def _taylor_coeffs_one_point(params, h, v, order):
    """The Taylor recursion as formed at one state at a time, on its own padded jet: the reference."""
    n = params.n
    coeffs = np.zeros(order + 1)
    coeffs[0] = h
    if order >= 1:
        coeffs[1] = v
    space = jet_space(1, order)
    for j in range(order - 1):
        partial = JetTensor(space, np.pad(coeffs[: j + 2], (0, order - j - 1)))
        rhs = partial.elem("pow_const", exponent=1.0 - n) * params.c1 - partial * (params.scalar / (n * (n - 1.0)))
        coeffs[j + 2] = rhs.data[j] / ((j + 2.0) * (j + 1.0))
    return coeffs


@pytest.mark.parametrize("order", [0, 1, 2, 4, 6])
def test_batched_taylor_series_is_the_per_point_series_byte_for_byte(order):
    """One recursion over a batch of states gives each state the bytes of its own recursion,
    and the warping jet of a batch of times is each time's jet alone."""
    params, traj, period = _orbit()
    warping = OdeWarpingFunction(params, traj, period=period)
    times = np.linspace(0.1, 2.9 * period, 23)
    states = np.array([warping.state_at(t) for t in times])
    series = ode._taylor_series(params, states, order)
    assert series.shape == (order + 1, len(times))
    for i, (h, v) in enumerate(states):
        assert series[:, i].tobytes() == _taylor_coeffs_one_point(params, h, v, order).tobytes()
    if order >= 1:
        batch = warping(JetTensor.variable(0, times, 1, order))
        for i, t in enumerate(times):
            assert batch.data[i].tobytes() == warping(JetTensor.variable(0, t, 1, order)).data.tobytes()


def test_csv_rows_format():
    traj = integrate_warpedvss(EJIRI, ejiri_h(0.0), ejiri_hdot(0.0), 0.01, 1e-3)
    rows = trajectory_csv_rows(traj)
    assert rows[0] == "t,h,hdot,first_integral_residual"
    assert len(rows) == len(traj.times) + 1
    fields = rows[1].split(",")
    assert len(fields) == 4
    assert float(fields[1]) == approx(math.sqrt(2.0))


def test_c1_for_fiber_scalar_roundtrip():
    c1 = c1_for_fiber_scalar(5, 2.0, 2.5, 1.0)
    params = WarpOdeParams(5, 2.0, 2.5, c1)
    assert first_integral(params, 1.0, 0.0) == approx(0.0, abs=1e-14)
    assert c1 == approx(0.1625)
