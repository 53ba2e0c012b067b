"""The warping-function ODE family: integration, invariants, periodic orbits.

Central equation (constant total scalar curvature R, dimension n):

    hddot + R/(n(n-1)) h = c1 h^(1-n)

with first integral

    hdot^2 + R/(n(n-1)) h^2 - Rbar/((n-1)(n-2)) = tau h^(2-n),
    tau = -2 c1 / (n-2),

and third-order form  h''' + (n-1) hdot hddot / h + R hdot/(n-1) = 0.

Integration is fixed-step classical RK4 (deterministic grids); the hdot = 0
events for the periodic-orbit search are located by bisection with RK4
sub-steps from the bracketing grid point.  Because solutions of the second-
order equation are analytic in (h, hdot), jets of h at any time follow from
the ODE by Taylor recursion, which is how numerically defined warpings
enter :class:`~warpcheck.geometry.MetricChart` without losing smoothness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jets import JetTensor, _raw_compose, jet_space

__all__ = [
    "WarpOdeParams",
    "Trajectory",
    "PositivityLost",
    "NoPeriodicOrbit",
    "integrate_warpedvss",
    "first_integral",
    "find_periodic_solution",
    "equilibrium_radius",
    "rbar_from_initial",
    "c1_for_fiber_scalar",
    "OdeWarpingFunction",
    "trajectory_csv_rows",
    "H_MIN",
    "DRIFT_TOL",
    "drift",
]

H_MIN = 1e-8
DRIFT_TOL = 1e-6  # largest first-integral residual, relative to 1 + the sizes of its terms, of an orbit kept
T_MAX = 200.0  # the periodic-orbit search gives up when hdot has not returned to zero by then
EQUILIBRIUM_TOL = 1e-9  # relative distance of h0 from h_eq below which the orbit is the constant one


class PositivityLost(RuntimeError):
    """h reached the positivity floor; carries the last valid time."""

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"warping function lost positivity at t = {t:.6g}")


class NoPeriodicOrbit(RuntimeError):
    pass


@dataclass(frozen=True)
class WarpOdeParams:
    """Parameters of the constant-scalar warping ODE; tau is derived from c1."""

    n: int
    scalar: float
    rbar: float
    c1: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"dimension must be >= 3, got {self.n}")

    @cached_property
    def _rhs_constants(self) -> tuple[float, float, float]:
        """c1, 1 - n and R/(n(n-1)) of hddot = c1 h^(1-n) - R/(n(n-1)) h, formed once for every RK4 step."""
        return self.c1, 1.0 - self.n, self.scalar / (self.n * (self.n - 1.0))

    @property
    def tau(self) -> float:
        return -2.0 * self.c1 / (self.n - 2.0)


def equilibrium_radius(params: WarpOdeParams) -> float:
    """The constant solution h_eq = (c1 n(n-1)/R)^(1/n) (needs R, c1 > 0)."""
    if params.scalar <= 0 or params.c1 <= 0:
        raise ValueError("equilibrium requires scalar > 0 and c1 > 0")
    return (params.c1 * params.n * (params.n - 1.0) / params.scalar) ** (1.0 / params.n)


def rbar_from_initial(params: WarpOdeParams, h0: float, hdot0: float) -> float:
    """Fiber scalar that makes the first integral vanish at (h0, hdot0)."""
    n = params.n
    return (n - 1.0) * (n - 2.0) * (
        hdot0**2 + params.scalar / (n * (n - 1.0)) * h0**2 - params.tau * h0 ** (2.0 - n)
    )


def c1_for_fiber_scalar(n: int, scalar: float, rbar: float, h0: float) -> float:
    """The c1 whose first integral matches a prescribed fiber scalar at the turning point (h0, 0)."""
    tau = (scalar / (n * (n - 1.0)) * h0**2 - rbar / ((n - 1.0) * (n - 2.0))) * h0 ** (n - 2.0)
    return -(n - 2.0) * tau / 2.0


@dataclass
class Trajectory:
    params: WarpOdeParams
    times: np.ndarray
    h: np.ndarray
    hdot: np.ndarray
    dt: float

    def state(self, index: int) -> tuple[float, float]:
        return float(self.h[index]), float(self.hdot[index])


def _rk4_step(rhs: tuple[float, float, float], h: float, v: float, dt: float) -> tuple[float, float]:
    """One classical RK4 step of (h, hdot)' = (hdot, c1 h^e - k h); ``rhs`` is (c1, e, k), a ``_rhs_constants``.

    A step with a stage height not above H_MIN, or at which h^(1-n) leaves float range, is lost: it returns
    NaN, which callers read as lost positivity.
    """
    c1, e, k = rhs
    half = 0.5 * dt
    try:
        k1v = c1 * h**e - k * h
        h2 = h + half * v
        k2h = v + half * k1v
        k2v = c1 * h2**e - k * h2
        h3 = h + half * k2h
        k3h = v + half * k2v
        k3v = c1 * h3**e - k * h3
        h4 = h + dt * k3h
        if not (h > H_MIN and h2 > H_MIN and h3 > H_MIN and h4 > H_MIN):  # also a NaN stage
            return math.nan, math.nan
        k4h = v + dt * k3v
        k4v = c1 * h4**e - k * h4
    except (ZeroDivisionError, OverflowError):  # a stage reached h = 0, or h^(1-n) overflowed
        return math.nan, math.nan
    sixth = dt / 6.0
    return h + sixth * (v + 2 * k2h + 2 * k3h + k4h), v + sixth * (k1v + 2 * k2v + 2 * k3v + k4v)


def integrate_warpedvss(params: WarpOdeParams, h0: float, hdot0: float, t_end: float, dt: float) -> Trajectory:
    """Classical fixed-step RK4 over [0, t_end] from (h0, hdot0); errors out if h <= H_MIN.

    It takes round(t_end / dt) steps, at least one, of t_end / steps each, so the grid ends at t_end;
    a dt of period / steps, as find_periodic_solution passes, comes back as the same float.
    """
    if h0 <= 0:
        raise ValueError(f"initial warping value must be positive, got {h0}")
    if dt <= 0:
        raise ValueError(f"step size must be positive, got {dt}")
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {t_end}")
    steps = max(1, int(round(t_end / dt)))
    step = t_end / steps
    times = np.linspace(0.0, t_end, steps + 1)  # arange(steps + 1) * step, its last node set to t_end
    h, v = float(h0), float(hdot0)
    hs, vs = [h], [v]
    rhs = params._rhs_constants
    for i in range(steps):
        h, v = _rk4_step(rhs, h, v, step)
        if not math.isfinite(h) or h <= H_MIN:
            raise PositivityLost(float(times[i]))
        hs.append(h)
        vs.append(v)
    return Trajectory(params, times, np.array(hs), np.array(vs), step)


def _first_integral_terms(params: WarpOdeParams, h, hdot) -> tuple:
    """The four terms whose sum is the first integral."""
    h = np.asarray(h, dtype=float)
    hdot = np.asarray(hdot, dtype=float)
    n = params.n
    return (
        hdot**2,
        params.scalar / (n * (n - 1.0)) * h**2,
        -(params.rbar / ((n - 1.0) * (n - 2.0))),
        -(params.tau * h ** (2.0 - n)),
    )


def first_integral(params: WarpOdeParams, h, hdot):
    """lhs - tau h^(2-n); identically zero along exact solutions with matching Rbar."""
    val = sum(_first_integral_terms(params, h, hdot))
    return val if val.shape else float(val)


def drift(traj: Trajectory) -> tuple[int, float]:
    """(row, value) of the largest first-integral residual relative to 1 + the sizes of its terms (NaN largest)."""
    terms = _first_integral_terms(traj.params, traj.h, traj.hdot)
    rel = np.abs(sum(terms)) / (1.0 + sum(np.abs(term) for term in terms))
    row = int(np.argmax(np.where(np.isnan(rel), np.inf, rel)))
    return row, float(rel[row])


def _propagate(params: WarpOdeParams, h: float, v: float, span: float, dt: float) -> tuple[float, float]:
    """Integrate over an arbitrary span with RK4 sub-steps of size <= dt."""
    if span == 0.0:
        return h, v
    steps = max(1, int(math.ceil(abs(span) / dt)))
    sub = span / steps
    rhs = params._rhs_constants
    for _ in range(steps):
        h, v = _rk4_step(rhs, h, v, sub)
    return h, v


def find_periodic_solution(params: WarpOdeParams, h0: float, dt: float = 1e-3) -> tuple[Trajectory, float]:
    """Locate the closed orbit through (h0, 0) in the oscillatory regime.

    Integrates until hdot returns to zero with h on the opposite side of the
    equilibrium radius (time T/2 by the time-reversal symmetry of the
    equation), refines the event time by bisection to ~1e-12, and returns a
    trajectory covering one full period.  The constant solution is reported
    with period 0.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"step size must be finite and positive, got {dt}")
    if params.scalar <= 0 or params.c1 <= 0:
        raise NoPeriodicOrbit("oscillatory regime requires scalar > 0 and c1 > 0")
    h_eq = equilibrium_radius(params)
    if abs(h0 - h_eq) <= EQUILIBRIUM_TOL * max(1.0, h_eq):
        times = np.arange(2) * dt
        return Trajectory(params, times, np.full(2, h_eq), np.zeros(2), dt), 0.0

    h, v = h0, 0.0
    t = 0.0
    below = h0 < h_eq
    t_half = None
    rhs = params._rhs_constants
    while t < T_MAX:
        h_new, v_new = _rk4_step(rhs, h, v, dt)
        if not h_new > H_MIN:  # also a NaN h
            raise PositivityLost(t)
        crossed = (v != 0.0 and (v < 0.0) != (v_new < 0.0)) or v_new == 0.0
        opposite = (h_new > h_eq) if below else (h_new < h_eq)
        if crossed and opposite and t > 0.0:
            lo, hi = 0.0, dt
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                _, v_mid = _propagate(params, h, v, mid, dt)
                if math.isnan(v_mid):  # a sub-step collapsed
                    raise PositivityLost(t)
                if (v < 0.0) != (v_mid < 0.0) or v_mid == 0.0:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < 1e-13:
                    break
            t_half = t + 0.5 * (lo + hi)
            break
        h, v, t = h_new, v_new, t + dt
    if t_half is None:
        raise NoPeriodicOrbit(f"no return event found within t_max = {T_MAX}")

    period = 2.0 * t_half
    steps = max(8, int(math.ceil(period / dt)))
    traj = integrate_warpedvss(params, h0, 0.0, period, period / steps)
    return traj, period


class OdeWarpingFunction:
    """A warping function defined by the ODE itself, evaluated on one-variable jets only.

    At each jet's value the stored RK4 grid is interpolated with sub-steps
    (:meth:`state_at`); the jet is the exact Taylor jet of the ODE solution
    through that state, via the recursion
    (j+2)(j+1) a_{j+2} = [c1 H^(1-n) - R/(n(n-1)) H]_j.
    """

    def __init__(self, params: WarpOdeParams, traj: Trajectory, period: float | None = None):
        self.params = params
        self.traj = traj
        self.period = period

    def state_at(self, t: float) -> tuple[float, float]:
        times = self.traj.times
        t_local = float(t)
        if self.period:
            t_local = (t_local - times[0]) % self.period + times[0]
        t_local = min(max(t_local, float(times[0])), float(times[-1]))
        idx = int(np.clip(np.searchsorted(times, t_local) - 1, 0, len(times) - 2))
        h, v = self.traj.state(idx)
        return _propagate(self.params, h, v, t_local - float(times[idx]), self.traj.dt)

    def __call__(self, t: JetTensor) -> JetTensor:
        times = t.value  # one time per jet of a batch
        states = np.array([self.state_at(s) for s in times.ravel()]).reshape(times.shape + (2,))
        series = _taylor_series(self.params, states, t.order)
        return JetTensor(t.space, _raw_compose(t.space, series, t.data))


def _taylor_series(params: WarpOdeParams, states: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients to ``order``, axes (order + 1, *states.shape[:-1]), of solutions through states (h, hdot).

    The recursion (j+2)(j+1) a_{j+2} = [c1 H^(1-n) - R/(n(n-1)) H]_j runs on one one-variable jet per state,
    whose coefficients above j + 1 are still zero at step j.
    """
    n = params.n
    coeffs = np.zeros(states.shape[:-1] + (order + 1,))
    coeffs[..., :2] = states[..., : order + 1]
    space = jet_space(1, order)
    for j in range(order - 1):
        partial = JetTensor(space, coeffs)
        rhs = partial.elem("pow_const", exponent=1.0 - n) * params.c1 - partial * (params.scalar / (n * (n - 1.0)))
        coeffs[..., j + 2] = rhs.data[..., j] / ((j + 2.0) * (j + 1.0))
    return np.moveaxis(coeffs, -1, 0)


def trajectory_csv_rows(traj: Trajectory) -> list[str]:
    """CSV lines: t, h, hdot, first_integral_residual with 17 significant digits."""
    rows = ["t,h,hdot,first_integral_residual"]
    fi = first_integral(traj.params, traj.h, traj.hdot)
    for t, h, v, r in zip(traj.times, traj.h, traj.hdot, np.atleast_1d(fi)):
        rows.append(f"{t:.17g},{h:.17g},{v:.17g},{r:.17g}")
    return rows
