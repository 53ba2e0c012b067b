import numpy as np
import pytest

from warpcheck.checks import EXAMPLE_CONFIGS, CheckContext, RunConfig, build_context, point_scratches
from warpcheck.geometry import ChartBatch, _rows
from warpcheck.spaces import basicex_geometry, warping_jet
from warpcheck.statics import warpedproduct3_residual


def example_geometry(name, **space):
    """The warped geometry of an example config, as the CLI builds it; ``space`` overrides keys."""
    raw = dict(EXAMPLE_CONFIGS[name])
    raw["space"] = {**raw["space"], **space}
    return build_context(RunConfig.from_dict(raw)).warped


@pytest.fixture(scope="session")
def ejiri():
    return example_geometry("ejiri")


@pytest.fixture(scope="session")
def basicex52():
    return basicex_geometry(5, 2)


@pytest.fixture(scope="session")
def basicex41():
    return basicex_geometry(4, 1)


@pytest.fixture(scope="session")
def expwarp4():
    return example_geometry("nonconstant-exp")


@pytest.fixture(scope="session")
def expwarp3():
    """nonconstant-exp with its fiber lowered to S^2: the n = 3 branch of the warped formulas."""
    return example_geometry("nonconstant-exp", fiber={"kind": "sphere", "dim": 2, "radius": 1.0})


def warping_derivatives(wg, t0, order):
    """h(t0) and its first ``order`` derivatives, from the warping's one-variable jet."""
    h = warping_jet(wg.warping, t0, order)
    return [h.partial((j,)) for j in range(order + 1)]


def lone_chain(chart, point, order, metric_order=None):
    """The chunk of ``point`` alone, whose one row (0) the analyses of one point run on."""
    (chain,) = ChartBatch(chart, np.array([point], dtype=float), order, metric_order).chunks(1)
    return chain


class RowView:
    """Point ``row``'s views of the jets and arrays of the chunk ``chain``, and of the fields it forms: what a lone
    CurvatureBundle reads of its own chunk of one point."""

    def __init__(self, chain, row):
        self.chain, self.row = chain, row

    def __getattr__(self, name):
        value = getattr(self.chain, name)
        if callable(value):  # scalar_field, vector_field
            return lambda *args: _rows(value(*args), self.row)
        return _rows(value, self.row)


def _point_scratch(wg, point, potential=None, order=3, fiber_order=2):
    """The per-point objects run_suite shares among checks on a warped space, whose field is h d/dt."""
    ctx = CheckContext(wg.chart, wg, potential, wg.xi)
    (sc,) = point_scratches(ctx, np.array([point], dtype=float), order, fiber_order)
    return sc


@pytest.fixture
def point_scratch():
    return _point_scratch


def wp3_sides(sc):
    """The wp3_identity residual at a point, with the norms of L* hdot and of C(., xi, .)."""
    (resid,) = sc.rows(warpedproduct3_residual).values()
    lhs = sc.chunk.chain.norm(sc.chunk.hdot.lstar_f.value, ("l", "l"))[sc.row]
    return resid, lhs, resid.scale - lhs


def central_diff(fn, x, order, step):
    """Central finite differences for derivative orders 1..4 of a 1-d callable."""
    if order == 0:
        return fn(x)
    if order == 1:
        return (fn(x + step) - fn(x - step)) / (2 * step)
    if order == 2:
        return (fn(x + step) - 2 * fn(x) + fn(x - step)) / step**2
    if order == 3:
        return (fn(x + 2 * step) - 2 * fn(x + step) + 2 * fn(x - step) - fn(x - 2 * step)) / (
            2 * step**3
        )
    if order == 4:
        return (
            fn(x + 2 * step) - 4 * fn(x + step) + 6 * fn(x) - 4 * fn(x - step) + fn(x - 2 * step)
        ) / step**4
    raise ValueError(order)


@pytest.fixture
def fd():
    return central_diff
