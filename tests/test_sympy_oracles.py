"""Exact symbolic oracles: curvature by sympy, sharing no code with the jet pipeline.

sympy differentiates the metric components of a chart symbolically, without
simplifying, forms the curvature chain by the conventions of
``warpcheck.geometry`` and evaluates it at a rational point to 40 digits.
The jet pipeline's values must agree to 1e-12, relative, in the norm of the
orthonormal frame.  The Cotton divergence takes its last derivative as a
central difference of the symbolic Cotton tensor, with step 1e-15 at 40
digits, so its error is near 1e-30: a fourth symbolic derivative of this
metric takes sympy several seconds.  A polynomial metric with off-diagonal
terms is checked against its chain formed exactly at a rational point.
"""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

from warpcheck import dsl  # noqa: E402
from warpcheck.checks import RunConfig, build_context  # noqa: E402
from warpcheck.geometry import CurvatureBundle, MetricChart  # noqa: E402
from warpcheck.statics import StaticAnalysis, t_potential  # noqa: E402

from conftest import lone_chain  # noqa: E402

REL_TOL = 1e-12
DIGITS = 40


def _chain(coords, g):
    """Gamma^k_ij (as gamma[k][i][j]), Ric, R and C of the diagonal metric ``g``, unsimplified.

    R^l_ijk = d_j Gamma^l_ki - d_k Gamma^l_ji + Gamma^m_ki Gamma^l_jm - Gamma^m_ji Gamma^l_km,
    Ric_ij = g^kl g_is R^s_kjl, A = Ric - R g / (2(n-1)), C_ijk = A_ij,k - A_ik,j.
    """
    n = len(coords)
    ginv = [1 / g[i] for i in range(n)]
    d = [[sp.diff(g[i], x) for x in coords] for i in range(n)]  # d[i][k] = d_k g_ii
    gamma = [
        [[(ginv[k] * ((d[k][i] if j == k else 0) + (d[k][j] if i == k else 0) - (d[i][k] if i == j else 0))) / 2
          for j in range(n)] for i in range(n)]
        for k in range(n)
    ]

    def riemann(l, i, j, k):
        out = sp.diff(gamma[l][k][i], coords[j]) - sp.diff(gamma[l][j][i], coords[k])
        for m in range(n):
            out += gamma[m][k][i] * gamma[l][j][m] - gamma[m][j][i] * gamma[l][k][m]
        return out

    ric = [[sum(ginv[k] * g[i] * riemann(i, k, j, k) for k in range(n)) for j in range(n)] for i in range(n)]
    scalar = sum(ginv[i] * ric[i][i] for i in range(n))
    schouten = [[ric[i][j] - (scalar * g[i] / (2 * (n - 1)) if i == j else 0) for j in range(n)] for i in range(n)]

    def dschouten(i, j, k):
        """A_ij,k."""
        out = sp.diff(schouten[i][j], coords[k])
        for s in range(n):
            out -= gamma[s][k][i] * schouten[s][j] + gamma[s][k][j] * schouten[i][s]
        return out

    cotton = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                cotton[i][j][k] = dschouten(i, j, k) - dschouten(i, k, j)
                cotton[i][k][j] = -cotton[i][j][k]
    return gamma, ric, scalar, cotton


class SymbolicChart:
    """The jet chart of a ``warped`` config beside its metric's symbolic chain, at one rational point."""

    def __init__(self, space, coords, g, point):
        self.chart = build_context(RunConfig.from_dict({"space": space, "checks": ["firstthm"]})).chart
        self.coords, self.g, self.point = coords, g, point
        self.gamma, self.ric, self.scalar, self.cotton = _chain(coords, g)
        self.float_point = np.array([float(x) for x in point])

    def value(self, exprs):
        """``exprs`` (nested lists) as floats, evaluated at the point to 40 digits."""
        with mpmath.workdps(DIGITS):
            return np.array(self._mp(exprs, self._mp_point()), dtype=float)

    def _mp(self, exprs, at):
        return np.array(sp.lambdify(self.coords, exprs, modules="mpmath")(*at), dtype=object)

    def _mp_point(self):
        return [mpmath.mpf(x.p) / x.q for x in self.point]

    def cotton_divergence(self) -> np.ndarray:
        """Xi_ik = g^jl C_ijk,l, with d_l C_ijk a central difference of the symbolic C."""
        n = len(self.coords)
        cotton_at = sp.lambdify(self.coords, self.cotton, modules="mpmath")
        with mpmath.workdps(DIGITS):
            p = self._mp_point()
            step = mpmath.mpf(10) ** -15
            c = np.array(cotton_at(*p))
            gamma = self._mp(self.gamma, p)
            ginv = [1 / gi for gi in self._mp(self.g, p)]
            xi = np.zeros((n, n), dtype=object)
            for l in range(n):
                plus, minus = list(p), list(p)
                plus[l] += step
                minus[l] -= step
                dc = (np.array(cotton_at(*plus)) - np.array(cotton_at(*minus))) / (2 * step)  # d_l C_ijk
                cov = (
                    dc
                    - np.einsum("si,sjk->ijk", gamma[:, l, :], c)
                    - np.einsum("sj,isk->ijk", gamma[:, l, :], c)
                    - np.einsum("sk,ijs->ijk", gamma[:, l, :], c)
                )
                xi += ginv[l] * cov[:, l, :]
            return np.array(xi, dtype=float)


@pytest.fixture(scope="module")
def s2xs2():
    """dt^2 + e^(2t/5) (g_S2(1) + g_S2(2)) in the stereographic coordinates of
    ``make_sphere_chart``: not conformally flat, so its Cotton tensor is not zero."""
    space = {
        "kind": "warped",
        "interval": [-1.0, 1.0],
        "warping": "exp(t/5)",
        "fiber": {
            "kind": "product",
            "left": {"kind": "sphere", "dim": 2, "radius": 1.0},
            "right": {"kind": "sphere", "dim": 2, "radius": 2.0},
        },
    }
    coords = sp.symbols("t x1 x2 y1 y2")
    t, x1, x2, y1, y2 = coords
    h2 = sp.exp(2 * t / 5)
    lam1 = 2 / (1 + x1**2 + x2**2)  # 2 r^2 / (r^2 + |x|^2), r = 1
    lam2 = 8 / (4 + y1**2 + y2**2)  # r = 2
    g = [sp.Integer(1), h2 * lam1**2, h2 * lam1**2, h2 * lam2**2, h2 * lam2**2]
    point = [sp.Rational(1, 3), sp.Rational(1, 5), sp.Rational(-1, 4), sp.Rational(1, 2), sp.Rational(1, 3)]
    return SymbolicChart(space, coords, g, point)


def test_warped_product_of_two_spheres_matches_sympy(s2xs2):
    scalar, ric, cotton = s2xs2.value(s2xs2.scalar), s2xs2.value(s2xs2.ric), s2xs2.value(s2xs2.cotton)
    b = CurvatureBundle(s2xs2.chart, s2xs2.float_point, order=3)
    assert abs(b.scalar - scalar) <= REL_TOL * abs(scalar)
    assert b.norm(b.ric.value - ric, ("l", "l")) <= REL_TOL * b.norm(ric, ("l", "l"))
    cnorm = b.norm(cotton, ("l",) * 3)
    assert cnorm > 0.1  # the comparison is not between two zeros
    assert b.norm(b.cotton.value - cotton, ("l",) * 3) <= REL_TOL * cnorm


def test_lstar_of_a_t_potential_matches_sympy(s2xs2):
    """L*_g f = Hess f - (Lap f) g - f Ric for f(t) = cos(t) + t^2/5, through the order-0 Hessian."""
    coords, g, gamma = s2xs2.coords, s2xs2.g, s2xs2.gamma
    n = len(coords)
    f = sp.cos(coords[0]) + coords[0] ** 2 / 5
    df = [sp.diff(f, x) for x in coords]
    hess = [[sp.diff(df[i], coords[j]) - sum(gamma[k][i][j] * df[k] for k in range(n)) for j in range(n)]
            for i in range(n)]
    lap = sum(hess[i][i] / g[i] for i in range(n))
    lstar = [[hess[i][j] - (lap * g[i] if i == j else 0) - f * s2xs2.ric[i][j] for j in range(n)] for i in range(n)]
    want = s2xs2.value(lstar)

    b = CurvatureBundle(s2xs2.chart, s2xs2.float_point, order=3)
    potential = t_potential(dsl.parse("cos(t) + t^2/5"), "f")
    got = StaticAnalysis(lone_chain(s2xs2.chart, s2xs2.float_point, 3), potential).lstar_f
    assert got.order == 0
    norm = b.norm(want, ("l", "l"))
    assert norm > 0.1
    assert b.norm(got.value[0] - want, ("l", "l")) <= REL_TOL * norm


def test_cotton_divergence_matches_sympy(s2xs2):
    want = s2xs2.cotton_divergence()
    b = CurvatureBundle(s2xs2.chart, s2xs2.float_point, order=4)
    norm = b.norm(want, ("l", "l"))
    assert norm > 0.02
    assert b.norm(b.cotton_divergence.value - want, ("l", "l")) <= REL_TOL * norm


# -- a polynomial metric with off-diagonal terms ------------------------------------
#
# sympy takes over a minute to differentiate the whole chain of a non-diagonal
# metric symbolically, as the unsimplified inverse grows at every derivative.  So
# here sympy differentiates only the metric, and the chain is formed at the point
# in exact rational arithmetic by the product rule, with the derivatives of the
# inverse from d(g^-1) = -g^-1 (dg) g^-1.


def _metric_derivatives(coords, g, point, k: int) -> np.ndarray:
    """d_a1 ... d_ak g_ij at ``point``, exact, axes (a1, ..., ak, i, j)."""
    at = dict(zip(coords, point))
    out = np.empty((len(coords),) * (k + 2), dtype=object)
    for index in np.ndindex(out.shape):
        entry = g[index[-2]][index[-1]]
        out[index] = (sp.diff(entry, *(coords[a] for a in index[:-2])) if k else entry).xreplace(at)
    return out


def _chain_at_point(coords, g, point):
    """R, Ric_ij and C_ijk of the metric matrix ``g`` at ``point``, exact, by the conventions of ``_chain``."""
    n = len(coords)
    g0, dg, ddg, dddg = (_metric_derivatives(coords, g, point, k) for k in range(4))
    ginv = np.array(sp.Matrix(g0.tolist()).inv().tolist(), dtype=object)
    dginv = -np.einsum("ij,ajk,kl->ail", ginv, dg, ginv)
    ddginv = -(
        np.einsum("aij,bjk,kl->abil", dginv, dg, ginv)
        + np.einsum("ij,abjk,kl->abil", ginv, ddg, ginv)
        + np.einsum("ij,bjk,akl->abil", ginv, dg, dginv)
    )

    def first_kind(d):
        """Gamma_lij = (d_i g_jl + d_j g_il - d_l g_ij) / 2 from d g (the last three axes of ``d``)."""
        return (np.einsum("...ijl->...lij", d) + np.einsum("...jil->...lij", d) - d) / 2

    gam1, dgam1, ddgam1 = first_kind(dg), first_kind(ddg), first_kind(dddg)
    gamma = np.einsum("kl,lij->kij", ginv, gam1)
    dgamma = np.einsum("akl,lij->akij", dginv, gam1) + np.einsum("kl,alij->akij", ginv, dgam1)
    ddgamma = (
        np.einsum("abkl,lij->abkij", ddginv, gam1)
        + np.einsum("akl,blij->abkij", dginv, dgam1)
        + np.einsum("bkl,alij->abkij", dginv, dgam1)
        + np.einsum("kl,ablij->abkij", ginv, ddgam1)
    )
    riem = (
        np.einsum("jlki->lijk", dgamma) - np.einsum("klji->lijk", dgamma)
        + np.einsum("mki,ljm->lijk", gamma, gamma) - np.einsum("mji,lkm->lijk", gamma, gamma)
    )
    driem = (
        np.einsum("ajlki->alijk", ddgamma) - np.einsum("aklji->alijk", ddgamma)
        + np.einsum("amki,ljm->alijk", dgamma, gamma) + np.einsum("mki,aljm->alijk", gamma, dgamma)
        - np.einsum("amji,lkm->alijk", dgamma, gamma) - np.einsum("mji,alkm->alijk", gamma, dgamma)
    )
    ric = np.einsum("kl,is,skjl->ij", ginv, g0, riem)
    dric = (
        np.einsum("akl,is,skjl->aij", dginv, g0, riem)
        + np.einsum("kl,ais,skjl->aij", ginv, dg, riem)
        + np.einsum("kl,is,askjl->aij", ginv, g0, driem)
    )
    scalar = np.einsum("ij,ij->", ginv, ric)
    dscalar = np.einsum("aij,ij->a", dginv, ric) + np.einsum("ij,aij->a", ginv, dric)
    schouten = ric - scalar * g0 / (2 * (n - 1))
    dschouten = dric - (np.einsum("a,ij->aij", dscalar, g0) + scalar * dg) / (2 * (n - 1))
    cov = (  # A_ij,k
        np.einsum("kij->ijk", dschouten)
        - np.einsum("ski,sj->ijk", gamma, schouten)
        - np.einsum("skj,is->ijk", gamma, schouten)
    )
    cotton = cov - np.einsum("ijk->ikj", cov)
    return float(scalar), ric.astype(float), cotton.astype(float)


def test_polynomial_nondiagonal_metric_matches_exact_chain():
    """g = I + small symmetric polynomial terms in dim 3, every entry off the diagonal nonzero.

    On the box [-1/2, 1/2]^3 each diagonal entry stays above 0.8 and each
    row's other entries sum below 0.3 in absolute value, so g is positive
    definite there.  The jet chart's builder evaluates the same polynomials,
    so it returns off-diagonal jets.
    """
    coords = sp.symbols("x y z")
    x, y, z = coords
    upper = {
        (0, 0): 1 + x**2 / 4 + y * z / 5,
        (1, 1): 1 + y**2 / 3 - x * z / 6,
        (2, 2): 1 + z**2 / 5 + x**3 / 7,
        (0, 1): x * y / 5 + z / 8,
        (0, 2): y**2 / 6 - x * z / 7,
        (1, 2): x / 9 + y * z**2 / 8,
    }
    g = [[upper[min(i, j), max(i, j)] for j in range(3)] for i in range(3)]
    point = [sp.Rational(1, 3), sp.Rational(-1, 5), sp.Rational(2, 7)]
    scalar, ric, cotton = _chain_at_point(coords, g, point)

    entries = sp.lambdify(coords, g)
    chart = MetricChart(3, "polynomial", lambda c: entries(*c), (np.full(3, -0.5), np.full(3, 0.5)))
    b = CurvatureBundle(chart, np.array([float(p) for p in point]), order=3)
    assert np.count_nonzero(b.g.value - np.diag(np.diag(b.g.value))) == 6
    assert abs(b.scalar - scalar) <= REL_TOL * abs(scalar)
    rnorm = b.norm(ric, ("l", "l"))
    assert rnorm > 0.1
    assert b.norm(b.ric.value - ric, ("l", "l")) <= REL_TOL * rnorm
    cnorm = b.norm(cotton, ("l",) * 3)
    assert cnorm > 0.1  # the comparison is not between two zeros
    assert b.norm(b.cotton.value - cotton, ("l",) * 3) <= REL_TOL * cnorm
