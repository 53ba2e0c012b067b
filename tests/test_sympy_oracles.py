"""Exact symbolic oracles: curvature by sympy, sharing no code with the jet pipeline.

sympy differentiates the metric components of a chart symbolically, without
simplifying, forms the curvature chain by the conventions of
``warpcheck.geometry`` and evaluates it at a rational point to 30 digits.
The jet pipeline's values must agree to 1e-12, relative, in the norm of the
orthonormal frame.
"""

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from warpcheck.checks import RunConfig, build_context  # noqa: E402
from warpcheck.geometry import CurvatureBundle  # noqa: E402

REL_TOL = 1e-12


def _curvature(coords, g, point):
    """(R, Ric, C) of the diagonal metric ``g`` at ``point`` as float arrays.

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

    subs = dict(zip(coords, point))

    def value(expr):
        return float(sp.N(sp.sympify(expr).subs(subs), 30))

    cotton = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                cotton[i, j, k] = value(dschouten(i, j, k) - dschouten(i, k, j))
                cotton[i, k, j] = -cotton[i, j, k]
    return value(scalar), np.array([[value(e) for e in row] for row in ric]), cotton


def test_warped_product_of_two_spheres_matches_sympy():
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
    chart = build_context(RunConfig.from_dict({"space": space, "checks": ["firstthm"]})).chart

    coords = sp.symbols("t x1 x2 y1 y2")
    t, x1, x2, y1, y2 = coords
    h2 = sp.exp(2 * t / 5)
    lam1 = 2 / (1 + x1**2 + x2**2)  # 2 r^2 / (r^2 + |x|^2), r = 1
    lam2 = 8 / (4 + y1**2 + y2**2)  # r = 2
    g = [sp.Integer(1), h2 * lam1**2, h2 * lam1**2, h2 * lam2**2, h2 * lam2**2]
    point = [sp.Rational(1, 3), sp.Rational(1, 5), sp.Rational(-1, 4), sp.Rational(1, 2), sp.Rational(1, 3)]
    scalar, ric, cotton = _curvature(coords, g, point)

    b = CurvatureBundle(chart, np.array([float(x) for x in point]), order=3)
    assert abs(b.scalar - scalar) <= REL_TOL * abs(scalar)
    assert b.norm(b.ric.value - ric, ("l", "l")) <= REL_TOL * b.norm(ric, ("l", "l"))
    cnorm = b.norm(cotton, ("l",) * 3)
    assert cnorm > 0.1  # the comparison is not between two zeros
    assert b.norm(b.cotton.value - cotton, ("l",) * 3) <= REL_TOL * cnorm
