"""Vacuum-static-equation residuals and the warped-product identity family.

Covers: L*_g f and the three forms of the vacuum static equation, the
generalized equation Hess f + R f g/(n(n-1)) = (f+a)E + b g, the T tensor
and its algebra, the curvature decomposition identities for solutions, the
closed forms of L*_g on warped products (all slots plus the warped
Laplacian), i_{d/dt} C = 0 and L*_g hdot = -C(., xi, .) on constant-scalar
warped products, the explicit Cotton components when the scalar curvature
is not constant, the h*fbar assembly criterion, the Riemannian-product
criterion, and the two conformal-field contraction formulas.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import tensors
from .dsl import ExprAst, eval_expr
from .geometry import CurvatureBundle
from .jets import JetTensor, jt_einsum
from .residuals import PreconditionSkip, Residual, ResidualSet
from .spaces import StaticPotentialSpec

if TYPE_CHECKING:
    from .checks import PointScratch

__all__ = [
    "StaticAnalysis",
    "lgh_closed_forms",
    "icotton_warped_residual",
    "warpedproduct3_residual",
    "equivalence_clauses",
    "nonconstant_r_cotton_formulas",
    "propddoth_check",
    "inrp_product_check",
    "t_potential",
    "xicvf_residuals",
    "fiber_ric0",
    "SOLUTION_REL_TOL",
]

SOLUTION_REL_TOL = 1e-6


class StaticAnalysis:
    """Residuals of one potential at one point, computed as jets; ``f`` is its jet there if formed already."""

    def __init__(self, bundle: CurvatureBundle, potential: StaticPotentialSpec, f: JetTensor | None = None):
        self.bundle = bundle
        self.potential = potential
        self.n = bundle.dim
        if f is not None:
            self.f = f

    @cached_property
    def f(self) -> JetTensor:
        return self.bundle.scalar_field(self.potential.builder)

    @cached_property
    def df(self) -> JetTensor:
        """df at order 0: the Hessian differentiates f itself."""
        return self.f.truncate(1).partials()

    @cached_property
    def df_up(self) -> JetTensor:
        return jt_einsum("ia,a->i", self.bundle.ginv, self.df)

    @cached_property
    def hess(self) -> JetTensor:
        return self.bundle.hessian(self.f)

    @cached_property
    def lap(self) -> JetTensor:
        return self.bundle.laplacian(self.hess)

    @cached_property
    def lstar_f(self) -> JetTensor:
        return self.bundle.lstar(self.f, self.hess, self.lap)

    @cached_property
    def f_plus_a(self) -> JetTensor:
        return self.f.truncate(0) + self.potential.a

    @cached_property
    def generalized_lhs(self) -> JetTensor:
        """Hess f + R f g/(n(n-1)): the generalized equation's left side, and the trace-free vacuum residual's."""
        b, n = self.bundle, self.n
        return self.hess + jt_einsum(",ij->ij", b.scalar_jet * self.f.truncate(0), b.g) / (n * (n - 1.0))

    # -- vacuum static equation ------------------------------------------

    def vacuum_residuals(self) -> ResidualSet:
        """The full, trace and trace-free residuals, formed once per analysis."""
        return self._vacuum

    @cached_property
    def _vacuum(self) -> ResidualSet:
        b = self.bundle
        n = self.n
        scale2 = b.norm(self.hess.value, ("l", "l")) + abs(float(self.lap.value))
        scale2 += b.norm(self.f.value * b.ric.value, ("l", "l"))
        out: ResidualSet = {
            "full": Residual(b.norm(self.lstar_f.value, ("l", "l")), scale2),
        }
        trace = self.lap + b.scalar_jet * self.f.truncate(0) / (n - 1.0)
        out["trace"] = Residual(
            abs(float(trace.value)),
            abs(float(self.lap.value)) + abs(b.scalar * float(self.f.value) / (n - 1.0)),
        )
        tf = self.generalized_lhs - jt_einsum(",ij->ij", self.f, b.efield)
        out["trace_free"] = Residual(b.norm(tf.value, ("l", "l")), scale2)
        return out

    def generalized_defect(self) -> Residual:
        """Residual of Hess f + R f g/(n(n-1)) = (f+a) E + b g."""
        b = self.bundle
        rhs = jt_einsum(",ij->ij", self.f_plus_a, b.efield) + JetTensor.const(b.space, self.potential.b * b.g0)
        return b.defect(self.generalized_lhs.value, rhs.value, ("l", "l"))

    @cached_property
    def _solution_defect(self) -> Residual:
        return self.generalized_defect()

    def require_solution(self, what: str) -> None:
        defect = self._solution_defect
        if defect.rel > SOLUTION_REL_TOL:
            raise PreconditionSkip(
                f"{what}: potential {self.potential.label!r} does not solve the "
                f"generalized equation here (residual {defect.rel:.2e})"
            )

    # -- T tensor -----------------------------------------------------------

    @cached_property
    def t_jets(self) -> JetTensor:
        b = self.bundle
        n = self.n
        ef = jt_einsum("jl,l->j", b.efield, self.df_up)
        term1 = jt_einsum("ik,j->ijk", b.efield, self.df) - jt_einsum("ij,k->ijk", b.efield, self.df)
        term2 = jt_einsum("ik,j->ijk", b.g, ef) - jt_einsum("ij,k->ijk", b.g, ef)
        return term1 * ((n - 1.0) / (n - 2.0)) + term2 * (1.0 / (n - 2.0))

    def t_algebra(self) -> ResidualSet:
        b = self.bundle
        t = self.t_jets
        tnorm = b.norm(t.value, ("l",) * 3)
        out: ResidualSet = {}
        skew = t + t.transpose("ijk->ikj")
        out["skew"] = Residual(b.norm(skew.value, ("l",) * 3), tnorm)
        cyc = t + t.transpose("ijk->jki") + t.transpose("ijk->kij")
        out["cyclic"] = Residual(b.norm(cyc.value, ("l",) * 3), tnorm)
        tr1 = jt_einsum("ij,ijk->k", b.ginv, t)
        tr2 = jt_einsum("ik,ijk->j", b.ginv, t)
        out["trace12"] = Residual(b.norm(tr1.value, ("l",)), tnorm)
        out["trace13"] = Residual(b.norm(tr2.value, ("l",)), tnorm)
        return out

    # -- decomposition identities --------------------------------------------

    def decompose_residuals(self) -> ResidualSet:
        self.require_solution("decomposition identities")
        b = self.bundle
        n = self.n
        fa = self.f_plus_a
        fa_c = jt_einsum(",ijk->ijk", fa, b.cotton)

        m = b.efield - b.scalar_jet_times_g / (n * (n - 1.0))
        lhs1 = jt_einsum("lijk,l->ijk", b.riemann13, self.df)
        rhs1 = jt_einsum("ij,k->ijk", m, self.df) - jt_einsum("ik,j->ijk", m, self.df) + fa_c
        rhs2 = jt_einsum("sijk,s->ijk", b.weyl, self.df_up) + self.t_jets
        return {
            "riemann_gradient": b.defect(lhs1.value, rhs1.value, ("l",) * 3),
            "cotton_decomposition": b.defect(fa_c.value, rhs2.value, ("l",) * 3),
        }

    def tfe_defect(self) -> Residual:
        """E_ik T_ijk f_j = (n-2)/(2(n-1)) ||T||^2."""
        self.require_solution("E-T contraction identity")
        b = self.bundle
        n = self.n
        e_up = b.ginv0 @ b.efield.value @ b.ginv0
        f_up = b.ginv0 @ self.df.value
        lhs = float(np.einsum("ik,ijk,j->", e_up, self.t_jets.value, f_up))
        tnorm_sq = b.norm_sq(self.t_jets.value, ("l",) * 3)
        rhs = (n - 2.0) / (2.0 * (n - 1.0)) * tnorm_sq
        return Residual(abs(lhs - rhs), tnorm_sq)


# -- warped-product helpers -------------------------------------------------------


def fiber_ric0(fb: CurvatureBundle) -> np.ndarray:
    """Trace-free fiber Ricci (components w.r.t. the shared fiber coordinates)."""
    return fb.ric.value - (fb.scalar / fb.dim) * fb.g0


def _fiber_norm(b: CurvatureBundle, components: np.ndarray) -> float:
    """The norm of a covariant tensor given by its fiber components, its d/dt components zero.

    A warped chart's g0 is block-diagonal with g0[0, 0] = 1, so the fiber
    block of the frame is the frame of the fiber block, and a d/dt slot of
    a tensor leaves this norm unchanged.
    """
    up, low = b.frame
    return math.sqrt(tensors.tensor_norm_sq(components, ("l",) * components.ndim, up[1:, 1:], low[1:, 1:]))


def t_potential(ast: ExprAst, label: str, a: float = 0.0, b: float = 0.0) -> StaticPotentialSpec:
    """A potential f(t) given by an expression in the first coordinate."""
    return StaticPotentialSpec(label=label, builder=lambda coords: eval_expr(ast, coords[0]), a=a, b=b, of_t=True)


# The identities below are check evaluators.  Each takes one sample point's
# scratch ``sc``, which holds what the point's checks share: the total-space
# bundle (of order >= 3 wherever the Cotton tensor enters), the analyses on
# it, the fiber bundle at the point's fiber coordinates, and the warping's
# one-variable jet at its t.  None of them builds a bundle.


def lgh_closed_forms(sc: PointScratch) -> ResidualSet:
    """Slot-by-slot residuals between generic L*_g f and the warped closed forms.

    f is the configured t-expression potential, or else hdot, which adds the
    hdot closed form.  As f is a function of t alone, the fiber
    Hessian/Laplacian terms of the closed forms drop out.  No constancy of
    the scalar curvature is assumed.
    """
    analysis = sc.static if sc.ctx.potential is not None and sc.ctx.potential.of_t else sc.hdot
    b = sc.bundle
    n = b.dim
    f = analysis.f

    h, hd, hdd, hddd = sc.warping[:4]
    zeros = (0,) * (n - 1)
    f0, ft, ftt = f.value, f.partial((1,) + zeros), f.partial((2,) + zeros)

    lstar_v = analysis.lstar_f.value
    lap_v = float(analysis.lap.value)
    scal = b.scalar

    ric0 = sc.fiber_ric0
    g_fiber = b.g0[1:, 1:]

    out: ResidualSet = {}
    pred_l1 = (n - 1.0) / h * (hdd * f0 - hd * ft)
    out["tt_slot"] = Residual(abs(lstar_v[0, 0] - pred_l1), abs(lstar_v[0, 0]) + abs(pred_l1))

    mixed = math.hypot(_fiber_norm(b, lstar_v[0, 1:]), _fiber_norm(b, lstar_v[1:, 0]))
    out["mixed_slot"] = Residual(mixed, abs(ft) + abs(f0))

    bracket = lap_v + scal * f0 / (n - 1.0) + (hdd * f0 - hd * ft) / h
    pred_l3 = -f0 * ric0 - bracket * g_fiber
    resid_l3 = lstar_v[1:, 1:] - pred_l3
    out["fiber_slot"] = Residual(_fiber_norm(b, resid_l3), b.norm(lstar_v, ("l", "l")) + abs(bracket))

    pred_lap = ftt + (n - 1.0) * hd / h * ft
    out["laplacian"] = Residual(abs(lap_v - pred_lap), abs(lap_v) + abs(pred_lap))

    if analysis is sc.hdot:
        # -L* hdot = hdot ric0 + h^2 [h''' + (n-1) hd hdd / h + R hd/(n-1)] gbar
        gbar = g_fiber / h**2
        pred = -(hd * ric0 + h * h * (hddd + (n - 1.0) * hd * hdd / h + scal * hd / (n - 1.0)) * gbar)
        out["hdot_form"] = Residual(
            _fiber_norm(b, lstar_v[1:, 1:] - pred), b.norm(lstar_v, ("l", "l")) + _fiber_norm(b, pred)
        )
    return out


def icotton_warped_residual(sc: PointScratch) -> ResidualSet:
    """|| i_{d/dt} C || at the point (zero when the scalar curvature is constant)."""
    b = sc.bundle
    return {"icotton": Residual(b.norm(b.cotton.value[0], ("l", "l")), b.norm(b.cotton.value, ("l",) * 3))}


def warpedproduct3_residual(sc: PointScratch) -> ResidualSet:
    """Residual of L*_g hdot = -C(., xi, .) for xi = h d/dt, so that C(., xi, .) = h C(., d/dt, .)."""
    b = sc.bundle
    return {"wp3": b.defect(sc.hdot.lstar_f.value, -(sc.warping[0] * b.cotton.value[:, 0, :]), ("l", "l"))}


def equivalence_clauses(sc: PointScratch) -> dict[str, float]:
    """The four clause magnitudes of the warped vacuum-static equivalence chain."""
    b = sc.bundle
    return {
        "lstar_hdot": b.norm(sc.hdot.lstar_f.value, ("l", "l")),
        "cotton_mid_dt": b.norm(b.cotton.value[:, 0, :], ("l", "l")),
        "cotton": b.norm(b.cotton.value, ("l",) * 3),
        "fiber_efield": sc.fiber.norm(sc.fiber_ric0, ("l", "l")),
    }


def nonconstant_r_cotton_formulas(sc: PointScratch) -> ResidualSet:
    """Generic Cotton components vs the explicit warped-product formulas.

    Valid whether or not the scalar curvature is constant; for constant R
    everything on both sides degenerates to zero.  The fiber branch is
    C(X,Y,Z) = [Z(R) g(X,Y) - Y(R) g(X,Z)]/4 for n=3 and
    Cbar + Z(Theta) g(X,Y) - Y(Theta) g(X,Z), Theta = Rbar h^-2/(2(n-2))
    - R/(2(n-1)), for n >= 4, where a fiber of dimension >= 3 needs a
    fiber bundle of order >= 3 for its Cotton tensor Cbar.
    """
    b, fb = sc.bundle, sc.fiber
    n = b.dim
    c = b.cotton.value
    cnorm = b.norm(b.cotton.value, ("l",) * 3)
    dr = b.dscalar.value
    h, hd = sc.warping[:2]

    ric0 = sc.fiber_ric0
    g0 = b.g0

    out: ResidualSet = {}
    pred = -dr[1:] / (2.0 * (n - 1.0))
    out["ttX"] = Residual(_fiber_norm(b, c[0, 0, 1:] - pred), cnorm)
    out["tXt"] = Residual(_fiber_norm(b, c[0, 1:, 0] + pred), cnorm)
    out["tXY"] = Residual(_fiber_norm(b, c[0, 1:, 1:]), cnorm)

    pred_mid = hd * ric0
    out["XhdtY"] = Residual(_fiber_norm(b, h * c[1:, 0, 1:] - pred_mid), cnorm + _fiber_norm(b, pred_mid))

    if n == 3:
        pred_f = 0.25 * (
            np.einsum("c,ab->abc", dr[1:], g0[1:, 1:]) - np.einsum("b,ac->abc", dr[1:], g0[1:, 1:])
        )
    else:
        # Theta as a jet field on the total chart: embed the fiber scalar,
        # multiply by h(t)^-2, subtract R/(2(n-1)).
        rbar = fb.scalar_jet.embed(b.space, tuple(range(1, n)))
        h_tot = sc.warping_jet.truncate(b.order).embed(b.space, (0,))
        theta = rbar / (2.0 * (n - 2.0)) / (h_tot * h_tot) - b.scalar_jet / (2.0 * (n - 1.0))
        dtheta = theta.partials().value
        pred_f = (
            fb.cotton.value
            + np.einsum("c,ab->abc", dtheta[1:], g0[1:, 1:])
            - np.einsum("b,ac->abc", dtheta[1:], g0[1:, 1:])
        )
    out["XYZ"] = Residual(_fiber_norm(b, c[1:, 1:, 1:] - pred_f), cnorm + _fiber_norm(b, pred_f))
    return out


def propddoth_check(sc: PointScratch) -> ResidualSet:
    """Residuals of the h*fbar assembly: fiber, warping, and total equations.

    The configured potential is h(t)*fbar, with fbar on the fiber chart.
    Its two premises, the fiber vacuum equation for fbar and the
    warping equation, must hold at the point; the total-space vacuum
    residual of h*fbar is reported alongside them.
    """
    fbar = sc.ctx.potential.fiber if sc.ctx.potential is not None else None
    if fbar is None:
        raise PreconditionSkip("assembly criterion needs a factored potential u(t)*fbar")
    n = sc.bundle.dim
    fiber_vss = StaticAnalysis(sc.fiber, fbar).vacuum_residuals()["full"]
    h, _, hdd = sc.warping[:3]
    warping_equation = Residual(abs(hdd + sc.bundle.scalar * h / (n * (n - 1.0))), abs(hdd) + abs(h))
    for name, premise in (("fiber_vss", fiber_vss), ("warping_equation", warping_equation)):
        if premise.rel > 1e-6:
            raise PreconditionSkip(f"premise {name} fails (residual {premise.rel:.2e})")
    return {
        "total_vss": sc.static.vacuum_residuals()["full"],
        "fiber_vss": fiber_vss,
        "warping_equation": warping_equation,
    }


def inrp_product_check(sc: PointScratch) -> ResidualSet:
    """Residuals for the Riemannian-product criterion (h == 1, f = f(t)).

    Checks f'' + Rbar f/(n-1) = 0 for the configured potential f(t) against
    the fiber scalar curvature and the full vacuum equation on the product,
    and reports the fiber Einstein defect alongside.
    """
    if sc.ctx.potential is None or not sc.ctx.potential.of_t:
        raise PreconditionSkip("product criterion needs a t-expression potential")
    h, hd = sc.warping[:2]
    if abs(h - 1.0) > 1e-12 or abs(hd) > 1e-12:
        raise PreconditionSkip("product criterion requires h == 1")

    n = sc.bundle.dim
    fb = sc.fiber
    zeros = (0,) * (n - 1)
    f = sc.static.f
    f0, ftt = f.value, f.partial((2,) + zeros)
    ddotf = ftt + fb.scalar * f0 / (n - 1.0)
    return {
        "ddotf": Residual(abs(ddotf), abs(ftt) + abs(f0)),
        "full": sc.static.vacuum_residuals()["full"],
        "fiber_einstein": Residual(fb.norm(sc.fiber_ric0, ("l", "l")), fb.norm(fb.ric.value, ("l", "l"))),
    }


def xicvf_residuals(sc: PointScratch) -> ResidualSet:
    """The two contraction identities tying f, phi, P, and C(., xi, .) together.

    Item (1):
        n (f_j phi_k - f_k phi_j) + R/(n-1) (f_j xi^b_k - f_k xi^b_j)
          = P_jk,i f_i + f_j P_ik,i - f_k P_ij,i - (f+a) C_ijk xi^i
    Item (2):
        xi(f) E_ik - <grad phi + R xi/(n(n-1)), grad f> g_ik
          = -f_k (n phi_i + R/(n-1) xi^b_i) + f_j P_ji,k + f_k P_li,l
            + (f+a) C_ijk xi^j
    """
    st = sc.static
    b = sc.bundle
    n = b.dim
    st.require_solution("conformal-field contraction identities")
    cf = sc.conformal

    df, df_up = st.df, st.df_up
    fa = st.f_plus_a
    dphi, dphi_up = cf.phi_analysis.df, cf.phi_analysis.df_up
    xi, xib = cf.xi, cf.xi_flat.truncate(0)
    dp = cf.dp.truncate(0)
    r_jet = b.scalar_jet

    # item (1)
    fphi = jt_einsum("j,k->jk", df, dphi)
    fxib = jt_einsum("j,k->jk", df, xib)
    lhs1 = float(n) * (fphi - fphi.transpose("jk->kj")) + jt_einsum(
        ",jk->jk", r_jet, fxib - fxib.transpose("jk->kj")
    ) / (n - 1.0)
    rhs1 = jt_einsum("jki,i->jk", dp, df_up)
    rhs1 = rhs1 + jt_einsum("j,k->jk", df, cf.div_p) - jt_einsum("k,j->jk", df, cf.div_p)
    rhs1 = rhs1 - jt_einsum(",jk->jk", fa, cf.cotton_xi)

    # item (2)
    xif = jt_einsum("a,a->", xi, df)
    inner = jt_einsum("b,b->", dphi_up, df) + jt_einsum(",->", r_jet, xif) / (n * (n - 1.0))
    lhs2 = jt_einsum(",ik->ik", xif, b.efield) - jt_einsum(",ik->ik", inner, b.g)
    vec = float(n) * dphi + jt_einsum(",i->i", r_jet, xib) / (n - 1.0)
    rhs2 = -jt_einsum("k,i->ik", df, vec)
    rhs2 = rhs2 + jt_einsum("jik,j->ik", dp, df_up)
    rhs2 = rhs2 + jt_einsum("k,i->ik", df, cf.div_p)
    rhs2 = rhs2 + jt_einsum(",ik->ik", fa, cf.cotton_mid_xi)

    return {
        "item1": b.defect(lhs1.value, rhs1.value, ("l", "l")),
        "item2": b.defect(lhs2.value, rhs2.value, ("l", "l")),
    }
