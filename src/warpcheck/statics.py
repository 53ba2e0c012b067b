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
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import tensors
from .dsl import ExprAst, eval_expr
from .geometry import _need_dim
from .jets import JetTensor, jt_einsum
from .residuals import PreconditionSkip, Residual, ResidualSet
from .spaces import StaticPotentialSpec

if TYPE_CHECKING:
    from .checks import ChunkScratch, PointScratch
    from .geometry import _Chain

__all__ = [
    "StaticAnalysis",
    "lgh_closed_forms",
    "icotton_warped_residual",
    "warpedproduct3_residual",
    "equivalence_residuals",
    "nonconstant_r_cotton_formulas",
    "propddoth_check",
    "assembly_premises",
    "inrp_product_check",
    "unit_warping",
    "require_solution",
    "t_potential",
    "xicvf_residuals",
    "fiber_ric0",
    "SOLUTION_REL_TOL",
]

SOLUTION_REL_TOL = 1e-6


class StaticAnalysis:
    """Residuals of one potential at the points of a chunk, as jets with its point axis p (see the Batch rule of
    :mod:`geometry`); ``f`` is its jet there if formed already.  A residual method forms the residuals of every
    point of the chunk; the sets that several checks read are cached."""

    def __init__(self, chain: _Chain, potential: StaticPotentialSpec, f: JetTensor | None = None):
        self.chain = chain
        self.potential = potential
        self.n = chain.dim
        if f is not None:
            self.f = f

    @cached_property
    def f(self) -> JetTensor:
        return self.chain.scalar_field(self.potential.builder)

    @cached_property
    def df(self) -> JetTensor:
        """df at order 0: the Hessian differentiates f itself."""
        return self.f.truncate(1).partials()

    @cached_property
    def df_up(self) -> JetTensor:
        return jt_einsum("pia,pa->pi", self.chain.ginv, self.df)

    @cached_property
    def hess(self) -> JetTensor:
        return self.chain.hessian(self.f)

    @cached_property
    def lap(self) -> JetTensor:
        return self.chain.laplacian(self.hess)

    @cached_property
    def lstar_f(self) -> JetTensor:
        return self.chain.lstar(self.f, self.hess, self.lap)

    @cached_property
    def f_plus_a(self) -> JetTensor:
        return self.f.truncate(0) + self.potential.a

    @cached_property
    def generalized_lhs(self) -> JetTensor:
        """Hess f + R f g/(n(n-1)): the generalized equation's left side, and the trace-free vacuum residual's."""
        c, n = self.chain, self.n
        return self.hess + jt_einsum("p,pij->pij", c.scalar_jet * self.f.truncate(0), c.g) / (n * (n - 1.0))

    # -- vacuum static equation ------------------------------------------

    @cached_property
    def vacuum(self) -> ResidualSet:
        """The full, trace and trace-free residuals."""
        c = self.chain
        n = self.n
        scale2 = c.norm(self.hess.value, ("l", "l")) + np.abs(self.lap.value)
        scale2 += c.norm(self.f.value[:, None, None] * c.ric.value, ("l", "l"))
        out: ResidualSet = {
            "full": Residual(c.norm(self.lstar_f.value, ("l", "l")), scale2),
        }
        trace = self.lap + c.scalar_jet * self.f.truncate(0) / (n - 1.0)
        out["trace"] = Residual(
            np.abs(trace.value),
            np.abs(self.lap.value) + np.abs(c.scalar_jet.value * self.f.value / (n - 1.0)),
        )
        tf = self.generalized_lhs - jt_einsum("p,pij->pij", self.f, c.efield)
        out["trace_free"] = Residual(c.norm(tf.value, ("l", "l")), scale2)
        return out

    @cached_property
    def solution_defect(self) -> Residual:
        """Residual of the generalized equation Hess f + R f g/(n(n-1)) = (f+a) E + b g."""
        c = self.chain
        rhs = jt_einsum("p,pij->pij", self.f_plus_a, c.efield) + JetTensor.const(c.space, self.potential.b * c.g0)
        return c.defect(self.generalized_lhs.value, rhs.value, ("l", "l"))

    # -- T tensor -----------------------------------------------------------

    @cached_property
    def t_jets(self) -> JetTensor:
        c = self.chain
        n = self.n
        _need_dim(n, 3, "T tensor")
        ef = jt_einsum("pjl,pl->pj", c.efield, self.df_up)
        term1 = jt_einsum("pik,pj->pijk", c.efield, self.df) - jt_einsum("pij,pk->pijk", c.efield, self.df)
        term2 = jt_einsum("pik,pj->pijk", c.g, ef) - jt_einsum("pij,pk->pijk", c.g, ef)
        return term1 * ((n - 1.0) / (n - 2.0)) + term2 * (1.0 / (n - 2.0))

    def t_algebra(self) -> ResidualSet:
        c = self.chain
        t = self.t_jets
        tnorm = c.norm(t.value, ("l",) * 3)
        out: ResidualSet = {}
        skew = t + t.transpose("pijk->pikj")
        out["skew"] = Residual(c.norm(skew.value, ("l",) * 3), tnorm)
        cyc = t + t.transpose("pijk->pjki") + t.transpose("pijk->pkij")
        out["cyclic"] = Residual(c.norm(cyc.value, ("l",) * 3), tnorm)
        tr1 = jt_einsum("pij,pijk->pk", c.ginv, t)
        tr2 = jt_einsum("pik,pijk->pj", c.ginv, t)
        out["trace12"] = Residual(c.norm(tr1.value, ("l",)), tnorm)
        out["trace13"] = Residual(c.norm(tr2.value, ("l",)), tnorm)
        return out

    # -- decomposition identities --------------------------------------------

    def decompose_residuals(self) -> ResidualSet:
        c = self.chain
        n = self.n
        fa_c = jt_einsum("p,pijk->pijk", self.f_plus_a, c.cotton)

        m = c.efield - c.scalar_jet_times_g / (n * (n - 1.0))
        lhs1 = jt_einsum("plijk,pl->pijk", c.riemann13, self.df)
        rhs1 = jt_einsum("pij,pk->pijk", m, self.df) - jt_einsum("pik,pj->pijk", m, self.df) + fa_c
        rhs2 = jt_einsum("psijk,ps->pijk", c.weyl, self.df_up) + self.t_jets
        return {
            "riemann_gradient": c.defect(lhs1.value, rhs1.value, ("l",) * 3),
            "cotton_decomposition": c.defect(fa_c.value, rhs2.value, ("l",) * 3),
        }

    def tfe_defect(self) -> Residual:
        """E_ik T_ijk f_j = (n-2)/(2(n-1)) ||T||^2."""
        c = self.chain
        n = self.n
        e_up = c.ginv0 @ c.efield.value @ c.ginv0
        f_up = c.ginv0 @ self.df.value[..., None]
        lhs = np.array([np.einsum("ik,ijk,j->", *args) for args in zip(e_up, self.t_jets.value, f_up[..., 0])])
        tnorm_sq = c.norm_sq(self.t_jets.value, ("l",) * 3)
        rhs = (n - 2.0) / (2.0 * (n - 1.0)) * tnorm_sq
        return Residual(np.abs(lhs - rhs), tnorm_sq)


# -- warped-product helpers -------------------------------------------------------


def fiber_ric0(fb: _Chain) -> np.ndarray:
    """Trace-free fiber Ricci (components w.r.t. the shared fiber coordinates), at each point of a chunk."""
    return fb.ric.value - (fb.scalar_jet.value / fb.dim)[:, None, None] * fb.g0


def _fiber_norm(c: _Chain, components: np.ndarray) -> np.ndarray:
    """The norms of a covariant tensor given by its fiber components, its d/dt components zero, at each point of
    a chunk.

    A warped chart's g0 is block-diagonal with g0[0, 0] = 1, so the fiber
    block of the frame is the frame of the fiber block, and a d/dt slot of
    a tensor leaves this norm unchanged.
    """
    up, low = c.frame
    variance = ("l",) * (components.ndim - 1)
    return np.sqrt(tensors.tensor_norm_sq(components, variance, up[:, 1:, 1:], low[:, 1:, 1:]))


def t_potential(ast: ExprAst, label: str, a: float = 0.0, b: float = 0.0) -> StaticPotentialSpec:
    """A potential f(t) given by an expression in the first coordinate."""
    return StaticPotentialSpec(label=label, builder=lambda coords: eval_expr(ast, coords[0]), a=a, b=b, of_t=True)


# The identities and preconditions below are those of checks (``checks.Check``).
# An identity reads what the checks of a chunk ``ch`` share: the total-space
# chain (of order >= 3 wherever the Cotton tensor enters), the analyses on it,
# the fiber chain at the fiber coordinates, and the warping's one-variable
# jets at each t.


def lgh_closed_forms(ch: ChunkScratch) -> ResidualSet:
    """Slot-by-slot residuals between generic L*_g f and the warped closed forms.

    f is the configured t-expression potential, or else hdot, which adds the
    hdot closed form.  As f is a function of t alone, the fiber
    Hessian/Laplacian terms of the closed forms drop out.  No constancy of
    the scalar curvature is assumed.
    """
    analysis = ch.static if ch.ctx.potential is not None and ch.ctx.potential.of_t else ch.hdot
    c = ch.chain
    n = c.dim
    f = analysis.f

    h, hd, hdd, hddd = ch.warping[:4]
    zeros = (0,) * (n - 1)
    f0, ft, ftt = f.value, f.partial((1,) + zeros), f.partial((2,) + zeros)

    lstar_v = analysis.lstar_f.value
    lap_v = analysis.lap.value
    scal = c.scalar_jet.value

    ric0 = ch.fiber_ric0
    g_fiber = c.g0[:, 1:, 1:]

    out: ResidualSet = {}
    pred_l1 = (n - 1.0) / h * (hdd * f0 - hd * ft)
    out["tt_slot"] = Residual(np.abs(lstar_v[:, 0, 0] - pred_l1), np.abs(lstar_v[:, 0, 0]) + np.abs(pred_l1))

    pairs = zip(_fiber_norm(c, lstar_v[:, 0, 1:]), _fiber_norm(c, lstar_v[:, 1:, 0]))
    out["mixed_slot"] = Residual(np.array([math.hypot(a, b) for a, b in pairs]), np.abs(ft) + np.abs(f0))

    bracket = lap_v + scal * f0 / (n - 1.0) + (hdd * f0 - hd * ft) / h
    pred_l3 = -f0[:, None, None] * ric0 - bracket[:, None, None] * g_fiber
    resid_l3 = lstar_v[:, 1:, 1:] - pred_l3
    out["fiber_slot"] = Residual(_fiber_norm(c, resid_l3), c.norm(lstar_v, ("l", "l")) + np.abs(bracket))

    pred_lap = ftt + (n - 1.0) * hd / h * ft
    out["laplacian"] = Residual(np.abs(lap_v - pred_lap), np.abs(lap_v) + np.abs(pred_lap))

    if analysis is ch.hdot:
        # -L* hdot = hdot ric0 + h^2 [h''' + (n-1) hd hdd / h + R hd/(n-1)] gbar, with each h**2 a scalar power,
        # as numpy squares an array by another path
        gbar = g_fiber / np.array([x**2 for x in h])[:, None, None]
        coef = h * h * (hddd + (n - 1.0) * hd * hdd / h + scal * hd / (n - 1.0))
        pred = -(hd[:, None, None] * ric0 + coef[:, None, None] * gbar)
        out["hdot_form"] = Residual(
            _fiber_norm(c, lstar_v[:, 1:, 1:] - pred), c.norm(lstar_v, ("l", "l")) + _fiber_norm(c, pred)
        )
    return out


def icotton_warped_residual(ch: ChunkScratch) -> ResidualSet:
    """|| i_{d/dt} C || at the point (zero when the scalar curvature is constant)."""
    c = ch.chain
    return {"icotton": Residual(c.norm(c.cotton.value[:, 0], ("l", "l")), c.norm(c.cotton.value, ("l",) * 3))}


def warpedproduct3_residual(ch: ChunkScratch) -> ResidualSet:
    """Residual of L*_g hdot = -C(., xi, .) for xi = h d/dt, so that C(., xi, .) = h C(., d/dt, .)."""
    c = ch.chain
    rhs = -(ch.warping[0][:, None, None] * c.cotton.value[:, :, 0, :])
    return {"wp3": c.defect(ch.hdot.lstar_f.value, rhs, ("l", "l"))}


def equivalence_residuals(ch: ChunkScratch) -> ResidualSet:
    """The four clause magnitudes of the warped vacuum-static equivalence chain, each of scale 0."""
    c = ch.chain
    clauses = {
        "lstar_hdot": c.norm(ch.hdot.lstar_f.value, ("l", "l")),
        "cotton_mid_dt": c.norm(c.cotton.value[:, :, 0, :], ("l", "l")),
        "cotton": c.norm(c.cotton.value, ("l",) * 3),
        "fiber_efield": ch.fiber.norm(ch.fiber_ric0, ("l", "l")),
    }
    return {name: Residual(value, np.zeros_like(value)) for name, value in clauses.items()}


def nonconstant_r_cotton_formulas(ch: ChunkScratch) -> ResidualSet:
    """Generic Cotton components vs the explicit warped-product formulas.

    Valid whether or not the scalar curvature is constant; for constant R
    everything on both sides degenerates to zero.  The fiber branch is
    C(X,Y,Z) = [Z(R) g(X,Y) - Y(R) g(X,Z)]/4 for n=3 and
    Cbar + Z(Theta) g(X,Y) - Y(Theta) g(X,Z), Theta = Rbar h^-2/(2(n-2))
    - R/(2(n-1)), for n >= 4, where a fiber of dimension >= 3 needs a
    fiber chain of order >= 3 for its Cotton tensor Cbar.
    """
    b, fb = ch.chain, ch.fiber
    n = b.dim
    c = b.cotton.value
    cnorm = b.norm(b.cotton.value, ("l",) * 3)
    dr = b.dscalar.value
    h, hd = ch.warping[:2]

    ric0 = ch.fiber_ric0
    g0 = b.g0

    out: ResidualSet = {}
    pred = -dr[:, 1:] / (2.0 * (n - 1.0))
    out["ttX"] = Residual(_fiber_norm(b, c[:, 0, 0, 1:] - pred), cnorm)
    out["tXt"] = Residual(_fiber_norm(b, c[:, 0, 1:, 0] + pred), cnorm)
    out["tXY"] = Residual(_fiber_norm(b, c[:, 0, 1:, 1:]), cnorm)

    pred_mid = hd[:, None, None] * ric0
    out["XhdtY"] = Residual(
        _fiber_norm(b, h[:, None, None] * c[:, 1:, 0, 1:] - pred_mid), cnorm + _fiber_norm(b, pred_mid)
    )

    if n == 3:
        pred_f = 0.25 * (
            np.einsum("pc,pab->pabc", dr[:, 1:], g0[:, 1:, 1:]) - np.einsum("pb,pac->pabc", dr[:, 1:], g0[:, 1:, 1:])
        )
    else:
        # Theta as a jet field on the total chart: embed the fiber scalar,
        # multiply by h(t)^-2, subtract R/(2(n-1)).
        rbar = fb.scalar_jet.embed(b.space, tuple(range(1, n)))
        h_tot = ch.warping_jet.truncate(b.space.order).embed(b.space, (0,))
        theta = rbar / (2.0 * (n - 2.0)) / (h_tot * h_tot) - b.scalar_jet / (2.0 * (n - 1.0))
        dtheta = theta.partials().value
        pred_f = (
            fb.cotton.value
            + np.einsum("pc,pab->pabc", dtheta[:, 1:], g0[:, 1:, 1:])
            - np.einsum("pb,pac->pabc", dtheta[:, 1:], g0[:, 1:, 1:])
        )
    out["XYZ"] = Residual(_fiber_norm(b, c[:, 1:, 1:, 1:] - pred_f), cnorm + _fiber_norm(b, pred_f))
    return out


def assembly_premises(sc: PointScratch) -> None:
    """The precondition of the h*fbar assembly: the configured potential is h(t)*fbar, with fbar on the fiber
    chart, and its two premises, the fiber vacuum equation for fbar and the warping equation, hold at the point."""
    if sc.ctx.potential is None or sc.ctx.potential.fiber is None:
        raise PreconditionSkip("assembly criterion needs a factored potential u(t)*fbar")
    for name, premise in sc.rows(_assembly_premises).items():
        if premise.rel > 1e-6:
            raise PreconditionSkip(f"premise {name} fails (residual {premise.rel:.2e})")


def propddoth_check(ch: ChunkScratch) -> ResidualSet:
    """The total-space vacuum residual of h*fbar, and the residuals of its two premises."""
    return {"total_vss": ch.static.vacuum["full"], **ch.formed(_assembly_premises)}


def _assembly_premises(ch: ChunkScratch) -> ResidualSet:
    n = ch.chain.dim
    h, _, hdd = ch.warping[:3]
    return {
        "fiber_vss": StaticAnalysis(ch.fiber, ch.ctx.potential.fiber).vacuum["full"],
        "warping_equation": Residual(
            np.abs(hdd + ch.chain.scalar_jet.value * h / (n * (n - 1.0))), np.abs(hdd) + np.abs(h)
        ),
    }


def unit_warping(sc: PointScratch) -> None:
    """The precondition of the product criterion: a potential f(t), and h == 1 at the point."""
    if sc.ctx.potential is None or not sc.ctx.potential.of_t:
        raise PreconditionSkip("product criterion needs a t-expression potential")
    h, hd = (value[sc.row] for value in sc.chunk.warping[:2])
    if abs(h - 1.0) > 1e-12 or abs(hd) > 1e-12:
        raise PreconditionSkip("product criterion requires h == 1")


def inrp_product_check(ch: ChunkScratch) -> ResidualSet:
    """Residuals for the Riemannian-product criterion (h == 1, f = f(t)).

    Checks f'' + Rbar f/(n-1) = 0 for the configured potential f(t) against
    the fiber scalar curvature and the full vacuum equation on the product,
    and reports the fiber Einstein defect alongside.
    """
    n = ch.chain.dim
    fb = ch.fiber
    zeros = (0,) * (n - 1)
    f = ch.static.f
    f0, ftt = f.value, f.partial((2,) + zeros)
    ddotf = ftt + fb.scalar_jet.value * f0 / (n - 1.0)
    return {
        "ddotf": Residual(np.abs(ddotf), np.abs(ftt) + np.abs(f0)),
        "full": ch.static.vacuum["full"],
        "fiber_einstein": Residual(fb.norm(ch.fiber_ric0, ("l", "l")), fb.norm(fb.ric.value, ("l", "l"))),
    }


def require_solution(what: str) -> Callable[[PointScratch], None]:
    """The precondition that the potential solves the generalized equation at the point; ``what`` names the
    identities that assume it."""

    def solves(sc: PointScratch) -> None:
        st = sc.chunk.static
        rel = st.solution_defect.rel[sc.row]
        if rel > SOLUTION_REL_TOL:
            raise PreconditionSkip(
                f"{what}: potential {st.potential.label!r} does not solve the "
                f"generalized equation here (residual {rel:.2e})"
            )

    return solves


def xicvf_residuals(ch: ChunkScratch) -> ResidualSet:
    """The two contraction identities tying f, phi, P, and C(., xi, .) together.

    Item (1):
        n (f_j phi_k - f_k phi_j) + R/(n-1) (f_j xi^b_k - f_k xi^b_j)
          = P_jk,i f_i + f_j P_ik,i - f_k P_ij,i - (f+a) C_ijk xi^i
    Item (2):
        xi(f) E_ik - <grad phi + R xi/(n(n-1)), grad f> g_ik
          = -f_k (n phi_i + R/(n-1) xi^b_i) + f_j P_ji,k + f_k P_li,l
            + (f+a) C_ijk xi^j
    """
    st, cf = ch.static, ch.conformal
    b = ch.chain
    n = b.dim

    df, df_up = st.df, st.df_up
    fa = st.f_plus_a
    dphi, dphi_up = cf.phi_analysis.df, cf.phi_analysis.df_up
    xi, xib = cf.xi, cf.xi_flat.truncate(0)
    dp = cf.dp.truncate(0)
    r_jet = b.scalar_jet

    # item (1)
    fphi = jt_einsum("pj,pk->pjk", df, dphi)
    fxib = jt_einsum("pj,pk->pjk", df, xib)
    lhs1 = float(n) * (fphi - fphi.transpose("pjk->pkj")) + jt_einsum(
        "p,pjk->pjk", r_jet, fxib - fxib.transpose("pjk->pkj")
    ) / (n - 1.0)
    rhs1 = jt_einsum("pjki,pi->pjk", dp, df_up)
    rhs1 = rhs1 + jt_einsum("pj,pk->pjk", df, cf.div_p) - jt_einsum("pk,pj->pjk", df, cf.div_p)
    rhs1 = rhs1 - jt_einsum("p,pjk->pjk", fa, cf.cotton_xi)

    # item (2)
    xif = jt_einsum("pa,pa->p", xi, df)
    inner = jt_einsum("pb,pb->p", dphi_up, df) + jt_einsum("p,p->p", r_jet, xif) / (n * (n - 1.0))
    lhs2 = jt_einsum("p,pik->pik", xif, b.efield) - jt_einsum("p,pik->pik", inner, b.g)
    vec = float(n) * dphi + jt_einsum("p,pi->pi", r_jet, xib) / (n - 1.0)
    rhs2 = -jt_einsum("pk,pi->pik", df, vec)
    rhs2 = rhs2 + jt_einsum("pjik,pj->pik", dp, df_up)
    rhs2 = rhs2 + jt_einsum("pk,pi->pik", df, cf.div_p)
    rhs2 = rhs2 + jt_einsum("p,pik->pik", fa, cf.cotton_mid_xi)

    return {
        "item1": b.defect(lhs1.value, rhs1.value, ("l", "l")),
        "item2": b.defect(lhs2.value, rhs2.value, ("l", "l")),
    }
