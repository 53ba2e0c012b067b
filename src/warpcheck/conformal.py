"""Conformal-vector-field machinery.

For a field xi on (M, g): the characteristic function phi = div(xi)/n, the
skew tensor P_jk = (xi^b_{j,k} - xi^b_{k,j})/2, the closed-field curvature
identities, the symmetric tensor

    Phi_ik = -C_kli xi^l - (grad_i R xi^b_k - xi(R) g_ik)/(2(n-1))
             + P_{jk,ji} + R_il P_lk,

and the identity L*_g phi = Phi, which reduces to L*_g phi = -C(., xi, .)
for closed fields on constant-scalar-curvature metrics.  Everything is
evaluated in jet arithmetic, and phi's dphi, Hessian, Laplacian and L*_g phi
come from a :class:`~warpcheck.statics.StaticAnalysis` of phi, as f's do.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .jets import JetTensor, jt_einsum
from .residuals import Residual, ResidualSet
from .spaces import ConformalFieldSpec, StaticPotentialSpec, space_form, sphere_height_potential
from .statics import StaticAnalysis

if TYPE_CHECKING:
    from .geometry import _Chain

__all__ = [
    "ConformalAnalysis",
    "sphere_gradient_field",
    "rotation_field",
    "zero_field",
    "CLOSED_REL_TOL",
]

CLOSED_REL_TOL = 1e-9


class ConformalAnalysis:
    """Analysis of one conformal field at the points of a chunk of one chart, as jets with the chunk's point axis
    p (see the Batch rule of :mod:`geometry`).  A residual method forms the residuals of every point of the chunk,
    and the defects that the preconditions read are cached; a closed field's identities are reported where the
    field is closed."""

    def __init__(self, chain: _Chain, xi: ConformalFieldSpec):
        self.chain = chain
        self.spec = xi
        self.n = chain.dim

    # -- field jets -------------------------------------------------------

    @cached_property
    def xi(self) -> JetTensor:
        return self.chain.vector_field(self.spec.builder)

    @cached_property
    def xi_flat(self) -> JetTensor:
        """xi^b to order 3 at most: the deepest read, d2P, differentiates it three times."""
        return jt_einsum("pij,pj->pi", self.chain.g, self.xi.truncate(min(self.xi.order, 3)))

    @cached_property
    def dxi_flat(self) -> JetTensor:
        """xi^b_{j,i} laid out as [j, i] (derivative index last)."""
        return self.chain.covariant_derivative(self.xi_flat, ("l",))

    @cached_property
    def phi(self) -> JetTensor:
        """Characteristic function phi = div(xi)/n as a jet field."""
        return jt_einsum("pji,pji->p", self.chain.ginv, self.dxi_flat) / float(self.n)

    @cached_property
    def phi_analysis(self) -> StaticAnalysis:
        """phi as a potential: its dphi, grad phi, Hessian, Laplacian and L*_g phi."""
        return StaticAnalysis(self.chain, StaticPotentialSpec("phi", None), self.phi)

    @cached_property
    def xi_of_r(self) -> JetTensor:
        """xi(R) = xi^l d_l R."""
        return jt_einsum("pl,pl->p", self.xi.truncate(0), self.chain.dscalar)

    @cached_property
    def cotton_xi(self) -> JetTensor:
        """i_xi C: C_ljk xi^l."""
        return jt_einsum("pljk,pl->pjk", self.chain.cotton, self.xi.truncate(0))

    @cached_property
    def cotton_mid_xi(self) -> JetTensor:
        """C(., xi, .): C_ilj xi^l."""
        return jt_einsum("pilj,pl->pij", self.chain.cotton, self.xi.truncate(0))

    @cached_property
    def p(self) -> JetTensor:
        """P_jk = (xi^b_{j,k} - xi^b_{k,j}) / 2 (skew part of dxi^b)."""
        return (self.dxi_flat - self.dxi_flat.transpose("pjk->pkj")) * 0.5

    @cached_property
    def p_up(self) -> JetTensor:
        """g^ab P_bk."""
        return jt_einsum("pab,pbk->pak", self.chain.ginv, self.p.truncate(0))

    @cached_property
    def dp(self) -> JetTensor:
        return self.chain.covariant_derivative(self.p, ("l", "l"))

    @cached_property
    def d2p(self) -> JetTensor:
        return self.chain.covariant_derivative(self.dp, ("l", "l", "l"))

    @cached_property
    def div_p(self) -> JetTensor:
        """g^ab P_ak,b, at order 0."""
        return jt_einsum("pab,pakb->pk", self.chain.ginv, self.dp.truncate(0))

    @cached_property
    def ginv_d2p(self) -> JetTensor:
        """g^qd P_qj,dk, laid out as [j, k]."""
        return jt_einsum("pqd,pqjdk->pjk", self.chain.ginv, self.d2p)

    @cached_property
    def ric_p_up(self) -> JetTensor:
        """R_ia g^ab P_bk."""
        return jt_einsum("pia,pak->pik", self.chain.ric, self.p_up)

    # -- scalar diagnostics -------------------------------------------------

    @cached_property
    def conformality(self) -> Residual:
        """|| xi^b_{i,j} + xi^b_{j,i} - 2 phi g_ij ||."""
        c = self.chain
        sym = self.dxi_flat + self.dxi_flat.transpose("pjk->pkj")
        resid = sym - jt_einsum("p,pij->pij", self.phi.truncate(0), c.g) * 2.0
        scale = c.norm(self.dxi_flat.value, ("l", "l"))
        return Residual(c.norm(resid.value, ("l", "l")), 2.0 * scale)

    @cached_property
    def closedness(self) -> Residual:
        """|| P ||, on the scale of || dxi^b ||."""
        c = self.chain
        return Residual(c.norm(self.p.value, ("l", "l")), c.norm(self.dxi_flat.value, ("l", "l")))

    @cached_property
    def is_closed(self) -> np.ndarray:
        """Whether the field is closed, at each point of the chunk."""
        return self.closedness.rel < CLOSED_REL_TOL

    # -- identities -----------------------------------------------------------

    def closed_identities(self) -> ResidualSet:
        """Residuals (a)-(e) of the closed/general conformal-field identities.

        (a) and (d)/(e) assume a closed field and are formed only where some
        point of the chunk is closed, and reported only there; (b) and (c)
        hold for any conformal field.
        """
        c = self.chain
        dphi = self.phi_analysis.df
        rxi = jt_einsum("plijk,pl->pijk", c.riemann13, self.xi_flat.truncate(0))
        gphi = jt_einsum("pij,pk->pijk", c.g, dphi)
        scale = c.norm(rxi.value, ("l",) * 3) + c.norm(gphi.value, ("l",) * 3)
        ric_xi = jt_einsum("pkl,pl->pk", c.ric, self.xi.truncate(0))
        # (b) general: R^l_ijk xi^b_l = g_ij phi_k - g_ik phi_j - P_jk,i
        rhs = gphi - gphi.transpose("pijk->pikj") - self.dp.transpose("pjki->pijk")
        # (c) divergence: g^ij P_jk,i = R_kl xi^l + (n-1) phi_k
        rhs_c = ric_xi + (self.n - 1.0) * dphi
        out = {
            "nabla_p": Residual(c.norm(rxi.value - rhs.value, ("l",) * 3), scale),
            "div_p": c.defect(self.div_p.value, rhs_c.value, ("l",)),
        }
        if not self.is_closed.any():
            return out
        # (a) nabla_i xi^j = phi delta^j_i
        dxi_vec = c.covariant_derivative(self.xi.truncate(1), ("u",))
        eye = JetTensor.const(dxi_vec.space, np.eye(self.n))
        resid_a = dxi_vec - jt_einsum("p,ji->pji", self.phi, eye)
        # (d) R(X, xi)Y identity: R^l_ijk xi^b_l - g_ij phi_k + g_ik phi_j = 0
        resid_d = rxi - gphi + gphi.transpose("pijk->pikj")
        # (e) Ric(xi) + (n-1) grad phi = 0
        resid_e = ric_xi + (self.n - 1.0) * dphi
        closed = self.is_closed
        return out | {
            "nabla_xi": Residual(c.norm(resid_a.value, ("u", "l")), c.norm(dxi_vec.value, ("u", "l")), closed),
            "curvature_xi": Residual(c.norm(resid_d.value, ("l",) * 3), scale, closed),
            "ric_xi": Residual(
                c.norm(resid_e.value, ("l",)),
                c.norm(ric_xi.value, ("l",)) + (self.n - 1.0) * c.norm(dphi.value, ("l",)),
                closed,
            ),
        }

    @cached_property
    def phi_tensor_jets(self) -> JetTensor:
        c = self.chain
        n = self.n
        term1 = -self.cotton_mid_xi.transpose("pki->pik")
        term2 = (
            jt_einsum("pi,pk->pik", c.dscalar, self.xi_flat.truncate(0))
            - jt_einsum("p,pik->pik", self.xi_of_r, c.g)
        ) * (-1.0 / (2.0 * (n - 1.0)))
        return term1 + term2 + self.ginv_d2p.transpose("pki->pik") + self.ric_p_up

    def firstthm_defect(self) -> Residual:
        """|| L*_g phi - Phi ||, the pointwise defect of the main identity."""
        return self.chain.defect(self.phi_analysis.lstar_f.value, self.phi_tensor_jets.value, ("l", "l"))

    def phi_symmetry_defect(self) -> Residual:
        phi_t = self.phi_tensor_jets
        resid = phi_t - phi_t.transpose("pik->pki")
        return Residual(self.chain.norm(resid.value, ("l", "l")), self.chain.norm(phi_t.value, ("l", "l")))

    def trace_identity_defect(self) -> Residual:
        """Delta phi + R phi/(n-1) + xi(R)/(2(n-1)) = 0."""
        c = self.chain
        n = self.n
        lap = self.phi_analysis.lap
        resid = lap + c.scalar_jet * self.phi.truncate(0) / (n - 1.0) + self.xi_of_r / (2.0 * (n - 1.0))
        scale = np.abs(lap.value) + np.abs(c.scalar_jet.value * self.phi.value / (n - 1.0))
        return Residual(np.abs(resid.value), scale)

    def ixi_cotton_defect(self) -> ResidualSet:
        """Residuals of i_xi C = dR wedge xi^b /(2(n-1)) - d delta d xi^b/2 + Ric(d xi^b).

        'general' checks the full coordinate identity
        C_ljk xi^l = (grad_j R xi^b_k - grad_k R xi^b_j)/(2(n-1))
                     + P_ij,ik - P_ik,ij + R_kl P_lj + P_kl R_lj;
        'closed_form' drops the P terms and is reported only where the field is closed.
        """
        c = self.chain
        lhs = self.cotton_xi.value
        wedge = jt_einsum("pj,pk->pjk", c.dscalar, self.xi_flat.truncate(0))
        dr_xi = (wedge - wedge.transpose("pjk->pkj")) * (1.0 / (2.0 * (self.n - 1.0)))
        rhs = dr_xi + self.ginv_d2p
        rhs = rhs - self.ginv_d2p.transpose("pkj->pjk")
        rhs = rhs + self.ric_p_up.transpose("pkj->pjk")
        ric_up = jt_einsum("pab,pbj->paj", c.ginv, c.ric.truncate(0))
        rhs = rhs + jt_einsum("pka,paj->pjk", self.p, ric_up)
        out = {"general": c.defect(lhs, rhs.value, ("l", "l"))}
        if self.is_closed.any():
            out["closed_form"] = replace(c.defect(lhs, dr_xi.value, ("l", "l")), where=self.is_closed)
        return out

    def cxi_contraction_defect(self) -> Residual:
        """|| C_ijk xi^i || (vanishes for closed fields with constant R)."""
        c = self.chain
        scale = c.norm(c.cotton.value, ("l",) * 3) * c.norm(self.xi.value, ("u",))
        return Residual(c.norm(self.cotton_xi.value, ("l", "l")), scale)

    def cxi_divergence_defect(self) -> Residual:
        """|| Xi_ik xi^i || with Xi the Cotton divergence."""
        c = self.chain
        contracted = jt_einsum("pik,pi->pk", c.cotton_divergence, self.xi)
        scale = c.norm(c.cotton_divergence.value, ("l", "l")) * c.norm(self.xi.value, ("u",))
        return Residual(c.norm(contracted.value, ("l",)), scale)


# -- built-in fields ------------------------------------------------------------


def sphere_gradient_field(m: int, r: float, axis: int) -> ConformalFieldSpec:
    """Gradient of the ambient height function y_axis on the stereographic chart.

    A closed (gradient) conformal field with characteristic function
    -y_axis / r^2.
    """
    height = sphere_height_potential(m, r, axis).builder
    _, conformal_factor = space_form(m, r, 1)

    def builder(coords):
        lam = conformal_factor(coords)
        inv_lam2 = 1.0 / (lam * lam)
        # xi^i = g^ij d_j f = lam^-2 d_i f; the partials come from f's own jet,
        # so the components live one jet order below the coordinates.
        df = height(coords).partials()
        return [inv_lam2 * JetTensor(df.space, df.data[..., i, :]) for i in range(m)]

    return ConformalFieldSpec(label=f"grad y_{axis} on S^{m}({r:g})", builder=builder)


def rotation_field(dim: int, i: int = 0, j: int = 1) -> ConformalFieldSpec:
    """Killing rotation x_i d_j - x_j d_i (Killing for any radial conformal factor)."""

    def builder(coords):
        zero = JetTensor.const(coords[0].space, 0.0)
        out = [zero] * dim
        out[j] = coords[i]
        out[i] = -coords[j]
        return out

    return ConformalFieldSpec(label=f"rotation({i},{j})", builder=builder)


def zero_field(dim: int) -> ConformalFieldSpec:
    def builder(coords):
        return [JetTensor.const(coords[0].space, 0.0)] * dim

    return ConformalFieldSpec(label="zero", builder=builder)
