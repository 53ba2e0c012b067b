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

from functools import cached_property

import numpy as np

from .geometry import CurvatureBundle
from .jets import JetTensor, jt_einsum
from .residuals import PreconditionSkip, Residual, ResidualSet
from .spaces import ConformalFieldSpec, StaticPotentialSpec, space_form, sphere_height_potential
from .statics import StaticAnalysis

__all__ = [
    "ConformalAnalysis",
    "sphere_gradient_field",
    "rotation_field",
    "zero_field",
    "CLOSED_REL_TOL",
]

CLOSED_REL_TOL = 1e-9


class ConformalAnalysis:
    """Analysis of one conformal field at one point of one chart, as jets."""

    def __init__(self, bundle: CurvatureBundle, xi: ConformalFieldSpec):
        self.bundle = bundle
        self.spec = xi
        self.n = bundle.dim

    # -- field jets -------------------------------------------------------

    @cached_property
    def xi(self) -> JetTensor:
        return self.bundle.vector_field(self.spec.builder)

    @cached_property
    def xi_flat(self) -> JetTensor:
        """xi^b to order 3 at most: the deepest read, d2P, differentiates it three times."""
        return jt_einsum("ij,j->i", self.bundle.g, self.xi.truncate(min(self.xi.order, 3)))

    @cached_property
    def dxi_flat(self) -> JetTensor:
        """xi^b_{j,i} laid out as [j, i] (derivative index last)."""
        return self.bundle.covariant_derivative(self.xi_flat, ("l",))

    @cached_property
    def phi(self) -> JetTensor:
        """Characteristic function phi = div(xi)/n as a jet field."""
        return jt_einsum("ji,ji->", self.bundle.ginv, self.dxi_flat) / float(self.n)

    @cached_property
    def phi_analysis(self) -> StaticAnalysis:
        """phi as a potential: its dphi, grad phi, Hessian, Laplacian and L*_g phi."""
        return StaticAnalysis(self.bundle, StaticPotentialSpec("phi", None), self.phi)

    @cached_property
    def xi_of_r(self) -> JetTensor:
        """xi(R) = xi^l d_l R."""
        return jt_einsum("l,l->", self.xi.truncate(0), self.bundle.dscalar)

    @cached_property
    def cotton_xi(self) -> JetTensor:
        """i_xi C: C_ljk xi^l."""
        return jt_einsum("ljk,l->jk", self.bundle.cotton, self.xi.truncate(0))

    @cached_property
    def cotton_mid_xi(self) -> JetTensor:
        """C(., xi, .): C_ilj xi^l."""
        return jt_einsum("ilj,l->ij", self.bundle.cotton, self.xi.truncate(0))

    @cached_property
    def p(self) -> JetTensor:
        """P_jk = (xi^b_{j,k} - xi^b_{k,j}) / 2 (skew part of dxi^b)."""
        return (self.dxi_flat - self.dxi_flat.transpose("jk->kj")) * 0.5

    @cached_property
    def p_up(self) -> JetTensor:
        """g^ab P_bk."""
        return jt_einsum("ab,bk->ak", self.bundle.ginv, self.p.truncate(0))

    @cached_property
    def dp(self) -> JetTensor:
        return self.bundle.covariant_derivative(self.p, ("l", "l"))

    @cached_property
    def d2p(self) -> JetTensor:
        return self.bundle.covariant_derivative(self.dp, ("l", "l", "l"))

    @cached_property
    def div_p(self) -> JetTensor:
        """g^ab P_ak,b, at order 0."""
        return jt_einsum("ab,akb->k", self.bundle.ginv, self.dp.truncate(0))

    @cached_property
    def ginv_d2p(self) -> JetTensor:
        """g^pd P_pj,dk, laid out as [j, k]."""
        return jt_einsum("pd,pjdk->jk", self.bundle.ginv, self.d2p)

    @cached_property
    def ric_p_up(self) -> JetTensor:
        """R_ia g^ab P_bk."""
        return jt_einsum("ia,ak->ik", self.bundle.ric, self.p_up)

    # -- scalar diagnostics -------------------------------------------------

    def conformal_defect(self) -> Residual:
        """|| xi^b_{i,j} + xi^b_{j,i} - 2 phi g_ij ||."""
        sym = self.dxi_flat + self.dxi_flat.transpose("jk->kj")
        resid = sym - jt_einsum(",ij->ij", self.phi.truncate(0), self.bundle.g) * 2.0
        scale = self.bundle.norm(self.dxi_flat.value, ("l", "l"))
        return Residual(self.bundle.norm(resid.value, ("l", "l")), 2.0 * scale)

    def closedness_defect(self) -> Residual:
        return Residual(
            self.bundle.norm(self.p.value, ("l", "l")),
            self.bundle.norm(self.dxi_flat.value, ("l", "l")),
        )

    @cached_property
    def is_closed(self) -> bool:
        return self.closedness_defect().rel < CLOSED_REL_TOL

    # -- identities -----------------------------------------------------------

    def closed_identities(self) -> ResidualSet:
        """Residuals (a)-(e) of the closed/general conformal-field identities.

        (a) and (d)/(e) assume a closed field and are reported only when the
        closedness defect passes; (b) and (c) hold for any conformal field.
        """
        b = self.bundle
        out: ResidualSet = {}
        closed = self.is_closed

        # (b) general: R^l_ijk xi^b_l = g_ij phi_k - g_ik phi_j - P_jk,i
        rxi = jt_einsum("lijk,l->ijk", b.riemann13, self.xi_flat.truncate(0))
        dphi = self.phi_analysis.df
        gphi = jt_einsum("ij,k->ijk", b.g, dphi)
        rhs = gphi - gphi.transpose("ijk->ikj") - self.dp.transpose("jki->ijk")
        scale = b.norm(rxi.value, ("l",) * 3) + b.norm(gphi.value, ("l",) * 3)
        out["nabla_p"] = Residual(b.norm(rxi.value - rhs.value, ("l",) * 3), scale)

        # (c) divergence: g^ij P_jk,i = R_kl xi^l + (n-1) phi_k
        ric_xi = jt_einsum("kl,l->k", b.ric, self.xi.truncate(0))
        rhs_c = ric_xi + (self.n - 1.0) * dphi
        out["div_p"] = b.defect(self.div_p.value, rhs_c.value, ("l",))

        if closed:
            # (a) nabla_i xi^j = phi delta^j_i
            dxi_vec = b.covariant_derivative(self.xi.truncate(1), ("u",))
            eye = JetTensor.const(dxi_vec.space, np.eye(self.n))
            resid_a = dxi_vec - jt_einsum(",ji->ji", self.phi, eye)
            out["nabla_xi"] = Residual(
                b.norm(resid_a.value, ("u", "l")), b.norm(dxi_vec.value, ("u", "l"))
            )

            # (d) R(X, xi)Y identity: R^l_ijk xi^b_l - g_ij phi_k + g_ik phi_j = 0
            resid_d = rxi - gphi + gphi.transpose("ijk->ikj")
            out["curvature_xi"] = Residual(b.norm(resid_d.value, ("l",) * 3), scale)

            # (e) Ric(xi) + (n-1) grad phi = 0
            resid_e = ric_xi + (self.n - 1.0) * dphi
            out["ric_xi"] = Residual(
                b.norm(resid_e.value, ("l",)),
                b.norm(ric_xi.value, ("l",)) + (self.n - 1.0) * b.norm(dphi.value, ("l",)),
            )
        return out

    @cached_property
    def phi_tensor_jets(self) -> JetTensor:
        b = self.bundle
        n = self.n
        term1 = -self.cotton_mid_xi.transpose("ki->ik")
        term2 = (
            jt_einsum("i,k->ik", b.dscalar, self.xi_flat.truncate(0)) - jt_einsum(",ik->ik", self.xi_of_r, b.g)
        ) * (-1.0 / (2.0 * (n - 1.0)))
        return term1 + term2 + self.ginv_d2p.transpose("ki->ik") + self.ric_p_up

    def firstthm_defect(self) -> Residual:
        """|| L*_g phi - Phi ||, the pointwise defect of the main identity."""
        return self.bundle.defect(self.phi_analysis.lstar_f.value, self.phi_tensor_jets.value, ("l", "l"))

    def phi_symmetry_defect(self) -> Residual:
        phi_t = self.phi_tensor_jets
        resid = phi_t - phi_t.transpose("ik->ki")
        return Residual(self.bundle.norm(resid.value, ("l", "l")), self.bundle.norm(phi_t.value, ("l", "l")))

    def trace_identity_defect(self) -> Residual:
        """Delta phi + R phi/(n-1) + xi(R)/(2(n-1)) = 0."""
        b = self.bundle
        n = self.n
        lap = self.phi_analysis.lap
        resid = lap + b.scalar_jet * self.phi.truncate(0) / (n - 1.0) + self.xi_of_r / (2.0 * (n - 1.0))
        scale = abs(float(lap.value)) + abs(b.scalar * float(self.phi.value) / (n - 1.0))
        return Residual(abs(float(resid.value)), scale)

    def ixi_cotton_defect(self) -> ResidualSet:
        """Residuals of i_xi C = dR wedge xi^b /(2(n-1)) - d delta d xi^b/2 + Ric(d xi^b).

        'general' checks the full coordinate identity
        C_ljk xi^l = (grad_j R xi^b_k - grad_k R xi^b_j)/(2(n-1))
                     + P_ij,ik - P_ik,ij + R_kl P_lj + P_kl R_lj;
        'closed_form' drops the P terms and is reported only for a closed field.
        """
        b = self.bundle
        lhs = self.cotton_xi.value
        wedge = jt_einsum("j,k->jk", b.dscalar, self.xi_flat.truncate(0))
        dr_xi = (wedge - wedge.transpose("jk->kj")) * (1.0 / (2.0 * (self.n - 1.0)))
        rhs = dr_xi + self.ginv_d2p
        rhs = rhs - self.ginv_d2p.transpose("kj->jk")
        rhs = rhs + self.ric_p_up.transpose("kj->jk")
        ric_up = jt_einsum("ab,bj->aj", b.ginv, b.ric.truncate(0))
        rhs = rhs + jt_einsum("ka,aj->jk", self.p, ric_up)
        out = {"general": b.defect(lhs, rhs.value, ("l", "l"))}
        if self.is_closed:
            out["closed_form"] = b.defect(lhs, dr_xi.value, ("l", "l"))
        return out

    def cxi_contraction_defect(self) -> Residual:
        """|| C_ijk xi^i || (vanishes for closed fields with constant R)."""
        b = self.bundle
        scale = b.norm(b.cotton.value, ("l",) * 3) * b.norm(self.xi.value, ("u",))
        return Residual(b.norm(self.cotton_xi.value, ("l", "l")), scale)

    def cxi_divergence_defect(self) -> Residual:
        """|| Xi_ik xi^i || with Xi the Cotton divergence."""
        if not self.is_closed:
            raise PreconditionSkip(
                f"field {self.spec.label!r} is not closed (defect {self.closedness_defect().rel:.2e})"
            )
        b = self.bundle
        contracted = jt_einsum("ik,i->k", b.cotton_divergence, self.xi)
        scale = b.norm(b.cotton_divergence.value, ("l", "l")) * b.norm(self.xi.value, ("u",))
        return Residual(b.norm(contracted.value, ("l",)), scale)


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
