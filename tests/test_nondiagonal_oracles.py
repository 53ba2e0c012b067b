"""Universal curvature identities on random non-diagonal metrics.

Every catalog chart is diagonal.  The metrics here,

    g_ij = delta_ij + 0.1 A_ij cos(B_ij . x),   A, B symmetric in (i, j),

fill every off-diagonal slot, and are checked against identities that hold
on every metric, so they need no closed form: first Bianchi, contracted
second Bianchi, the Cotton tensor's trace and cyclic sum, and the trace of
the Cotton divergence.  The perturbation is at most 0.1 an entry, so g stays
diagonally dominant and positive definite.  Each defect is measured in the
frame norm against the size of the tensor it comes from.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcheck.geometry import CurvatureBundle, MetricChart

DIM = 4
ORDER = 4  # the Cotton divergence takes four derivatives of the metric
TOL = 1e-12
PAIRS = [(i, j) for i in range(DIM) for j in range(i, DIM)]

unit = st.floats(-1.0, 1.0, allow_nan=False)


def _chart(amps, freqs) -> MetricChart:
    def builder(coords):
        rows = [[1.0 if i == j else 0.0 for j in range(DIM)] for i in range(DIM)]
        for (i, j), amp, freq in zip(PAIRS, amps, freqs):
            phase = sum(2.0 * f * c for f, c in zip(freq, coords))
            rows[i][j] = rows[j][i] = rows[i][j] + 0.1 * amp * phase.elem("cos")
        return rows

    return MetricChart(DIM, "random non-diagonal", builder, (np.full(DIM, -1.0), np.full(DIM, 1.0)))


@st.composite
def bundles(draw) -> CurvatureBundle:
    amps = draw(st.lists(unit, min_size=len(PAIRS), max_size=len(PAIRS)))
    freqs = draw(st.lists(st.lists(unit, min_size=DIM, max_size=DIM), min_size=len(PAIRS), max_size=len(PAIRS)))
    point = draw(st.lists(unit, min_size=DIM, max_size=DIM))
    return CurvatureBundle(_chart(amps, freqs), np.array(point), order=ORDER)


def _cyclic(t: np.ndarray, spec: str) -> np.ndarray:
    """The sum of t over the cyclic permutations of its last three indices, ``spec`` naming all of them."""
    first, (i, j, k) = spec[:-3], spec[-3:]
    return t + np.einsum(f"{first}{j}{k}{i}->{spec}", t) + np.einsum(f"{first}{k}{i}{j}->{spec}", t)


def _holds(defect: float, scale: float) -> bool:
    return defect <= TOL * scale


@settings(max_examples=20, deadline=None)
@given(b=bundles())
def test_first_bianchi(b):
    """R^l_ijk + R^l_jki + R^l_kij = 0."""
    r = b.riemann13.value
    variance = ("u", "l", "l", "l")
    assert _holds(b.norm(_cyclic(r, "lijk"), variance), b.norm(r, variance))


@settings(max_examples=20, deadline=None)
@given(b=bundles())
def test_contracted_second_bianchi(b):
    """g^jk Ric_ij,k = d_i R / 2."""
    div_ric = np.einsum("jk,ijk->i", b.ginv0, b.covariant_derivative(b.ric, ("l", "l")).value)
    half_dr = 0.5 * b.dscalar.value
    defect = b.defect(div_ric, half_dr, ("l",))
    assert _holds(defect.abs, defect.scale)


@settings(max_examples=20, deadline=None)
@given(b=bundles())
def test_cotton_trace_free(b):
    """g^ij C_ijk = 0 (the trace over j, k vanishes by skew symmetry)."""
    c = b.cotton.value
    trace = np.einsum("ij,ijk->k", b.ginv0, c)
    assert _holds(b.norm(trace, ("l",)), b.norm(c, ("l",) * 3))


@settings(max_examples=20, deadline=None)
@given(b=bundles())
def test_cotton_cyclic(b):
    """C_ijk + C_jki + C_kij = 0."""
    c = b.cotton.value
    assert _holds(b.norm(_cyclic(c, "ijk"), ("l",) * 3), b.norm(c, ("l",) * 3))


@settings(max_examples=20, deadline=None)
@given(b=bundles())
def test_cotton_divergence_trace_free(b):
    """g^ik Xi_ik = 0."""
    xi = b.cotton_divergence.value
    assert _holds(abs(float(np.einsum("ik,ik->", b.ginv0, xi))), b.norm(xi, ("l", "l")))
