"""Numerical verification of curvature identities on warped-product metrics."""

from .geometry import (
    CurvatureBundle,
    MetricChart,
    SingularMetricError,
    curvature_bundle,
    interior_mult,
    kulkarni_nomizu,
)
from .jets import JetTensor
from .spaces import (
    ConformalFieldSpec,
    StaticPotentialSpec,
    WarpedProductSpec,
    make_basicex,
    make_hyperbolic_chart,
    make_product_chart,
    make_sphere_chart,
    make_warped_chart,
)
from .tensors import TensorValue

__version__ = "0.1.0"

__all__ = [
    "CurvatureBundle",
    "MetricChart",
    "SingularMetricError",
    "TensorValue",
    "JetTensor",
    "ConformalFieldSpec",
    "StaticPotentialSpec",
    "WarpedProductSpec",
    "curvature_bundle",
    "interior_mult",
    "kulkarni_nomizu",
    "make_basicex",
    "make_hyperbolic_chart",
    "make_product_chart",
    "make_sphere_chart",
    "make_warped_chart",
    "__version__",
]
