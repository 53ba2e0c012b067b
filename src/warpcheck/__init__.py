"""Numerical verification of curvature identities on warped-product metrics."""

from .geometry import CurvatureBundle, MetricChart, SingularMetricError
from .jets import JetTensor
from .spaces import (
    ConformalFieldSpec,
    StaticPotentialSpec,
    make_hyperbolic_chart,
    make_product_chart,
    make_sphere_chart,
)

__version__ = "0.1.0"

__all__ = [
    "CurvatureBundle",
    "MetricChart",
    "SingularMetricError",
    "JetTensor",
    "ConformalFieldSpec",
    "StaticPotentialSpec",
    "make_hyperbolic_chart",
    "make_product_chart",
    "make_sphere_chart",
    "__version__",
]
