"""Full-lag matching filters for data comparison.

Comparison of equally shaped signals through the convolutional filter that
best maps one onto the other: a filter-identity loss with an analytic
gradient, a translation-invariant distance, and a non-parametric Langevin
generator, plus desk-scale experiment harnesses behind the ``wienerlab`` CLI.
"""

from .spectral import (
    LagFilter,
    LagGrid,
    Signal,
    WindowSpec,
    make_window,
    pad_to_full_lag,
)
from .wiener import (
    WienerConfig,
    concentration,
    delta_filter,
    ti_distance,
    wiener_filter,
    wiener_filter_direct,
    wiener_loss,
)
from .gradients import (
    GradientResult,
    check_gradient,
    grad_energy,
    grad_wiener_loss,
)
from .diffusion import EnergyModel, Schedule, Trajectory, cosine_schedule, energy, run_diffusion
from .knn import DistanceSpec, LabeledSet, evaluate_accuracy, make_translated_set

__version__ = "0.1.0"

__all__ = [
    "Signal",
    "LagGrid",
    "LagFilter",
    "WindowSpec",
    "WienerConfig",
    "pad_to_full_lag",
    "make_window",
    "delta_filter",
    "wiener_filter",
    "wiener_filter_direct",
    "wiener_loss",
    "ti_distance",
    "concentration",
    "GradientResult",
    "grad_wiener_loss",
    "grad_energy",
    "check_gradient",
    "EnergyModel",
    "Schedule",
    "Trajectory",
    "cosine_schedule",
    "energy",
    "run_diffusion",
    "LabeledSet",
    "DistanceSpec",
    "make_translated_set",
    "evaluate_accuracy",
    "__version__",
]
