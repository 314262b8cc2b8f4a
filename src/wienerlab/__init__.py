"""Full-lag matching filters for data comparison.

Comparison of equally shaped signals through the convolutional filter that
best maps one onto the other: a filter-identity loss with an analytic
gradient, a translation-invariant distance, and a non-parametric Langevin
generator, plus desk-scale experiment harnesses behind the ``wienerlab`` CLI.
"""

from .spectral import LagFilter, Signal, WindowSpec, make_window
from .wiener import WienerConfig, concentration, ti_distance, wiener_filter, wiener_loss
from .diffusion import EnergyModel, Schedule, Trajectory, cosine_schedule, run_diffusion
from .knn import DistanceSpec, LabeledSet, evaluate_accuracy, make_translated_set
from .trainer import forward
from .dataio import load_model

__version__ = "0.1.0"

__all__ = [
    "Signal",
    "LagFilter",
    "WindowSpec",
    "WienerConfig",
    "make_window",
    "wiener_filter",
    "wiener_loss",
    "ti_distance",
    "concentration",
    "EnergyModel",
    "Schedule",
    "Trajectory",
    "cosine_schedule",
    "run_diffusion",
    "LabeledSet",
    "DistanceSpec",
    "make_translated_set",
    "evaluate_accuracy",
    "forward",
    "load_model",
    "__version__",
]
