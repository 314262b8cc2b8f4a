"""Full-lag matching filters for data comparison.

Comparison of equally shaped signals through the convolutional filter that
best maps one onto the other: a filter-identity loss with an analytic
gradient, a translation-invariant distance, and a non-parametric Langevin
generator, plus desk-scale experiment harnesses behind the ``wienerlab`` CLI.

Each public name is imported from its home module on first access (PEP 562),
so ``import wienerlab`` loads no NumPy and the CLI can cap the BLAS threads
before it does.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {
    "WindowSpec": "spectral",
    "make_window": "spectral",
    "wiener_filter": "wiener",
    "wiener_loss": "wiener",
    "ti_distance": "wiener",
    "concentration": "wiener",
    "EnergyModel": "diffusion",
    "Schedule": "diffusion",
    "Trajectory": "diffusion",
    "cosine_schedule": "diffusion",
    "run_diffusion": "diffusion",
    "LabeledSet": "knn",
    "make_translated_set": "knn",
    "evaluate_accuracy": "knn",
    "forward": "trainer",
    "load_model": "dataio",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
