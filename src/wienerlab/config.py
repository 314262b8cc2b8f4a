"""Experiment configuration: INI-style sections per module, strict schema.

Every key has a default; unknown sections or keys are rejected up front so
runs never start from a half-understood config. The effective (fully
defaulted) config is echoed into each run directory for reproducibility.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError
from .spectral import WindowSpec

__all__ = ["ExperimentConfig", "load_config", "default_config"]


@dataclass(frozen=True)
class WienerSection:
    lam: float = 1.0


@dataclass(frozen=True)
class WindowSection:
    family: str = "laplace"
    b: float = 2.0
    epsilon: float = 0.3

    def spec(self) -> WindowSpec:
        return WindowSpec(self.family, self.b, self.epsilon)


@dataclass(frozen=True)
class DiffusionSection:
    T: int = 200
    alpha_start: float = 5.0
    alpha_end: float = 0.01
    beta_start: float = 0.001
    beta_end: float = 0.08
    gamma: float = 1.0
    n_samples: int = 50
    seed: int = 2024
    init_variance: float = 1.0
    snapshot_stride: int = 20
    k_nearest: int = 1
    penalty_family: str = "inverted_laplace"
    penalty_b: float = 0.5
    dataset: str = "toy"  # "toy" | "digits" | path to an IDX image file
    n_defining: int = 8
    dim: int = 8
    separation: float = 2.0
    spread: float = 0.15
    data_seed: int = 7


@dataclass(frozen=True)
class KnnSection:
    k: int = 10
    baseline_k: int = 3
    max_shift: int = 6
    pad: int = 6
    n_train: int = 500
    n_test: int = 200
    lam: float = 1.0
    digit_size: int = 8
    train_seed: int = 11
    test_seed: int = 99
    shift_seed: int = 2
    data_images: str = ""
    data_labels: str = ""


@dataclass(frozen=True)
class TrainSection:
    loss: str = "wiener"
    batch_size: int = 32
    learning_rate: float = 3e-3
    epochs: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lam: float = 1.0
    seed: int = 5
    widths: str = "64,32,16,32,64"
    activation: str = "mish"
    n_train: int = 500
    digit_size: int = 8
    data_seed: int = 3
    data_images: str = ""
    data_labels: str = ""

    def width_tuple(self) -> tuple[int, ...]:
        try:
            return tuple(int(w) for w in self.widths.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad widths {self.widths!r}: {exc}") from exc


@dataclass(frozen=True)
class RecoverSection:
    stride: int = 2
    loss: str = "wiener"
    iterations: int = 400
    step_size: float = 0.0  # 0 -> per-loss default
    log_every: int = 1

    def __post_init__(self):
        if not (self.log_every >= 1):
            raise ConfigError(f"[recover] log_every must be >= 1, got {self.log_every}")


@dataclass(frozen=True)
class ExperimentConfig:
    wiener: WienerSection = field(default_factory=WienerSection)
    window: WindowSection = field(default_factory=WindowSection)
    diffusion: DiffusionSection = field(default_factory=DiffusionSection)
    knn: KnnSection = field(default_factory=KnnSection)
    train: TrainSection = field(default_factory=TrainSection)
    recover: RecoverSection = field(default_factory=RecoverSection)

    def to_ini(self) -> str:
        """Effective config as INI text (every key explicit)."""
        out = io.StringIO()
        for section_name in _SECTION_TYPES:
            section = getattr(self, section_name)
            out.write(f"[{section_name}]\n")
            for f in fields(section):
                key = "lambda" if f.name == "lam" else f.name
                out.write(f"{key} = {getattr(section, f.name)}\n")
            out.write("\n")
        return out.getvalue()


_SECTION_TYPES = {
    "wiener": WienerSection,
    "window": WindowSection,
    "diffusion": DiffusionSection,
    "knn": KnnSection,
    "train": TrainSection,
    "recover": RecoverSection,
}


def _coerce(section: str, key: str, raw: str, target_type: type):
    try:
        if target_type is bool:
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return target_type(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def load_config(path=None) -> ExperimentConfig:
    """Parse an INI config file over the defaults; None gives pure defaults."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    parser.optionxform = str  # preserve key case, e.g. diffusion T
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    updates = {}
    for section_name in parser.sections():
        if section_name not in _SECTION_TYPES:
            raise ConfigError(f"unknown config section [{section_name}]")
        section_type = _SECTION_TYPES[section_name]
        known = {f.name: f.type for f in fields(section_type)}
        type_map = {f.name: type(getattr(section_type(), f.name)) for f in fields(section_type)}
        section_updates = {}
        for key, raw in parser.items(section_name):
            attr = "lam" if key == "lambda" else key
            if attr not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
            section_updates[attr] = _coerce(section_name, key, raw, type_map[attr])
        updates[section_name] = replace(getattr(cfg, section_name), **section_updates)
    return replace(cfg, **updates)
