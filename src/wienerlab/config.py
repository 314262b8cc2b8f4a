"""Experiment configuration: INI-style sections, strict schema.

[wiener] and [window] are the library's WienerConfig and WindowSpec, and
[wiener] lambda is the one stabilizer that every subcommand reads. Every key
has a default and unknown sections or keys are rejected. Each section is
built by its validating constructor at load, so a bad value fails for every
subcommand before any data or run directory is made, the [knn] set sizes
included; only settings that shape a subcommand's inputs (schedules, layer
widths, the other set sizes) are checked as it builds them. The effective
config is echoed into each run directory.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .diffusion import check_chain_args, check_gamma
from .errors import ConfigError, check_seed
from .spectral import WindowSpec
from .trainer import TrainConfig
from .wiener import WienerConfig

__all__ = ["ExperimentConfig", "load_config"]


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

    def __post_init__(self):
        check_chain_args(self.n_samples, self.init_variance, self.snapshot_stride, self.k_nearest)
        check_gamma(self.gamma)
        WindowSpec(self.penalty_family, self.penalty_b)


@dataclass(frozen=True)
class KnnSection:
    k: int = 10
    baseline_k: int = 3
    max_shift: int = 6
    pad: int = 6
    n_train: int = 500
    n_test: int = 200
    digit_size: int = 8
    train_seed: int = 11
    test_seed: int = 99
    shift_seed: int = 2
    data_images: str = ""
    data_labels: str = ""

    def __post_init__(self):
        if self.data_labels and not self.data_images:  # labels alone would be ignored
            raise ConfigError("[knn] data_labels needs data_images")
        for key in ("n_train", "n_test"):
            value = getattr(self, key)
            if value < 1:
                raise ConfigError(f"[knn] {key} must be >= 1, got {value}")
        for key in ("k", "baseline_k"):
            value = getattr(self, key)
            if not (1 <= value <= self.n_train):
                raise ConfigError(f"[knn] {key} must be in 1..n_train={self.n_train}, got {value}")


@dataclass(frozen=True)
class TrainSection:
    loss: str = "wiener"
    batch_size: int = 32
    learning_rate: float = 3e-3
    epochs: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 5
    widths: str = "64,32,16,32,64"
    activation: str = "mish"
    n_train: int = 500
    digit_size: int = 8
    data_seed: int = 3
    data_images: str = ""
    data_labels: str = ""

    def __post_init__(self):
        if self.data_labels and not self.data_images:  # labels alone would be ignored
            raise ConfigError("[train] data_labels needs data_images")
        self.trainer_config()  # TrainConfig checks the shared fields

    def trainer_config(self, **rest) -> TrainConfig:
        """TrainConfig from the fields it shares with this section by name, plus `rest`."""
        names = [f.name for f in fields(TrainConfig) if hasattr(self, f.name)]
        return TrainConfig(**{name: getattr(self, name) for name in names}, **rest)

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
        if self.loss not in ("mse", "wiener"):
            raise ConfigError(f"[recover] loss must be mse or wiener, got {self.loss!r}")
        for key, least in (("stride", 1), ("iterations", 0), ("log_every", 1), ("step_size", 0)):
            value = getattr(self, key)
            if not (least <= value < math.inf):
                raise ConfigError(f"[recover] {key} must be finite and >= {least}, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    wiener: WienerConfig = field(default_factory=WienerConfig)
    window: WindowSpec = field(default_factory=lambda: WindowSpec("laplace", 2.0, 0.3))
    diffusion: DiffusionSection = field(default_factory=DiffusionSection)
    knn: KnnSection = field(default_factory=KnnSection)
    train: TrainSection = field(default_factory=TrainSection)
    recover: RecoverSection = field(default_factory=RecoverSection)

    def __post_init__(self):
        # dataclasses.replace brings a --seed override through here too
        for section in fields(self):
            for key, value in vars(getattr(self, section.name)).items():
                if key.endswith("seed"):
                    check_seed(value, f"[{section.name}] {key}")

    def to_ini(self) -> str:
        """Effective config as INI text (every key explicit)."""
        out = io.StringIO()
        for section in fields(self):
            values = getattr(self, section.name)
            out.write(f"[{section.name}]\n")
            for f in fields(values):
                out.write(f"{_key(f.name)} = {getattr(values, f.name)}\n")
            out.write("\n")
        return out.getvalue()


def _key(attr: str) -> str:
    return "lambda" if attr == "lam" else attr


def load_config(path=None) -> ExperimentConfig:
    """Parse an INI config file over the defaults; None gives pure defaults."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    # no default section: [DEFAULT] is an unknown section, never merged into the others
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # preserve key case, e.g. diffusion T
    try:
        parser.read_string(Path(path).read_text(), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    sections = {f.name for f in fields(cfg)}
    updates = {}
    for section_name in parser.sections():
        if section_name not in sections:
            raise ConfigError(f"unknown config section [{section_name}]")
        default = getattr(cfg, section_name)
        # key types from the default values: WindowSpec has no field defaults
        types = {_key(f.name): (f.name, type(getattr(default, f.name))) for f in fields(default)}
        section_updates = {}
        for key, raw in parser.items(section_name):
            if key not in types:
                raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
            attr, target_type = types[key]
            try:
                section_updates[attr] = target_type(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section_name}] {key}: {exc}") from exc
        updates[section_name] = replace(default, **section_updates)
    return replace(cfg, **updates)
