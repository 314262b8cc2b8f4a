"""Experiment configuration: INI-style sections, strict schema.

[window] is the library's WindowSpec, and [wiener] lambda, checked by
``wiener.check_lambda``, is the one stabilizer every subcommand reads. The
[train] section is the record ``trainer.train`` reads and holds every rule
of its keys. Every key has a default and unknown sections or keys are
rejected. A section's keys are its annotated class attributes, holding their
defaults in file order; ``vars(section)`` lists its values. Each section is
built by its validating constructor at load, and ``replace`` (which a --seed
override uses too) runs the same checks, so a bad value fails for every
subcommand before any data or run directory is made, the [knn] set sizes
included; only settings that shape a subcommand's inputs (schedules, layer
widths, the other set sizes) are checked as it builds them. The effective
config is echoed into each run directory.
"""

from __future__ import annotations

import configparser
import io
import math
from pathlib import Path

from .diffusion import check_chain_args, check_gamma
from .errors import ConfigError, FrozenValue, check_seed
from .spectral import WindowSpec
from .wiener import check_lambda

__all__ = ["ExperimentConfig", "load_config"]


class Section(FrozenValue):
    """Built from its keys' defaults, overridden by the values given in key
    order or by key, then checked by the section's `_check`."""

    def __init__(self, *args, **values):
        keys = list(type(self).__annotations__)
        given = dict(zip(keys, args))
        if len(args) > len(keys) or given.keys() & values.keys() or not values.keys() <= set(keys):
            raise TypeError(f"{type(self).__name__} takes the keys {keys}, got {args} {values}")
        self._set(**{key: getattr(self, key) for key in keys} | given | values)
        self._check()


class WienerSection(Section):
    lam: float = 1.0  # INI key `lambda`

    def _check(self):
        check_lambda(self.lam)


class DiffusionSection(Section):
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

    def _check(self):
        check_chain_args(self.n_samples, self.init_variance, self.snapshot_stride, self.k_nearest)
        check_gamma(self.gamma)
        WindowSpec(self.penalty_family, self.penalty_b)


class KnnSection(Section):
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

    def _check(self):
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


class TrainSection(Section):
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

    def _check(self):
        if self.data_labels and not self.data_images:  # labels alone would be ignored
            raise ConfigError("[train] data_labels needs data_images")
        if self.loss not in ("mse", "wiener"):
            raise ConfigError(f"[train] loss must be mse or wiener, got {self.loss!r}")
        for key, low, high in (
            ("batch_size", 1, math.inf), ("epochs", 0, math.inf), ("learning_rate", 0, math.inf),
            ("beta1", 0, 1), ("beta2", 0, 1),
        ):
            value = getattr(self, key)
            if not (low <= value < high):
                raise ConfigError(f"[train] {key} must lie in [{low}, {high}), got {value}")
        if not (0 < self.eps < math.inf):
            raise ConfigError(f"[train] eps must be finite and > 0, got {self.eps}")
        check_seed(self.seed, "[train] seed")

    def width_tuple(self) -> tuple[int, ...]:
        try:
            return tuple(int(w) for w in self.widths.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad widths {self.widths!r}: {exc}") from exc


class RecoverSection(Section):
    stride: int = 2
    loss: str = "wiener"
    iterations: int = 400
    step_size: float = 0.0  # 0 -> per-loss default
    log_every: int = 1

    def _check(self):
        if self.loss not in ("mse", "wiener"):
            raise ConfigError(f"[recover] loss must be mse or wiener, got {self.loss!r}")
        for key, least in (("stride", 1), ("iterations", 0), ("log_every", 1), ("step_size", 0)):
            value = getattr(self, key)
            if not (least <= value < math.inf):
                raise ConfigError(f"[recover] {key} must be finite and >= {least}, got {value}")


class ExperimentConfig(Section):
    """The sections are its keys; every section is read-only, so the
    defaults are shared."""

    wiener: WienerSection = WienerSection()
    window: WindowSpec = WindowSpec("laplace", 2.0, 0.3)
    diffusion: DiffusionSection = DiffusionSection()
    knn: KnnSection = KnnSection()
    train: TrainSection = TrainSection()
    recover: RecoverSection = RecoverSection()

    def _check(self):
        # `replace` brings a --seed override through here too
        for name, section in vars(self).items():
            for key, value in vars(section).items():
                if key.endswith("seed"):
                    check_seed(value, f"[{name}] {key}")

    def to_ini(self) -> str:
        """Effective config as INI text (every key explicit)."""
        out = io.StringIO()
        for name, section in vars(self).items():
            out.write(f"[{name}]\n")
            for key, value in vars(section).items():
                out.write(f"{_key(key)} = {value}\n")
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

    updates = {}
    for section_name in parser.sections():
        if section_name not in vars(cfg):
            raise ConfigError(f"unknown config section [{section_name}]")
        default = getattr(cfg, section_name)
        # key types from the default values: WindowSpec has no defaults of its own
        types = {_key(attr): (attr, type(value)) for attr, value in vars(default).items()}
        section_updates = {}
        for key, raw in parser.items(section_name):
            if key not in types:
                raise ConfigError(f"unknown key {key!r} in section [{section_name}]")
            attr, target_type = types[key]
            try:
                section_updates[attr] = target_type(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section_name}] {key}: {exc}") from exc
        updates[section_name] = default.replace(**section_updates)
    return cfg.replace(**updates)
