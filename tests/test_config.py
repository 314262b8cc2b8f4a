import pytest

from wienerlab.config import default_config, load_config
from wienerlab.errors import ConfigError


def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg.wiener.lam == 1.0
    assert cfg.diffusion.T == 200
    assert cfg.knn.k == 10
    assert cfg.train.width_tuple() == (64, 32, 16, 32, 64)


def test_parse_overrides(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text(
        """
[wiener]
lambda = 250

[diffusion]
T = 400
alpha_start = 3000
alpha_end = 300
beta_start = 0.1
beta_end = 4

[train]
loss = mse
epochs = 7
"""
    )
    cfg = load_config(p)
    assert cfg.wiener.lam == 250.0
    assert cfg.diffusion.T == 400
    assert cfg.diffusion.alpha_start == 3000.0
    assert cfg.train.loss == "mse"
    assert cfg.train.epochs == 7
    # untouched sections keep defaults
    assert cfg.knn.k == 10


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[optimizer]\nlr = 1\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[wiener]\nlambada = 1\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_bad_value_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[diffusion]\nT = soon\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_lambda_alias_maps_to_lam(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[knn]\nlambda = 0.25\n")
    assert load_config(p).knn.lam == 0.25


def test_echo_reparses_to_same_config(tmp_path):
    cfg = default_config()
    p = tmp_path / "echo.ini"
    p.write_text(cfg.to_ini())
    again = load_config(p)
    assert again == cfg


def test_case_preserved_for_T(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[diffusion]\nT = 42\n")
    assert load_config(p).diffusion.T == 42


def test_recover_log_every_zero_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[recover]\nlog_every = 0\n")
    with pytest.raises(ConfigError):
        load_config(p)
