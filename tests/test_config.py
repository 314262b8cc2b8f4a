import pytest

from wienerlab.config import ExperimentConfig, load_config
from wienerlab.errors import ConfigError
from wienerlab.spectral import WindowSpec
from wienerlab.wiener import WienerConfig


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
    p.write_text("[wiener]\nlambda = 0.25\n")
    assert load_config(p).wiener.lam == 0.25


def test_echo_reparses_to_same_config(tmp_path):
    cfg = ExperimentConfig()
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


def test_wiener_and_window_sections_are_the_library_types(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[wiener]\nlambda = 250\n[window]\nfamily = inverted_laplace\nb = 0.5\n")
    cfg = load_config(p)
    assert cfg.wiener == WienerConfig(lam=250.0)
    assert cfg.window == WindowSpec("inverted_laplace", 0.5, 0.3)
    assert ExperimentConfig().window == WindowSpec("laplace", 2.0, 0.3)


@pytest.mark.parametrize("section", ["knn", "train"])
def test_lambda_is_read_only_from_wiener(tmp_path, section):
    p = tmp_path / "c.ini"
    p.write_text(f"[{section}]\nlambda = 250\n")
    with pytest.raises(ConfigError, match="unknown key 'lambda'"):
        load_config(p)


@pytest.mark.parametrize(
    "text",
    [
        "[wiener]\nlambda = nan\n",
        "[wiener]\nlambda = -1\n",
        "[wiener]\nlambda = inf\n",
        "[window]\nb = -1\n",
        "[window]\nb = nan\n",
        "[window]\nepsilon = -0.5\n",
        "[window]\nfamily = gaussian\n",
        "[recover]\nloss = huber\n",
        "[recover]\niterations = -3\n",
        "[recover]\nstride = 0\n",
        "[recover]\nstep_size = nan\n",
        "[recover]\nstep_size = -1\n",
        "[knn]\nk = 0\n",
        "[diffusion]\nk_nearest = 0\n",
        "[diffusion]\ninit_variance = nan\n",
        "[diffusion]\ngamma = -1\n",
        "[diffusion]\ngamma = inf\n",
        "[diffusion]\npenalty_family = nope\n",
        "[diffusion]\npenalty_b = 0\n",
        "[train]\nbatch_size = 0\n",
        "[train]\nlearning_rate = nan\n",
        "[train]\nloss = huber\n",
        "[knn]\nn_train = 20\nbaseline_k = 50\n",
        # labels without images would be ignored for the built-in digits
        "[knn]\ndata_labels = nope\n",
        "[train]\ndata_labels = /nonexist\n",
        "[wiener]\nlambda = 5%\n",
        # configparser would merge [DEFAULT] keys into every section, or ignore them
        "[DEFAULT]\nlambda = 5\n",
        "[DEFAULT]\n[wiener]\nlambda = 2\n",
    ],
    ids=lambda text: text.replace("\n", " ").strip(),
)
def test_bad_value_fails_at_load(tmp_path, text):
    p = tmp_path / "c.ini"
    p.write_text(text)
    with pytest.raises(ConfigError):
        load_config(p)


def test_percent_sign_is_kept_verbatim(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[diffusion]\ndataset = images-100%.idx\n")
    cfg = load_config(p)
    assert cfg.diffusion.dataset == "images-100%.idx"
    p.write_text(cfg.to_ini())
    assert load_config(p) == cfg


def test_undecodable_config_rejected(tmp_path):
    p = tmp_path / "c.ini"
    p.write_bytes(b"[wiener]\nlambda = \xff\xfe\n")
    with pytest.raises(ConfigError):
        load_config(p)


@pytest.mark.parametrize(
    "section, key",
    [
        ("diffusion", "seed"), ("diffusion", "data_seed"), ("knn", "train_seed"),
        ("knn", "test_seed"), ("knn", "shift_seed"), ("train", "seed"), ("train", "data_seed"),
    ],
)
def test_negative_seed_fails_at_load(tmp_path, section, key):
    p = tmp_path / "c.ini"
    p.write_text(f"[{section}]\n{key} = -1\n")
    with pytest.raises(ConfigError, match=f"{key} must be >= 0, got -1"):
        load_config(p)
