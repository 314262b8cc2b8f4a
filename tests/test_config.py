import numpy as np
import pytest

from wienerlab.config import (
    DiffusionSection, ExperimentConfig, KnnSection, RecoverSection, TrainSection, WienerSection,
    load_config,
)
from wienerlab.diffusion import EnergyModel, Schedule, Trajectory
from wienerlab.errors import ConfigError
from wienerlab.knn import EvalResult
from wienerlab.spectral import WindowSpec


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


def test_wiener_section_holds_a_float_lambda_and_window_is_the_library_type(tmp_path):
    p = tmp_path / "c.ini"
    p.write_text("[wiener]\nlambda = 250\n[window]\nfamily = inverted_laplace\nb = 0.5\n")
    cfg = load_config(p)
    assert type(cfg.wiener.lam) is float and cfg.wiener.lam == 250.0
    assert cfg.window == WindowSpec("inverted_laplace", 0.5, 0.3)
    assert ExperimentConfig().window == WindowSpec("laplace", 2.0, 0.3)
    # [train] is the record the trainer reads, and lambda and the window stay in their sections
    train = ExperimentConfig().train
    assert type(train) is TrainSection and not {"lam", "whitening"} & vars(train).keys()


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


# config.ini of a run at the defaults, byte for byte; an empty value keeps the
# space after "=" (shown here as <empty>)
DEFAULT_INI = """\
[wiener]
lambda = 1.0

[window]
family = laplace
b = 2.0
epsilon = 0.3

[diffusion]
T = 200
alpha_start = 5.0
alpha_end = 0.01
beta_start = 0.001
beta_end = 0.08
gamma = 1.0
n_samples = 50
seed = 2024
init_variance = 1.0
snapshot_stride = 20
k_nearest = 1
penalty_family = inverted_laplace
penalty_b = 0.5
dataset = toy
n_defining = 8
dim = 8
separation = 2.0
spread = 0.15
data_seed = 7

[knn]
k = 10
baseline_k = 3
max_shift = 6
pad = 6
n_train = 500
n_test = 200
digit_size = 8
train_seed = 11
test_seed = 99
shift_seed = 2
data_images = <empty>
data_labels = <empty>

[train]
loss = wiener
batch_size = 32
learning_rate = 0.003
epochs = 100
beta1 = 0.9
beta2 = 0.999
eps = 1e-08
seed = 5
widths = 64,32,16,32,64
activation = mish
n_train = 500
digit_size = 8
data_seed = 3
data_images = <empty>
data_labels = <empty>

[recover]
stride = 2
loss = wiener
iterations = 400
step_size = 0.0
log_every = 1

""".replace("<empty>", "")


def test_default_config_echoes_the_same_bytes():
    assert ExperimentConfig().to_ini() == DEFAULT_INI


SECTIONS = [WienerSection, DiffusionSection, KnnSection, TrainSection, RecoverSection]
VALUES = [
    lambda: WindowSpec("laplace", 2.0),
    lambda: TrainSection(loss="mse", learning_rate=1e-3, seed=0),
    ExperimentConfig,
    *SECTIONS,
]
ARRAY_RECORDS = [
    lambda: EnergyModel(np.ones((2, 1, 4)), WindowSpec("laplace", 2.0), 1.0, 1.0),
    lambda: Schedule(np.ones(2), np.zeros(2)),
    lambda: Trajectory(np.zeros((1, 1, 1, 4)), np.zeros((1, 2)), np.zeros((1, 2)), np.zeros(1)),
    lambda: EvalResult(1.0, np.zeros((10, 10), dtype=int), [], 1.0),
]
RECORDS = [*VALUES, *ARRAY_RECORDS]


@pytest.mark.parametrize("make", RECORDS)
def test_records_are_read_only(make):
    record = make()
    name = next(iter(vars(record)))
    for change in (
        lambda: setattr(record, name, None), lambda: setattr(record, "extra", 1),
        lambda: delattr(record, name),
    ):
        with pytest.raises(AttributeError):
            change()
    assert name in vars(record) and "extra" not in vars(record)


@pytest.mark.parametrize("make", VALUES)
def test_value_records_compare_and_hash_by_value(make):
    first, second = make(), make()
    assert first == second and hash(first) == hash(second) and first is not second
    name, value = next(iter(vars(first).items()))
    assert first.replace(**{name: value}) == first
    assert first != object() and first.replace() is not first


@pytest.mark.parametrize("make", ARRAY_RECORDS)
def test_array_records_compare_by_identity(make):
    record = make()
    assert record == record and record != make()


def test_replace_runs_the_checks_again():
    with pytest.raises(ConfigError, match="k must be in 1..n_train=500, got 0"):
        KnnSection().replace(k=0)
    with pytest.raises(ConfigError, match=r"\[knn\] shift_seed must be >= 0, got -1"):
        ExperimentConfig().replace(knn=KnnSection(shift_seed=-1))
    with pytest.raises(ConfigError, match="unknown window family"):
        WindowSpec("laplace", 2.0).replace(family="gauss")


def test_sections_take_their_keys_in_order_or_by_name():
    assert RecoverSection(3, "mse") == RecoverSection(stride=3, loss="mse")
    assert RecoverSection(3).loss == "wiener"
    for args, kwargs in (((1,) * 6, {}), ((), {"strides": 2}), ((3,), {"stride": 3})):
        with pytest.raises(TypeError):
            RecoverSection(*args, **kwargs)
