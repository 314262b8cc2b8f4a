"""Property tests of the input boundary: INI values, PGM, IDX and model bytes.

Whatever the input, a subcommand ends in exit 0, 2, 3 or 4 without a
traceback, and a reader returns its result or raises a library error. A
`loss` run that exits 0 has written finite values without a numpy warning.
"""

import gzip
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wienerlab.cli import main
from wienerlab.config import ExperimentConfig, _key
from wienerlab.dataio import ingest_idx, load_model, save_model, write_pgm
from wienerlab.errors import WienerlabError
from wienerlab.trainer import DenseAutoencoder

EXIT_CODES = {0, 2, 3, 4}

# derandomized, so every run draws the same examples; the image and file
# fixtures are written once and only read by the examples
FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

NUMBER = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e309", "5e-324", "-0.0"]),
    st.integers(-(10**6), 10**6).map(str),
)
VALUE = st.one_of(
    NUMBER,
    st.sampled_from(["laplace", "inverted_laplace", "", "5%", "%(b)s", "1,2", "0x10"]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=12),
)
KEYS = {
    "wiener": ["lambda", "lam", "direction"],
    "window": ["family", "b", "epsilon", "lambda", "width"],
    "diffusion": ["penalty_family", "penalty_b", "gamma"],
}


@st.composite
def wiener_and_window_ini(draw) -> str:
    lines = []
    for section, keys in KEYS.items():
        if draw(st.booleans()):
            lines.append(f"[{section}]")
            for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)):
                lines.append(f"{key} = {draw(VALUE)}")
    return "\n".join(lines) + "\n"


@st.composite
def corrupted(draw, valid: bytes, header: int) -> bytes:
    """`valid` with a few bytes overwritten, then possibly cut short and
    extended; overwrites and cuts favour its first `header` bytes."""
    raw = bytearray(valid)
    position = st.one_of(st.integers(0, header - 1), st.integers(0, len(raw) - 1))
    for pos, byte in draw(st.lists(st.tuples(position, st.integers(0, 255)), max_size=4)):
        raw[pos] = byte
    end = draw(st.one_of(st.just(len(raw)), st.integers(0, header), st.integers(0, len(raw))))
    return bytes(raw[:end]) + draw(st.binary(max_size=16))


def _pgm_bytes(plane: np.ndarray) -> bytes:
    q = np.round(plane * 255).astype(np.uint8)
    return b"P5\n8 8\n255\n" + q.tobytes()


def _idx_pair(n: int = 12, rows: int = 4, cols: int = 4) -> tuple[bytes, bytes]:
    images = (np.arange(n * rows * cols) % 256).astype(np.uint8)
    labels = (np.arange(n) % 10).astype(np.uint8)
    head = np.array([0x803, n, rows, cols], dtype=">u4").tobytes()
    return head + images.tobytes(), np.array([0x801, n], dtype=">u4").tobytes() + labels.tobytes()


VALID_PGM = _pgm_bytes(np.random.default_rng(0).random((8, 8)))
VALID_IDX_IMAGES, VALID_IDX_LABELS = _idx_pair()


@pytest.fixture
def images(tmp_path):
    """8x8 PGMs: two of noise and one all-zero (singular at lambda 0)."""
    rng = np.random.default_rng(1)
    paths = {}
    for name, plane in (("a", rng.random((8, 8))), ("b", rng.random((8, 8))), ("zero", None)):
        paths[name] = tmp_path / f"{name}.pgm"
        write_pgm(paths[name], np.zeros((8, 8)) if plane is None else plane)
    return paths


def _fresh(tmp_path) -> str:
    """A new empty run directory: the examples of a test share tmp_path, and
    an --out that is not empty is refused."""
    return tempfile.mkdtemp(dir=tmp_path)


def _run(capsys, argv) -> int:
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in EXIT_CODES and "Traceback" not in err, (argv, rc, err)
    return rc


@FUZZ
@given(text=wiener_and_window_ini(), target=st.sampled_from(["b", "zero"]))
@example(text="[window]\nepsilon = 1e308\n", target="b")  # the loss overflows
@example(text="[window]\nb = 5e-324\n", target="b")  # l1 / b overflows in the window
def test_wiener_and_window_values_end_in_an_exit_code(tmp_path, capsys, images, text, target):
    cfgf = tmp_path / "fuzz.ini"
    cfgf.write_text(text, encoding="utf-8")
    out = Path(_fresh(tmp_path))
    argv = ["loss", str(images["a"]), str(images[target]), "--config", str(cfgf)]
    # a warning the CLI would print to stderr is recorded here instead
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc in EXIT_CODES and "Traceback" not in err, (text, rc, err)
    if rc == 0:
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (text, caught)
        report = json.loads((out / "loss.json").read_text())
        for key in ("wiener_loss", "ti_distance"):
            assert isinstance(report[key], float) and math.isfinite(report[key]), (text, report)


@FUZZ
@given(raw=corrupted(VALID_PGM, header=len(b"P5\n8 8\n255\n")))
@example(raw=b"P5\n8 8\n255")  # the header ends the file
def test_corrupted_pgm_ends_in_an_exit_code(tmp_path, capsys, images, raw):
    bad = tmp_path / "fuzz.pgm"
    bad.write_bytes(raw)
    _run(capsys, ["filter", str(bad), str(images["a"]), "--out", _fresh(tmp_path)])


@pytest.fixture(scope="module")
def valid_model(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("model") / "m.wnae"
    save_model(path, DenseAutoencoder.initialize((6, 3, 6), seed=0))
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_corrupted_model_loads_or_raises_a_library_error(tmp_path, valid_model, data):
    path = tmp_path / "fuzz.wnae"
    path.write_bytes(data.draw(corrupted(valid_model, header=24)))  # magic to widths
    try:
        model = load_model(path)
    except WienerlabError:
        return
    assert np.all(np.isfinite(model.theta))


@FUZZ
@given(
    images_raw=corrupted(VALID_IDX_IMAGES, header=16),
    labels_raw=corrupted(VALID_IDX_LABELS, header=8),
)
@example(images_raw=gzip.compress(VALID_IDX_IMAGES)[:-9], labels_raw=VALID_IDX_LABELS)
@example(images_raw=b"\x1f\x8b" + bytes(20), labels_raw=VALID_IDX_LABELS)
def test_corrupted_idx_pair_loads_or_raises_a_library_error(tmp_path, images_raw, labels_raw):
    images_path, labels_path = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
    images_path.write_bytes(images_raw)
    labels_path.write_bytes(labels_raw)
    try:
        data = ingest_idx(images_path, labels_path)
    except WienerlabError:
        return
    assert len(data) == len(data.label_ids) >= 1


# 10 of the 12 4x4 images for knn, 8 for a one-epoch train
IDX_RUNS = """[knn]
n_train = 6
n_test = 4
k = 1
baseline_k = 1
pad = 1
max_shift = 1
data_images = {images}
data_labels = {labels}
[train]
n_train = 8
epochs = 1
batch_size = 4
widths = 16,4,16
data_images = {images}
data_labels = {labels}
"""


@FUZZ
@given(
    images_raw=corrupted(VALID_IDX_IMAGES, header=16),
    labels_raw=corrupted(VALID_IDX_LABELS, header=8),
)
@example(images_raw=VALID_IDX_IMAGES, labels_raw=VALID_IDX_LABELS)
def test_corrupted_idx_pair_through_knn_and_train_ends_in_an_exit_code(
    tmp_path, capsys, images_raw, labels_raw
):
    images_path, labels_path = tmp_path / "images-idx3-ubyte", tmp_path / "labels-idx1-ubyte"
    images_path.write_bytes(images_raw)
    labels_path.write_bytes(labels_raw)
    cfgf = tmp_path / "idx.ini"
    cfgf.write_text(IDX_RUNS.format(images=images_path, labels=labels_path), encoding="utf-8")
    valid = (images_raw, labels_raw) == (VALID_IDX_IMAGES, VALID_IDX_LABELS)
    for command in ("knn", "train"):
        rc = _run(capsys, [command, "--config", str(cfgf), "--out", _fresh(tmp_path)])
        assert rc == 0 or not valid, (command, rc)


# every subcommand at tiny sizes; each section's keys go to the subcommands that read it
TINY = {
    "diffusion": {"T": 3, "n_samples": 2, "n_defining": 2, "dim": 4, "snapshot_stride": 2},
    "knn": {"n_train": 10, "n_test": 4, "k": 1, "baseline_k": 1, "pad": 1, "max_shift": 1},
    "train": {"n_train": 8, "epochs": 1, "batch_size": 4, "widths": "64,4,64"},
    "recover": {"iterations": 2},
}
READERS = {
    "wiener": ("filter", "loss", "recover", "diffuse", "knn", "train"),
    "window": ("loss", "recover", "train"),
    "diffusion": ("diffuse",),
    "knn": ("knn",),
    "train": ("train",),
    "recover": ("recover",),
}


def _keys_of_type(*types) -> list[tuple[str, str]]:
    """(section, key) of every config field whose default is of one of `types`."""
    return [
        (name, _key(attr))
        for name, section in vars(ExperimentConfig()).items()
        for attr, value in vars(section).items()
        if type(value) in types
    ]


NUMERIC_KEYS = _keys_of_type(int, float)
STRING_KEYS = _keys_of_type(str)


def _run_tiny(tmp_path, capsys, images, commands, section="", key="", value="") -> list[int]:
    """Exit codes of `commands` on the TINY config, with [section] key = value."""
    sections = {name: dict(values) for name, values in TINY.items()}
    if section:
        sections.setdefault(section, {})[key] = value
    cfgf = tmp_path / "tiny.ini"
    cfgf.write_text(
        "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
            for name, values in sections.items()
        ),
        encoding="utf-8",
    )
    pgms = {"filter": 2, "loss": 2, "recover": 1}
    return [
        _run(
            capsys,
            [command, *[str(images["a"]), str(images["b"])][: pgms.get(command, 0)]]
            + ["--config", str(cfgf), "--out", _fresh(tmp_path)],
        )
        for command in commands
    ]


def test_tiny_config_runs_every_subcommand(tmp_path, capsys, images):
    assert _run_tiny(tmp_path, capsys, images, READERS["wiener"]) == [0] * 6


@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize("section,key", NUMERIC_KEYS)
def test_every_numeric_key_ends_in_an_exit_code(tmp_path, capsys, images, section, key, value):
    _run_tiny(tmp_path, capsys, images, READERS[section], section, key, value)


FLOAT_KEYS = _keys_of_type(float)


# a numpy warning raises here, so a run must end in its exit code without one
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["1e308", "5e-324", "inf", "-inf", "nan"])
@pytest.mark.parametrize("section,key", FLOAT_KEYS)
def test_every_float_key_at_its_extremes_ends_in_an_exit_code(
    tmp_path, capsys, images, section, key, value
):
    _run_tiny(tmp_path, capsys, images, READERS[section], section, key, value)


def test_a_nearest_distance_that_overflows_is_a_numerical_failure(tmp_path, capsys):
    # chains started at variance 1e308 stay finite, but their squared
    # distances to the defining set overflow
    cfgf = tmp_path / "huge.ini"
    cfgf.write_text("[diffusion]\n" + "".join(
        f"{k} = {v}\n" for k, v in {**TINY["diffusion"], "init_variance": "1e308"}.items()
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["diffuse", "--config", str(cfgf), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 4 and re.fullmatch(r"numerical failure: chain \d+: .* overflows\n", err), err
    assert not (tmp_path / "run" / "diffuse.json").exists()


@pytest.mark.parametrize("widths, rc", [(None, 2), ("35,8,35", 0)])
def test_train_widths_against_idx_images_of_another_size(tmp_path, capsys, widths, rc):
    # 5x7 images: 35 pixels per sample against the default widths' 64
    images = tmp_path / "images-idx3-ubyte"
    images.write_bytes(_idx_pair(n=8, rows=5, cols=7)[0])
    text = f"[train]\nn_train = 8\nepochs = 1\nbatch_size = 4\ndata_images = {images}\n"
    cfgf = tmp_path / "train.ini"
    cfgf.write_text(text + (f"widths = {widths}\n" if widths else ""))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfgf), "--out", str(out)]) == rc
    err = capsys.readouterr().err
    assert ("sample width 35" in err) == (rc == 2), err
    assert out.exists() == (rc == 0)


@pytest.mark.parametrize("value", ["", "nope", "1,,2", "missing"])
@pytest.mark.parametrize("section,key", STRING_KEYS)
def test_every_string_key_ends_in_an_exit_code(tmp_path, capsys, images, section, key, value):
    if value == "missing":  # a path that does not exist
        value = str(tmp_path / "missing")
    _run_tiny(tmp_path, capsys, images, READERS[section], section, key, value)


@pytest.mark.parametrize("command", ["diffuse", "knn", "train"])
def test_negative_seed_flag_is_a_config_error(tmp_path, capsys, command):
    assert _run(capsys, [command, "--seed", "-1", "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()


@st.composite
def tiny_knn(draw) -> dict[str, int]:
    """[knn] sizes from their smallest valid values to one past the largest."""
    n_train, pad = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    return {
        "n_train": n_train,
        "n_test": draw(st.integers(1, 3)),
        "k": draw(st.integers(1, n_train + 1)),
        "baseline_k": draw(st.integers(1, n_train + 1)),
        "pad": pad,
        "max_shift": draw(st.integers(0, pad + 1)),
    }


SMALLEST_KNN = {"n_train": 1, "n_test": 1, "k": 1, "baseline_k": 1, "pad": 0, "max_shift": 0}


@FUZZ
@given(knn=tiny_knn())
@example(knn=SMALLEST_KNN)
@example(knn={**SMALLEST_KNN, "n_train": 3, "k": 4})  # k = n_train + 1
def test_knn_keys_at_tiny_sizes_end_in_their_exit_code(tmp_path, capsys, knn):
    cfgf = tmp_path / "knn.ini"
    cfgf.write_text("[knn]\n" + "".join(f"{k} = {v}\n" for k, v in knn.items()))
    out = Path(_fresh(tmp_path))
    rc = _run(capsys, ["knn", "--config", str(cfgf), "--out", str(out)])
    valid = max(knn["k"], knn["baseline_k"]) <= knn["n_train"] and knn["max_shift"] <= knn["pad"]
    assert rc == (0 if valid else 2), (knn, rc)
    assert (out / "knn.json").is_file() == valid, knn


def _config_run(tmp_path, capsys, argv, text) -> tuple[int, bool]:
    """Exit code of the subcommand `argv` on the INI `text`, failing on a
    traceback or a warning, and whether its report was written."""
    cfgf = tmp_path / f"{argv[0]}.ini"
    cfgf.write_text(text)
    out = Path(_fresh(tmp_path))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*argv, "--config", str(cfgf), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc in EXIT_CODES and "Traceback" not in err, (argv, text, rc, err)
    assert not caught, (argv, text, [str(w.message) for w in caught])
    return rc, (out / f"{argv[0]}.json").is_file()


@st.composite
def tiny_diffusion(draw) -> dict[str, int]:
    """[diffusion] sizes from one below their smallest valid values to one
    past them; k_nearest to one past the defining set, which it is clipped to."""
    n_defining = draw(st.integers(1, 3))
    return {
        "T": draw(st.integers(1, 3)),
        "n_samples": draw(st.integers(0, 2)),
        "n_defining": n_defining,
        "dim": draw(st.integers(0, 2)),
        "snapshot_stride": draw(st.integers(0, 4)),
        "k_nearest": draw(st.integers(0, n_defining + 1)),
    }


SMALLEST_DIFFUSION = {
    "T": 2, "n_samples": 1, "n_defining": 2, "dim": 1, "snapshot_stride": 1, "k_nearest": 1
}


@FUZZ
@given(diffusion=tiny_diffusion())
@example(diffusion=SMALLEST_DIFFUSION)
@example(diffusion={**SMALLEST_DIFFUSION, "k_nearest": 3, "snapshot_stride": 3})
def test_diffusion_keys_at_tiny_sizes_end_in_their_exit_code(tmp_path, capsys, diffusion):
    text = "[diffusion]\n" + "".join(f"{k} = {v}\n" for k, v in diffusion.items())
    rc, written = _config_run(tmp_path, capsys, ["diffuse"], text)
    valid = diffusion["T"] >= 2 and diffusion["n_defining"] >= 2 and min(
        diffusion["n_samples"], diffusion["dim"], diffusion["snapshot_stride"],
        diffusion["k_nearest"],
    ) >= 1
    assert rc == (0 if valid else 2), (diffusion, rc)
    assert written == valid, diffusion


@st.composite
def tiny_train(draw) -> dict[str, int]:
    """[train] sizes from one below their smallest valid values to one past
    them, with widths that start and end at the digits' pixel count."""
    size = draw(st.integers(7, 9))
    return {
        "n_train": draw(st.integers(0, 2)),
        "epochs": draw(st.integers(-1, 1)),
        "batch_size": draw(st.integers(0, 2)),
        "digit_size": size,
        "widths": f"{size * size},2,{size * size}",
    }


SMALLEST_TRAIN = {"n_train": 1, "epochs": 0, "batch_size": 1, "digit_size": 8, "widths": "64,2,64"}


@FUZZ
@given(train=tiny_train(), loss=st.sampled_from(["mse", "wiener"]))
@example(train=SMALLEST_TRAIN, loss="wiener")
@example(train={**SMALLEST_TRAIN, "epochs": 1, "batch_size": 2}, loss="wiener")  # batch > set
def test_train_keys_at_tiny_sizes_end_in_their_exit_code(tmp_path, capsys, train, loss):
    text = f"[train]\nloss = {loss}\n" + "".join(f"{k} = {v}\n" for k, v in train.items())
    rc, written = _config_run(tmp_path, capsys, ["train"], text)
    valid = (
        min(train["n_train"], train["batch_size"]) >= 1 and train["epochs"] >= 0
        and train["digit_size"] >= 8
    )
    assert rc == (0 if valid else 2), (train, loss, rc)
    assert written == valid, train


# recover's images at their smallest: one pixel, one row, one column, flat, black
TINY_IMAGES = {
    "1x1": [[0.5]],
    "1x2": [[0.2, 0.9]],
    "2x1": [[0.2], [0.9]],
    "constant": [[0.4] * 3] * 3,
    "zero": [[0.0] * 3] * 3,
}


@pytest.fixture(scope="module")
def tiny_images(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    paths = {}
    for name, plane in TINY_IMAGES.items():
        paths[name] = root / f"{name}.pgm"
        write_pgm(paths[name], np.array(plane))
    return paths


@st.composite
def tiny_recover(draw) -> dict:
    """[recover] values from their smallest valid values to one past them,
    either loss, and lambda 0 or 1."""
    return {
        "stride": draw(st.integers(1, 2)),
        "iterations": draw(st.integers(0, 1)),
        "log_every": draw(st.integers(1, 2)),
        "step_size": draw(st.sampled_from([0.0, 1.0])),
        "loss": draw(st.sampled_from(["mse", "wiener"])),
        "lambda": draw(st.sampled_from([0.0, 1.0])),
    }


SMALLEST_RECOVER = {
    "stride": 1, "iterations": 0, "log_every": 1, "step_size": 0.0, "loss": "wiener", "lambda": 0.0
}


@settings(FUZZ, max_examples=120)
@given(recover=tiny_recover(), image=st.sampled_from(sorted(TINY_IMAGES)))
@example(recover={**SMALLEST_RECOVER, "iterations": 1}, image="zero")  # singular at lambda 0
@example(recover={**SMALLEST_RECOVER, "iterations": 1, "lambda": 1.0}, image="1x1")
def test_recover_keys_at_tiny_sizes_end_in_an_exit_code(
    tmp_path, capsys, tiny_images, recover, image
):
    recover = dict(recover)
    text = f"[wiener]\nlambda = {recover.pop('lambda')}\n[recover]\n" + "".join(
        f"{k} = {v}\n" for k, v in recover.items()
    )
    rc, written = _config_run(tmp_path, capsys, ["recover", str(tiny_images[image])], text)
    assert written == (rc == 0), (recover, image, rc)
