import gzip
import struct

import numpy as np
import pytest

from wienerlab import dataio
from wienerlab.dataio import (
    ingest_idx,
    load_model,
    read_idx_images,
    read_idx_labels,
    read_pgm,
    save_model,
    write_csv,
    write_pgm,
)
from wienerlab.diffusion import EnergyModel
from wienerlab.errors import ConfigError, FormatError, ShapeError
from wienerlab.spectral import WindowSpec
from wienerlab.trainer import DenseAutoencoder, forward


def idx_image_bytes(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()


def idx_label_bytes(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, labels.size) + labels.tobytes()


class TestIdx:
    def test_header_and_shapes(self, tmp_path):
        imgs = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
        p = tmp_path / "two-images-idx3-ubyte"
        p.write_bytes(idx_image_bytes(imgs))
        out = read_idx_images(p)
        assert out.shape == (2, 1, 28, 28)
        assert out.max() <= 1.0 and out.min() >= 0.0
        np.testing.assert_allclose(out[:, 0] * 255.0, imgs, atol=1e-12)

    def test_gzip_transparent(self, tmp_path):
        imgs = np.full((3, 4, 4), 128, dtype=np.uint8)
        p = tmp_path / "imgs.gz"
        p.write_bytes(gzip.compress(idx_image_bytes(imgs)))
        assert read_idx_images(p).shape == (3, 1, 4, 4)

    @pytest.mark.parametrize("pack", [bytes, gzip.compress], ids=["plain", "gzip"])
    def test_images_arrive_as_a_one_channel_set_stack(self, tmp_path, pack):
        imgs = np.random.default_rng(5).integers(0, 256, size=(6, 5, 7)).astype(np.uint8)
        p = tmp_path / "six-images-idx3-ubyte"
        p.write_bytes(pack(idx_image_bytes(imgs)))
        out = read_idx_images(p)
        assert out.shape == (6, 1, 5, 7)
        np.testing.assert_array_equal(out[:, 0], imgs / 255.0)

    def test_an_energy_model_reads_idx_images_as_planes(self, tmp_path):
        # a (count, rows, cols) array would read as rows-channel 1-D signals
        imgs = np.random.default_rng(6).integers(1, 256, size=(6, 5, 7)).astype(np.uint8)
        p = tmp_path / "six-images-idx3-ubyte"
        p.write_bytes(idx_image_bytes(imgs))
        model = EnergyModel(read_idx_images(p), WindowSpec("laplace", 2.0), 1.0, 1.0)
        assert model.kernel.shape == (5, 7)

    def test_bad_magic_reports_offset(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(FormatError) as err:
            read_idx_images(p)
        assert err.value.offset == 0

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(struct.pack(">IIII", 0x00000803, 2, 4, 4) + b"\x00" * 10)
        with pytest.raises(FormatError):
            read_idx_images(p)

    def test_ingest_pairs_images_with_labels(self, tmp_path):
        imgs = np.random.default_rng(0).integers(0, 256, size=(5, 6, 6)).astype(np.uint8)
        (tmp_path / "t-images-idx3-ubyte").write_bytes(idx_image_bytes(imgs))
        (tmp_path / "t-labels-idx1-ubyte").write_bytes(idx_label_bytes([0, 1, 2, 3, 4]))
        ls = ingest_idx(tmp_path / "t-images-idx3-ubyte")
        assert len(ls) == 5
        assert ls.label_ids.tolist() == [0, 1, 2, 3, 4]
        assert ls.stack.shape == (5, 1, 6, 6)

    def test_count_mismatch(self, tmp_path):
        imgs = np.zeros((3, 2, 2), dtype=np.uint8)
        (tmp_path / "a-images-idx3-ubyte").write_bytes(idx_image_bytes(imgs))
        (tmp_path / "a-labels-idx1-ubyte").write_bytes(idx_label_bytes([1, 2]))
        with pytest.raises(FormatError):
            ingest_idx(tmp_path / "a-images-idx3-ubyte")

    @pytest.mark.parametrize("label", [10, 12, 255])
    def test_label_outside_class_range_is_a_format_error(self, tmp_path, label):
        imgs = np.zeros((3, 2, 2), dtype=np.uint8)
        (tmp_path / "a-images-idx3-ubyte").write_bytes(idx_image_bytes(imgs))
        (tmp_path / "a-labels-idx1-ubyte").write_bytes(idx_label_bytes([1, label, 2]))
        with pytest.raises(FormatError, match=f"label {label} of sample 1"):
            ingest_idx(tmp_path / "a-images-idx3-ubyte")

    def test_empty_pair_is_a_format_error(self, tmp_path):
        (tmp_path / "a-images-idx3-ubyte").write_bytes(idx_image_bytes(np.zeros((0, 2, 2))))
        (tmp_path / "a-labels-idx1-ubyte").write_bytes(idx_label_bytes([]))
        with pytest.raises(FormatError):
            ingest_idx(tmp_path / "a-images-idx3-ubyte")

    def test_ingest_builds_one_stack(self, tmp_path):
        imgs = np.random.default_rng(2).integers(0, 256, size=(4, 3, 5)).astype(np.uint8)
        (tmp_path / "s-images-idx3-ubyte").write_bytes(idx_image_bytes(imgs))
        (tmp_path / "s-labels-idx1-ubyte").write_bytes(idx_label_bytes([9, 0, 9, 3]))
        ls = ingest_idx(tmp_path / "s-images-idx3-ubyte")
        assert ls.stack.shape == (4, 1, 3, 5)
        np.testing.assert_array_equal(ls.stack[:, 0], imgs / 255.0)
        assert ls.label_ids.tolist() == [9, 0, 9, 3]

    @pytest.mark.parametrize("limit", [1, 4, 7, 9, 20])
    def test_limited_read_equals_full_read_then_slice(self, tmp_path, limit):
        imgs = np.random.default_rng(3).integers(0, 256, size=(9, 4, 6)).astype(np.uint8)
        labels = [3, 1, 4, 1, 5, 9, 2, 6, 5]
        path = tmp_path / "l-images-idx3-ubyte"
        path.write_bytes(idx_image_bytes(imgs))
        (tmp_path / "l-labels-idx1-ubyte").write_bytes(idx_label_bytes(labels))
        part = read_idx_images(path, limit)
        assert part.dtype == np.float64
        assert part.tobytes() == read_idx_images(path)[:limit].tobytes()
        ls = ingest_idx(path, limit=limit)
        assert ls.stack.tobytes() == ingest_idx(path).stack[:limit].tobytes()
        assert ls.label_ids.tolist() == labels[:limit]

    @pytest.mark.parametrize("limit", [0, -1, -8])
    def test_limit_below_one_is_a_config_error(self, tmp_path, limit):
        # a set size is not a slice: -1 would read all images but the last
        path = tmp_path / "l-images-idx3-ubyte"
        path.write_bytes(idx_image_bytes(np.zeros((9, 4, 6))))
        (tmp_path / "l-labels-idx1-ubyte").write_bytes(idx_label_bytes([0] * 9))
        with pytest.raises(ConfigError, match="at least 1"):
            read_idx_images(path, limit)
        with pytest.raises(ConfigError, match="at least 1"):
            ingest_idx(path, limit=limit)

    def test_limited_ingest_still_checks_the_whole_pair(self, tmp_path):
        imgs = np.zeros((3, 2, 2), dtype=np.uint8)
        path = tmp_path / "a-images-idx3-ubyte"
        path.write_bytes(idx_image_bytes(imgs))
        (tmp_path / "a-labels-idx1-ubyte").write_bytes(idx_label_bytes([1, 2]))
        with pytest.raises(FormatError, match="count mismatch"):
            ingest_idx(path, limit=1)
        (tmp_path / "a-labels-idx1-ubyte").write_bytes(idx_label_bytes([1, 2, 12]))
        with pytest.raises(FormatError, match="label 12 of sample 2"):
            ingest_idx(path, limit=1)

    def test_label_magic_checked(self, tmp_path):
        p = tmp_path / "labels"
        p.write_bytes(struct.pack(">II", 0x00000803, 2) + b"\x00\x01")
        with pytest.raises(FormatError):
            read_idx_labels(p)


class TestPgm:
    def test_roundtrip_within_quantization(self, tmp_path):
        img = np.random.default_rng(1).random((9, 7))
        p = tmp_path / "img.pgm"
        write_pgm(p, img)
        back = read_pgm(p)
        assert back.shape == (1, 9, 7)
        assert np.abs(back[0] - img).max() <= 1.0 / 255.0

    def test_write_clamps(self, tmp_path):
        img = np.array([[-0.5, 0.5], [1.5, 1.0]])
        p = tmp_path / "clamp.pgm"
        write_pgm(p, img)
        back = read_pgm(p)[0]
        assert back[0, 0] == 0.0 and back[1, 0] == 1.0

    def test_header_comments_tolerated(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = read_pgm(p)[0]
        assert img.shape == (2, 2)
        assert img[0, 1] == pytest.approx(128 / 255)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_pgm(p)

    @pytest.mark.parametrize("size", [b"-3 2", b"2 -3", b"0 2", b"2 0"])
    def test_size_below_one_rejected(self, tmp_path, size):
        # "-3 2" with 10 payload bytes once read as a 2x2 image: reshape(2, -3)
        # inferred the width
        p = tmp_path / "n.pgm"
        p.write_bytes(b"P5\n" + size + b"\n255\n" + b"\x00" * 10)
        with pytest.raises(FormatError):
            read_pgm(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 5)
        with pytest.raises(FormatError):
            read_pgm(p)


class TestModelBinary:
    def test_roundtrip(self, tmp_path):
        model = DenseAutoencoder.initialize((10, 4, 10), seed=3)
        p = tmp_path / "m.wnae"
        save_model(p, model)
        back = load_model(p)
        assert back.widths == (10, 4, 10)
        np.testing.assert_array_equal(back.flat_params(), model.flat_params())

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_roundtrip_keeps_the_activation(self, tmp_path, activation):
        model = DenseAutoencoder.initialize((12, 5, 12), activation=activation, seed=5)
        p = tmp_path / "m.wnae"
        save_model(p, model)
        raw = p.read_bytes()
        assert struct.unpack_from("<I", raw, 4) == (2,)  # version 2 records the activation
        name = activation.encode()
        assert raw[24:28 + len(name)] == struct.pack("<I", len(name)) + name
        back = load_model(p)
        assert back.activation == activation
        batch = np.random.default_rng(6).standard_normal((7, 1, 12))
        assert forward(back, batch).tobytes() == forward(model, batch).tobytes()

    def test_version_1_file_is_a_format_error(self, tmp_path):
        # version 1 did not record the activation, so it cannot say which model it holds
        model = DenseAutoencoder.initialize((4, 3, 4), seed=1)
        p = tmp_path / "v1.wnae"
        p.write_bytes(
            b"WNAE" + struct.pack("<II3I", 1, 3, 4, 3, 4)
            + model.flat_params().astype("<f8").tobytes()
        )
        with pytest.raises(FormatError, match="version 1") as err:
            load_model(p)
        assert err.value.offset == 4

    @pytest.mark.parametrize("name", [b"gelu", b"", b"\xffmish"])
    def test_unknown_activation_is_a_format_error(self, tmp_path, name):
        p = tmp_path / "m.wnae"
        save_model(p, DenseAutoencoder.initialize((4, 3, 4), activation="relu", seed=1))
        raw = p.read_bytes()
        at = 12 + 4 * 3  # the name's byte count follows the three widths
        p.write_bytes(raw[:at] + struct.pack("<I", len(name)) + name + raw[at + 4 + len("relu"):])
        with pytest.raises(FormatError, match="activation") as err:
            load_model(p)
        assert err.value.offset == at + 4

    def test_magic_checked(self, tmp_path):
        p = tmp_path / "bad.wnae"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_model(p)

    def test_payload_length_checked(self, tmp_path):
        model = DenseAutoencoder.initialize((4, 4), seed=4)
        p = tmp_path / "short.wnae"
        save_model(p, model)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_model(p)

    def test_every_truncation_is_a_format_error(self, tmp_path):
        p = tmp_path / "m.wnae"
        save_model(p, DenseAutoencoder.initialize((10, 4, 10), seed=3))
        full = p.read_bytes()
        for n in range(len(full)):
            p.write_bytes(full[:n])
            with pytest.raises(FormatError) as err:
                load_model(p)
            assert err.value.offset is not None, n

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda b: b + b"\x00",  # payload no longer a whole number of f8 values
            lambda b: b[:-3],
            lambda b: b[:8] + struct.pack("<I", 0xFFFFFFFF) + b[12:],  # absurd width count
            lambda b: b[:8] + struct.pack("<I", 1) + b[12:],  # a single layer width
            lambda b: b[:16] + struct.pack("<I", 0) + b[20:],  # a zero width
            lambda b: b[:-8] + struct.pack("<d", float("nan")),
        ],
    )
    def test_inconsistent_file_is_a_format_error(self, tmp_path, mutate):
        p = tmp_path / "m.wnae"
        save_model(p, DenseAutoencoder.initialize((10, 4, 10), seed=3))
        p.write_bytes(mutate(p.read_bytes()))
        with pytest.raises(FormatError):
            load_model(p)


def _row_text(header, rows) -> str:
    """CSV text written row by row: repr for floats, str for anything else."""
    lines = [",".join(header)]
    lines += [",".join(repr(x) if isinstance(x, float) else str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestCsv:
    @pytest.mark.parametrize("block", [None, 7, 1])
    def test_columns_write_the_text_of_rows(self, tmp_path, monkeypatch, block):
        if block is not None:  # 29 rows: blocks of 7 leave a short last block
            monkeypatch.setattr(dataio, "CSV_BLOCK_ROWS", block)
        rng = np.random.default_rng(0)
        special = [0.1 + 0.2, -0.0, 1e-300, 5e-324, 1e308, np.inf, -np.inf, np.nan, 3.0]
        floats = np.concatenate([rng.standard_normal(20), special])
        ints = np.arange(len(floats)) * 7 - 30
        names = [f"r{i}" for i in range(len(floats))]
        header = ["i", "x", "name", "y"]
        rows = [
            (int(i), float(x), n, float(y))
            for i, x, n, y in zip(ints, floats, names, floats[::-1])
        ]
        write_csv(tmp_path / "cols.csv", header, [ints, floats, names, floats[::-1]])
        assert (tmp_path / "cols.csv").read_text() == _row_text(header, rows)
        write_csv(tmp_path / "lists.csv", header, [list(column) for column in zip(*rows)])
        assert (tmp_path / "lists.csv").read_text() == _row_text(header, rows)
        write_csv(tmp_path / "empty.csv", header, [[], [], [], []])
        assert (tmp_path / "empty.csv").read_text() == "i,x,name,y\n"

    @pytest.mark.parametrize("columns", [[[1, 2], [0.5]], [[1, 2]]])
    def test_ragged_or_missing_columns_are_rejected(self, tmp_path, columns):
        with pytest.raises(ShapeError):
            write_csv(tmp_path / "bad.csv", ["a", "b"], columns)
        assert not (tmp_path / "bad.csv").exists()

    def test_numpy_scalars_in_list_columns_write_plain_numbers(self, tmp_path):
        p = tmp_path / "s.csv"
        floats = [np.float64(0.5), np.float64(0.1 + 0.2), np.float64(-np.inf)]
        ints = [np.int64(3), np.int64(-4), np.int64(0)]
        write_csv(p, ["x", "n"], [floats, ints])
        assert p.read_text() == "x,n\n0.5,3\n0.30000000000000004,-4\n-inf,0\n"

    def test_floats_roundtrip_via_repr(self, tmp_path):
        p = tmp_path / "t.csv"
        value = 0.1 + 0.2  # not exactly representable as "0.3"
        write_csv(p, ["a", "b"], [[1], [value]])
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        assert float(lines[1].split(",")[1]) == value
