"""File formats: IDX image/label ingestion, binary PGM, the model binary, CSV.

IDX files follow the big-endian layout (magic 0x00000803 for images,
0x00000801 for labels) and may be gzip-compressed. Pixels are scaled to
[0, 1] on read; writes clamp to [0, 1] and quantize to 8 bits.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, ShapeError
from .knn import LabeledSet
from .trainer import DenseAutoencoder

__all__ = [
    "read_idx_images",
    "read_idx_labels",
    "ingest_idx",
    "read_pgm",
    "write_pgm",
    "save_model",
    "load_model",
    "write_csv",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
MODEL_MAGIC = b"WNAE"
MODEL_VERSION = 2  # 2 records the activation; 1 did not, so it cannot be read


def _read_bytes(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        import gzip  # here, so only a run that reads a .gz file pays for the import

        try:
            return gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise FormatError(f"bad gzip stream: {exc}", offset=0) from exc
    return raw


def _be32(buf: bytes, offset: int) -> int:
    if offset + 4 > len(buf):
        raise FormatError("truncated header", offset=offset)
    return struct.unpack_from(">I", buf, offset)[0]


def read_idx_images(path, limit: int | None = None) -> np.ndarray:
    """(count, rows, cols) array of float64 pixels in [0, 1].

    With `limit`, only the first `limit` images (all of them if the file
    holds fewer) are converted from the 8-bit payload; a `limit` below 1 is
    a ConfigError, not a slice from the end.
    """
    return _read_idx_images(path, limit)[1]


def _read_idx_images(path, limit: int | None) -> tuple[int, np.ndarray]:
    """The image count from the header, and the first `limit` images as in
    ``read_idx_images``."""
    if limit is not None and limit < 1:
        raise ConfigError(f"a set size read from an IDX file must be at least 1, got {limit}")
    buf = _read_bytes(path)
    magic = _be32(buf, 0)
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"bad image magic 0x{magic:08x}", offset=0)
    count = _be32(buf, 4)
    rows = _be32(buf, 8)
    cols = _be32(buf, 12)
    expected = 16 + count * rows * cols
    if len(buf) < expected:
        raise FormatError(
            f"truncated image data: have {len(buf)} bytes, need {expected}", offset=len(buf)
        )
    pixels = np.frombuffer(buf, dtype=np.uint8, count=count * rows * cols, offset=16)
    return count, pixels.reshape(count, rows, cols)[:limit].astype(np.float64) / 255.0


def read_idx_labels(path) -> np.ndarray:
    buf = _read_bytes(path)
    magic = _be32(buf, 0)
    if magic != IDX_LABEL_MAGIC:
        raise FormatError(f"bad label magic 0x{magic:08x}", offset=0)
    count = _be32(buf, 4)
    if len(buf) < 8 + count:
        raise FormatError(
            f"truncated label data: have {len(buf)} bytes, need {8 + count}", offset=len(buf)
        )
    return np.frombuffer(buf, dtype=np.uint8, count=count, offset=8).astype(int)


def ingest_idx(images_path, labels_path=None, limit: int | None = None) -> LabeledSet:
    """Load an image/label IDX pair as a labeled set of its first `limit`
    samples (all of them when None).

    When labels_path is omitted it is derived from the images path by the
    conventional 'images-idx3' -> 'labels-idx1' naming. The pair's counts and
    every label are checked, kept or not.
    """
    if labels_path is None:
        name = str(images_path)
        derived = name.replace("images-idx3", "labels-idx1")
        if derived == name:
            raise FormatError(f"cannot derive a labels path from {name!r}")
        labels_path = derived
    count, images = _read_idx_images(images_path, limit)
    labels = read_idx_labels(labels_path)
    if count != labels.shape[0]:
        raise FormatError(f"count mismatch: {count} images vs {labels.shape[0]} labels")
    if count == 0:
        raise FormatError("IDX files hold no samples")
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise FormatError(f"label {labels[bad[0]]} of sample {bad[0]} outside 0..9")
    return LabeledSet(images[:, np.newaxis], labels[: len(images)])


def read_pgm(path) -> np.ndarray:
    """Binary P5 image scaled to [0, 1], as one signal shaped (1, height, width)."""
    buf = Path(path).read_bytes()
    if buf[:2] != b"P5":
        raise FormatError("not a binary PGM (P5) file", offset=0)
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with optional '#' comment lines
    pos = 2
    tokens = []
    while len(tokens) < 3:
        if pos >= len(buf):
            raise FormatError("truncated PGM header", offset=pos)
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < len(buf) and buf[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(buf) and not buf[pos : pos + 1].isspace():
                pos += 1
            tokens.append(buf[start:pos])
    if pos >= len(buf):
        raise FormatError("truncated PGM header", offset=pos)
    pos += 1  # single whitespace after maxval
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"non-numeric PGM header field: {exc}", offset=pos) from exc
    if width < 1 or height < 1:
        raise FormatError(f"PGM size {width}x{height} is not at least 1x1", offset=pos)
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, expected 255", offset=pos)
    need = width * height
    data = np.frombuffer(buf, dtype=np.uint8, count=-1, offset=pos)
    if data.size < need:
        raise FormatError(
            f"truncated PGM payload: have {data.size} pixels, need {need}", offset=pos
        )
    return data[:need].reshape(1, height, width).astype(np.float64) / 255.0


def write_pgm(path, plane: np.ndarray) -> None:
    """Clamp the 2-D `plane` to [0, 1], quantize to 8 bits, write binary P5."""
    q = np.round(np.clip(plane, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = q.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode())
        f.write(q.tobytes())


def save_model(path, model: DenseAutoencoder) -> None:
    """Versioned flat binary: magic, version, layer widths, the activation's
    name (its byte count, then ASCII), little-endian f64 params."""
    name = model.activation.encode("ascii")
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<I", MODEL_VERSION))
        f.write(struct.pack("<I", len(model.widths)))
        f.write(struct.pack(f"<{len(model.widths)}I", *model.widths))
        f.write(struct.pack("<I", len(name)) + name)
        f.write(model.flat_params().astype("<f8").tobytes())


def load_model(path) -> DenseAutoencoder:
    """Read a model file, activation included; a truncated or inconsistent one,
    an unknown activation or another version raises FormatError."""
    buf = Path(path).read_bytes()
    if buf[:4] != MODEL_MAGIC:
        raise FormatError("bad model magic", offset=0)
    if len(buf) < 12:
        raise FormatError("truncated header", offset=len(buf))
    version, n_widths = struct.unpack_from("<II", buf, 4)
    if version != MODEL_VERSION:
        raise FormatError(f"unsupported model version {version}", offset=4)
    name_at = 12 + 4 * n_widths + 4
    if name_at > len(buf):
        raise FormatError(f"truncated layer widths: {n_widths} declared", offset=len(buf))
    widths = struct.unpack_from(f"<{n_widths}I", buf, 12)
    if n_widths < 2 or min(widths) < 1:
        raise FormatError(f"bad layer widths {widths}", offset=12)
    pos = name_at + struct.unpack_from("<I", buf, name_at - 4)[0]
    if pos > len(buf):
        raise FormatError("truncated activation name", offset=len(buf))
    activation = buf[name_at:pos].decode("ascii", errors="replace")
    n_params = DenseAutoencoder.param_count(widths)
    if len(buf) - pos != 8 * n_params:
        raise FormatError(
            f"parameter payload has {len(buf) - pos} bytes, expected {8 * n_params}", offset=pos
        )
    theta = np.frombuffer(buf, dtype="<f8", offset=pos)
    if not np.all(np.isfinite(theta)):
        raise FormatError("non-finite parameter values", offset=pos)
    try:
        return DenseAutoencoder(widths, activation, theta)
    except ConfigError as exc:  # the widths and values are checked: an unknown activation
        raise FormatError(str(exc), offset=name_at) from exc


CSV_BLOCK_ROWS = 512  # rows formatted per write: a long log's text is never held whole


def write_csv(path, header: list[str], columns) -> None:
    """Plain CSV with a header row; floats via repr for lossless round-trips.

    `columns` holds one sequence per header name, all equally long. They are
    formatted in blocks of CSV_BLOCK_ROWS rows, each column of a block as one
    array's ``tolist()``: repr for floats, str for everything else.
    """
    lengths = {len(column) for column in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ShapeError(f"{len(header)} CSV names against columns of lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            cells = [_csv_cells(column[start : start + CSV_BLOCK_ROWS]) for column in columns]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _csv_cells(column) -> list[str]:
    column = np.asarray(column)
    return list(map(repr if column.dtype.kind == "f" else str, column.tolist()))
