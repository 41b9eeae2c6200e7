"""On-disk formats and in-memory containers for features, distances and metadata.

Binary formats (all little-endian, row-major):

* ``.fvec``  -- magic ``RDF1`` | u32 n | u32 d | n*d float32 payload
* ``.dmat``  -- magic ``RDM1`` | u32 n_query | u32 n_gallery | float32 payload
* ``.csv``   -- UTF-8 metadata with header exactly ``image_id,person_id,camera_id``

Feature matrices are plain ``(n, d)`` float32 arrays and distance matrices
plain ``(n_query, n_gallery)`` float32 arrays; the loaders reject anything
non-finite (and, for distances, anything negative) so downstream code can
rely on those invariants.  Saving then loading reproduces the array
bit-for-bit, which the golden-replay tests depend on.

``read_bytes``, ``read_text``, ``write_bytes``, ``write_csv`` and ``make_dirs``
are the only place reidkit touches the file system, so a file that cannot be
read, decoded or written, or a directory that cannot be created, always ends
in an ``IoError`` or ``FormatError``.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, IoError

FVEC_MAGIC = b"RDF1"
DMAT_MAGIC = b"RDM1"
_KINDS = {FVEC_MAGIC: "feature matrix", DMAT_MAGIC: "distance matrix"}

_HEADER = struct.Struct("<4sII")

META_HEADER = ["image_id", "person_id", "camera_id"]


def read_bytes(path) -> bytes:
    """The contents of ``path``; an OS-level failure is an :class:`IoError`."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def read_text(path) -> str:
    """The contents of ``path`` as UTF-8, without newline translation."""
    blob = read_bytes(path)
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte {exc.start}") from None


def write_bytes(path, data) -> None:
    """Write the bytes-like ``data`` to ``path``; an OS-level failure is an :class:`IoError`."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def make_dirs(path) -> None:
    """Create directory ``path`` and its parents; an OS-level failure is an :class:`IoError`."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {path}: {exc}") from exc


def write_csv(path, header, rows) -> None:
    """Write a UTF-8 CSV with ``csv.writer``'s default CRLF line ends."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_bytes(path, buf.getvalue().encode("utf-8"))


@dataclass(frozen=True)
class SampleMeta:
    """Identity and camera/sequence tags for one image."""

    image_id: str
    person_id: int
    camera_id: int = 0


class MetaTable:
    """Ordered list of :class:`SampleMeta`, index-aligned with a feature matrix.

    Image ids must be unique within one table; person and camera ids must be
    integers in ``[0, 2**63)``, so they fit the int64 id arrays.
    """

    def __init__(self, entries):
        entries = list(entries)
        seen = set()
        for e in entries:
            if not e.image_id:
                raise DataError("empty image_id in metadata table")
            if e.image_id in seen:
                raise DataError(f"duplicate image_id {e.image_id!r}")
            seen.add(e.image_id)
            if not (0 <= e.person_id < 2**63 and 0 <= e.camera_id < 2**63):
                raise DataError(
                    f"person_id/camera_id of image {e.image_id!r} outside [0, 2**63)"
                )
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, MetaTable) and self.entries == other.entries

    @property
    def person_ids(self) -> np.ndarray:
        return np.array([e.person_id for e in self.entries], dtype=np.int64)

    @property
    def camera_ids(self) -> np.ndarray:
        return np.array([e.camera_id for e in self.entries], dtype=np.int64)

    @property
    def image_ids(self) -> list:
        return [e.image_id for e in self.entries]

    def subset(self, indices) -> "MetaTable":
        return MetaTable([self.entries[i] for i in indices])


def _validate(m, magic, source=None) -> np.ndarray:
    """Check a matrix against its format and return it as contiguous float32.

    Both formats need a non-empty 2-D matrix of finite values; ``.dmat``
    also needs non-negative ones.  The checks apply to the float32 values
    that get written, so a value that overflows float32 is rejected.
    ``source`` (a file path) prefixes the messages of the loaders.
    """
    kind = _KINDS[magic]
    where = f"{source}: " if source is not None else ""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DataError(f"{where}{kind} must be 2-D and non-empty, got shape {m.shape}")
    with np.errstate(over="ignore"):
        m = np.ascontiguousarray(m, dtype=np.float32)
    if not np.all(np.isfinite(m)):
        raise DataError(f"{where}{kind} contains NaN or Inf (as float32)")
    if magic == DMAT_MAGIC and np.any(m < 0):
        raise DataError(f"{where}{kind} contains negative entries")
    return m


def _load_binary(path, magic):
    blob = read_bytes(path)
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    tag, n, d = _HEADER.unpack_from(blob)
    if tag != magic:
        raise FormatError(f"{path}: bad magic {tag!r}, expected {magic!r}")
    payload = blob[_HEADER.size:]
    expected = n * d * 4
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header declares {expected}"
        )
    return _validate(np.frombuffer(payload, dtype="<f4").reshape(n, d), magic, path)


def _save_binary(m, path, magic):
    """Header and little-endian payload, written from one buffer the size of the file."""
    m = _validate(m, magic)
    blob = bytearray(_HEADER.size + m.nbytes)
    _HEADER.pack_into(blob, 0, magic, m.shape[0], m.shape[1])
    np.frombuffer(blob, dtype="<f4", offset=_HEADER.size).reshape(m.shape)[...] = m
    write_bytes(path, blob)


def load_features(path) -> np.ndarray:
    """Load an ``.fvec`` file into an (n, d) float32 array."""
    return _load_binary(path, FVEC_MAGIC)


def save_features(m: np.ndarray, path) -> None:
    """Write an (n, d) float32 array as an ``.fvec`` file.

    The matrix is validated first, so nothing is written on invalid input.
    """
    _save_binary(m, path, FVEC_MAGIC)


def load_distances(path) -> np.ndarray:
    """Load a ``.dmat`` file into an (n_query, n_gallery) float32 array."""
    return _load_binary(path, DMAT_MAGIC)


def save_distances(m: np.ndarray, path) -> None:
    """Write an (n_query, n_gallery) float32 array as a ``.dmat`` file."""
    _save_binary(m, path, DMAT_MAGIC)


def load_meta(path) -> MetaTable:
    """Load a UTF-8 metadata CSV, preserving row order."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    entries = []
    try:
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty metadata file")
        if header != META_HEADER:
            raise FormatError(f"{path}: bad header {header!r}, expected {META_HEADER!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
            image_id, pid, cam = row
            try:
                pid = int(pid)
                cam = int(cam)
            except ValueError:
                raise FormatError(
                    f"{path}:{lineno}: person_id/camera_id must be integers"
                ) from None
            entries.append(SampleMeta(image_id, pid, cam))
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from None
    return MetaTable(entries)


def save_meta(meta: MetaTable, path) -> None:
    """Write a metadata table back to CSV (inverse of :func:`load_meta`)."""
    write_csv(path, META_HEADER, ([e.image_id, e.person_id, e.camera_id] for e in meta))
