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

``read_bytes``, ``read_span``, ``read_text``, ``write_bytes``, ``write_csv``
and ``make_dirs`` are the only place reidkit touches the file system, so a
file that cannot be read, decoded or written, or a directory that cannot be
created, always ends in an ``IoError`` or ``FormatError``.

``open_distances`` checks a ``.dmat`` file as ``load_distances`` does,
reading it a few rows at a time (``geometry.chunk_rows``), and returns a
:class:`DistanceFile`: the path, the shape and the min and max, whose row
slices are read from the file on demand.  The ensemble sums such handles
chunk by chunk, so no input matrix is ever held whole.
"""

from __future__ import annotations

import csv
import io
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, IoError
from .geometry import chunk_rows, row_blocks

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


def read_span(path, offset, size) -> tuple[bytes, int]:
    """The ``size`` bytes of ``path`` from byte ``offset``, and the file's
    length; an OS-level failure (a pipe cannot seek) is an :class:`IoError`,
    and a file that ends before ``offset + size`` a :class:`FormatError`."""
    try:
        with Path(path).open("rb") as f:
            length = f.seek(0, io.SEEK_END)
            f.seek(offset)
            data = f.read(size)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if len(data) != size:
        raise FormatError(f"{path}: ends at byte {offset + len(data)}, before byte {offset + size}")
    return data, length


def read_text(path) -> str:
    """The contents of ``path`` as UTF-8, without newline translation."""
    blob = read_bytes(path)
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte {exc.start}") from None


def write_bytes(path, *chunks) -> None:
    """Write the bytes-like ``chunks`` to ``path``, one after another and
    without joining them; an OS-level failure is an :class:`IoError`."""
    try:
        with Path(path).open("wb") as f:
            for chunk in chunks:
                f.write(chunk)
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
    """Metadata of n images, index-aligned with a feature matrix, stored as
    three columns built and checked once: ``image_ids``, a list of str, and
    ``person_ids`` and ``camera_ids``, read-only int64 arrays.  Indexing and
    iteration build :class:`SampleMeta` rows with ``int`` fields on access;
    ``meta[a:b]`` is a list of rows.  Image ids must be non-empty and unique;
    person and camera ids must be integers in ``[0, 2**63)``.
    """

    def __init__(self, entries):
        entries = list(entries)
        self._set_columns(*([getattr(e, field) for e in entries] for field in META_HEADER))

    @classmethod
    def from_columns(cls, image_ids, person_ids, camera_ids) -> "MetaTable":
        """A table from its three columns as lists, checked as ``MetaTable(entries)`` is."""
        meta = cls.__new__(cls)
        meta._set_columns(image_ids, person_ids, camera_ids)
        return meta

    def _set_columns(self, image_ids, person_ids, camera_ids):
        """The one place the ids are checked; the first offending row is reported."""
        seen = set()
        for image_id, pid, cam in zip(image_ids, person_ids, camera_ids, strict=True):
            if not image_id:
                raise DataError("empty image_id in metadata table")
            if image_id in seen:
                raise DataError(f"duplicate image_id {image_id!r}")
            seen.add(image_id)
            if not (0 <= pid < 2**63 and 0 <= cam < 2**63):
                raise DataError(f"person_id/camera_id of image {image_id!r} outside [0, 2**63)")
        self.image_ids = list(image_ids)
        self.person_ids = np.array(person_ids, dtype=np.int64)
        self.camera_ids = np.array(camera_ids, dtype=np.int64)
        self.person_ids.flags.writeable = self.camera_ids.flags.writeable = False

    def __len__(self):
        return len(self.image_ids)

    def __iter__(self):
        return map(SampleMeta, self.image_ids, self.person_ids.tolist(), self.camera_ids.tolist())

    def __getitem__(self, i):
        row = self.image_ids[i], self.person_ids[i].tolist(), self.camera_ids[i].tolist()
        return list(map(SampleMeta, *row)) if isinstance(i, slice) else SampleMeta(*row)

    def __eq__(self, other):
        return (isinstance(other, MetaTable) and self.image_ids == other.image_ids
                and np.array_equal(self.person_ids, other.person_ids)
                and np.array_equal(self.camera_ids, other.camera_ids))

    def subset(self, indices) -> "MetaTable":
        rows = np.fromiter(indices, dtype=np.intp)
        ids = [self.image_ids[i] for i in rows.tolist()]
        return MetaTable.from_columns(ids, self.person_ids[rows].tolist(), self.camera_ids[rows].tolist())

    def identity_places(self):
        """``(place, size)`` per row: its place among its person id's rows in
        table order (0 for the first) and their count; one stable argsort."""
        order = np.argsort(self.person_ids, kind="stable")
        ordered = self.person_ids[order]
        first = ordered.searchsorted(ordered, "left")
        place, size = np.empty_like(order), np.empty_like(order)
        place[order] = np.arange(len(order)) - first
        size[order] = ordered.searchsorted(ordered, "right") - first
        return place, size


def _check_shape(shape, magic, where=""):
    if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
        raise DataError(f"{where}{_KINDS[magic]} must be 2-D and non-empty, got shape {shape}")


def _check_bounds(lo, hi, magic, where=""):
    """Reject a matrix by its float32 min and max: NaN or Inf shows in them
    (and so does a value that overflows float32), and for ``.dmat`` a
    negative entry does.  The loaders' ``where`` is ``"{path}: "``."""
    kind = _KINDS[magic]
    if not np.isfinite([lo, hi]).all():
        raise DataError(f"{where}{kind} contains NaN or Inf (as float32)")
    if magic == DMAT_MAGIC and lo < 0:
        raise DataError(f"{where}{kind} contains negative entries")


def _validate(m, magic, where="") -> np.ndarray:
    """Check a matrix against its format and return it as contiguous float32.

    Both formats need a non-empty 2-D matrix of finite values; ``.dmat``
    also needs non-negative ones.  The checks read only the min and max of
    the float32 values that get written, so they build no mask.
    """
    m = np.asarray(m)
    _check_shape(m.shape, magic, where)
    with np.errstate(over="ignore"):
        m = np.ascontiguousarray(m, dtype=np.float32)
    _check_bounds(m.min(), m.max(), magic, where)
    return m


def _check_header(path, head, length, magic):
    """The (rows, columns) of a file of ``length`` bytes that starts with ``head``."""
    if length < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({length} bytes)")
    tag, n, d = _HEADER.unpack_from(head)
    if tag != magic:
        raise FormatError(f"{path}: bad magic {tag!r}, expected {magic!r}")
    expected = n * d * 4
    if length - _HEADER.size != expected:
        raise FormatError(
            f"{path}: payload is {length - _HEADER.size} bytes, header declares {expected}"
        )
    return n, d


def _load_binary(path, magic):
    blob = read_bytes(path)
    n, d = _check_header(path, blob, len(blob), magic)
    payload = memoryview(blob)[_HEADER.size:]
    return _validate(np.frombuffer(payload, dtype="<f4").reshape(n, d), magic, f"{path}: ")


@dataclass(frozen=True)
class DistanceFile:
    """A checked ``.dmat`` file, read a few rows at a time and never whole.

    ``path``, ``shape`` and the float32 ``bounds`` (min, max) of its entries
    are fixed by :func:`open_distances`.  ``f[rows]``, for a slice of step
    1, reads just those rows from the file as a read-only float32 array.
    A file that has since become shorter raises FormatError, and rows that
    hold a value outside ``bounds`` (NaN included) raise DataError, so a
    file changed after it was opened cannot give a silently wrong sum
    unless every new value lies within the old bounds.
    """

    path: str | Path
    shape: tuple
    bounds: tuple

    def _read(self, rows):
        start, stop, step = rows.indices(self.shape[0])
        if step != 1:
            raise ValueError(f"rows of a distance file need step 1, got {step}")
        d = self.shape[1]
        count = max(stop - start, 0)
        data, _ = read_span(self.path, _HEADER.size + start * d * 4, count * d * 4)
        return np.frombuffer(data, dtype="<f4").reshape(count, d)

    def __getitem__(self, rows):
        block = self._read(rows)
        lo, hi = self.bounds
        if block.size and not (block.min() >= lo and block.max() <= hi):
            raise DataError(f"{self.path}: holds a value outside the bounds it had when opened")
        return block


def open_distances(path) -> DistanceFile:
    """Check a ``.dmat`` file as :func:`load_distances` does, with the same
    errors in the same order, and return a :class:`DistanceFile` for it.

    The values are read ``geometry.chunk_rows`` rows at a time for their
    min and max, so the check holds one chunk, not the matrix.
    """
    _, length = read_span(path, 0, 0)
    head, _ = read_span(path, 0, min(length, _HEADER.size))
    shape = _check_header(path, head, length, DMAT_MAGIC)
    _check_shape(shape, DMAT_MAGIC, f"{path}: ")
    handle = DistanceFile(path, shape, None)
    chunks = map(handle._read, row_blocks(shape[0], chunk_rows(shape[1])))
    ends = np.array([(chunk.min(), chunk.max()) for chunk in chunks])  # NaN propagates
    lo, hi = ends[:, 0].min(), ends[:, 1].max()
    _check_bounds(lo, hi, DMAT_MAGIC, f"{path}: ")
    return replace(handle, bounds=(lo, hi))


def _save_binary(m, path, magic):
    """Header and little-endian payload, the payload written straight from the
    validated array (copied only on a big-endian machine)."""
    m = _validate(m, magic).astype("<f4", copy=False)
    write_bytes(path, _HEADER.pack(magic, m.shape[0], m.shape[1]), m)


def load_features(path) -> np.ndarray:
    """Load an ``.fvec`` file into an (n, d) float32 array."""
    return _load_binary(path, FVEC_MAGIC)


def save_features(m: np.ndarray, path) -> None:
    """Write an (n, d) float32 array as an ``.fvec`` file.

    The matrix is validated first, so nothing is written on invalid input.
    """
    _save_binary(m, path, FVEC_MAGIC)


def load_distances(path) -> np.ndarray:
    """Load a ``.dmat`` file into an (n_query, n_gallery) float32 array
    (:func:`open_distances` checks one without holding it)."""
    return _load_binary(path, DMAT_MAGIC)


def save_distances(m: np.ndarray, path) -> None:
    """Write an (n_query, n_gallery) float32 array as a ``.dmat`` file."""
    _save_binary(m, path, DMAT_MAGIC)


def load_meta(path) -> MetaTable:
    """Load a UTF-8 metadata CSV, preserving row order."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    image_ids, person_ids, camera_ids = [], [], []
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
            image_ids.append(row[0])
            try:
                person_ids.append(int(row[1]))
                camera_ids.append(int(row[2]))
            except ValueError:
                raise FormatError(
                    f"{path}:{lineno}: person_id/camera_id must be integers"
                ) from None
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from None
    return MetaTable.from_columns(image_ids, person_ids, camera_ids)


def save_meta(meta: MetaTable, path) -> None:
    """Write a metadata table back to CSV (inverse of :func:`load_meta`)."""
    write_csv(path, META_HEADER, zip(meta.image_ids, meta.person_ids.tolist(), meta.camera_ids.tolist()))
