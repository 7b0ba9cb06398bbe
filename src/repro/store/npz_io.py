"""Atomic, memory-mappable npz array I/O for the result store.

Two functions the store builds on:

- :func:`write_arrays_atomic` — ``np.savez`` (uncompressed, so members
  stay mappable) into a same-directory temp file, fsync, then one
  ``os.replace`` onto the final path and an fsync of the directory.
  A reader never observes a half-written file, and concurrent replicas
  racing to persist the same content-addressed entry converge on
  identical bytes — last writer wins harmlessly.
- :func:`read_arrays` — open an npz and return its members as
  **memory-mapped** read-only arrays where possible.  NumPy's own
  ``np.load(..., mmap_mode=...)`` silently ignores the mmap request for
  zip containers, so this module maps the file once, locates each
  stored (uncompressed) member's data offset from the zip local-file
  header, parses the npy header in place, and hands back
  ``np.frombuffer`` views over the shared map — loading a persisted
  multi-megabyte sweep costs a few page faults, not a copy.
  Compressed or otherwise unmappable members fall back to an eager
  read through the zip layer, so the function is correct for any npz.

Every parse failure — truncated zip, bad npy magic, short member —
raises :class:`StoreIntegrityError`, the one exception the store
catches to degrade a corrupt entry into a re-evaluation.
"""

from __future__ import annotations

import io
import mmap as mmap_module
import os
import re
import struct
import tempfile
import zipfile
from typing import Dict, Optional, Tuple

import numpy as np
from numpy.lib import format as npy_format

#: size of a zip local-file header up to the variable-length fields
_LOCAL_HEADER_SIZE = 30
_LOCAL_HEADER_MAGIC = b"PK\x03\x04"
_NPY_MAGIC = b"\x93NUMPY"

#: the exact header ``np.save`` writes for simple dtypes — parsed with a
#: regex because ``numpy``'s own reader goes through ``ast.literal_eval``
#: (~1.5 ms for a 12-member sweep entry, the bulk of a warm load)
_SIMPLE_HEADER = re.compile(
    rb"^\{'descr': '([<>|=][a-zA-Z][0-9]+)', "
    rb"'fortran_order': (True|False), "
    rb"'shape': \(([0-9, ]*),?\), \}\s*$"
)


class StoreIntegrityError(Exception):
    """A persisted artifact failed structural validation on read."""


def write_arrays_atomic(path: str, arrays: Dict[str, np.ndarray]) -> None:
    """Persist ``arrays`` as an uncompressed npz at ``path``, atomically.

    The temp file lives in the target directory so ``os.replace`` stays
    a same-filesystem rename (atomic on POSIX); it is fsynced before
    the rename so a crash cannot leave the final name pointing at
    unsynced pages, and the directory is fsynced after it so the
    rename itself survives a crash (Pillai et al., "All File Systems
    Are Not Created Equal", OSDI 2014).
    """
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=".tmp-", suffix=".npz", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _parse_npy_header(
    buffer: mmap_module.mmap, start: int, path: str, name: str
) -> Optional[Tuple[Tuple[int, ...], bool, np.dtype, int]]:
    """Parse an npy header in-place: (shape, fortran, dtype, data offset).

    Returns None for npy format versions this module does not map.  The
    common case — the exact header ``np.save`` emits for a simple dtype
    — is parsed with one regex; anything else falls back to numpy's own
    (``ast``-based, much slower) reader for correctness.
    """
    magic = buffer[start:start + len(_NPY_MAGIC) + 2]
    if len(magic) < len(_NPY_MAGIC) + 2 or magic[:6] != _NPY_MAGIC:
        raise StoreIntegrityError(
            f"bad npy magic for member {name!r} in {path}"
        )
    version = (magic[6], magic[7])
    if version == (1, 0):
        length_size, length_fmt = 2, "<H"
    elif version == (2, 0):
        length_size, length_fmt = 4, "<I"
    else:
        return None
    length_start = start + len(_NPY_MAGIC) + 2
    raw_len = buffer[length_start:length_start + length_size]
    if len(raw_len) != length_size:
        raise StoreIntegrityError(
            f"truncated npy header for member {name!r} in {path}"
        )
    header_len = struct.unpack(length_fmt, raw_len)[0]
    header_start = length_start + length_size
    header = buffer[header_start:header_start + header_len]
    if len(header) != header_len:
        raise StoreIntegrityError(
            f"truncated npy header for member {name!r} in {path}"
        )
    match = _SIMPLE_HEADER.match(header)
    if match is not None:
        dtype = np.dtype(match.group(1).decode("ascii"))
        fortran = match.group(2) == b"True"
        shape = tuple(
            int(part) for part in match.group(3).split(b",") if part.strip()
        )
    else:  # unusual spelling (aligned dtypes, padding): numpy's reader
        handle = io.BytesIO(buffer[start:header_start + header_len])
        npy_format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = npy_format.read_array_header_1_0(handle)
        else:
            shape, fortran, dtype = npy_format.read_array_header_2_0(handle)
    if dtype.hasobject:  # never map (or read) pickled objects
        raise StoreIntegrityError(
            f"member {name!r} in {path} holds objects"
        )
    return shape, fortran, dtype, header_start + header_len


def _mmap_member(
    buffer: mmap_module.mmap, path: str, info: zipfile.ZipInfo
) -> Optional[np.ndarray]:
    """Map one stored (uncompressed) npy member as a read-only view.

    Every member of one npz shares the caller's single ``mmap`` object
    (``np.frombuffer`` keeps it alive), so a 12-member sweep entry
    costs one mmap syscall, not twelve.  Returns None if unmappable.
    """
    header = buffer[info.header_offset:info.header_offset + _LOCAL_HEADER_SIZE]
    if (
        len(header) != _LOCAL_HEADER_SIZE
        or header[:4] != _LOCAL_HEADER_MAGIC
    ):
        raise StoreIntegrityError(
            f"bad zip local header for {info.filename!r} in {path}"
        )
    # the *local* header's name/extra lengths can differ from the
    # central directory's (zip64 padding), so the data offset must
    # come from the local copy
    name_len, extra_len = struct.unpack("<HH", header[26:30])
    data_start = (
        info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len
    )
    parsed = _parse_npy_header(buffer, data_start, path, info.filename)
    if parsed is None:
        return None
    shape, fortran, dtype, offset = parsed
    n_items = int(np.prod(shape, dtype=np.int64))
    if offset + n_items * dtype.itemsize > len(buffer):
        raise StoreIntegrityError(
            f"member {info.filename!r} in {path} is truncated"
        )
    # a read-mode mmap buffer yields a read-only array; reshape orders
    # the flat view without a copy
    flat = np.frombuffer(buffer, dtype=dtype, count=n_items, offset=offset)
    return flat.reshape(shape, order="F" if fortran else "C")


def read_arrays(path: str, mmap: bool = True) -> Dict[str, np.ndarray]:
    """Read every member of an npz; memory-mapped views where possible.

    Returned arrays are read-only (views over a read-access ``mmap``,
    or eager copies with the write flag cleared), matching the
    frozen-array contract of :class:`~repro.core.dse.SweepResult`.
    """
    out: Dict[str, np.ndarray] = {}
    buffer: Optional[mmap_module.mmap] = None
    try:
        with open(path, "rb") as handle:
            if mmap and os.path.getsize(path) > 0:
                buffer = mmap_module.mmap(
                    handle.fileno(), 0, access=mmap_module.ACCESS_READ
                )
            with zipfile.ZipFile(handle) as archive:
                for info in archive.infolist():
                    name = info.filename
                    key = name[:-4] if name.endswith(".npy") else name
                    array = None
                    if (
                        buffer is not None
                        and info.compress_type == zipfile.ZIP_STORED
                    ):
                        array = _mmap_member(buffer, path, info)
                    if array is None:
                        with archive.open(info) as member:
                            array = npy_format.read_array(
                                member, allow_pickle=False
                            )
                        array.setflags(write=False)
                    out[key] = array
    except StoreIntegrityError:
        raise
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise StoreIntegrityError(f"unreadable npz {path}: {exc}") from exc
    return out
