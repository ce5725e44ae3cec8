"""The one place semcom reads or writes a file; OS failures become IoError."""

import contextlib
import os

from .errors import IoError


def read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def write_atomic(path, *chunks) -> None:
    """Write the bytes-like chunks to ``<path>.tmp``, then rename it over ``path``.

    A symlink to a regular file is replaced, not written through; any other
    existing non-regular path (a directory, a device) is an error, left alone.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        raise IoError(f"cannot write {path}: not a regular file")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise IoError(f"cannot write {path}: {exc}") from exc
