"""Crash-safe file writing.

Artifacts (model weights, serving checkpoints, experiment outputs) must
never be observable in a half-written state: a process killed mid-write
would otherwise leave a truncated file that poisons the next startup.
Every writer in the repo funnels through :func:`atomic_output`, which
stages the bytes in a temporary file *in the destination directory* (so
the final rename cannot cross filesystems) and publishes them with
``os.replace`` — atomic on POSIX and Windows alike.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = ["atomic_output", "atomic_write_bytes"]


@contextmanager
def atomic_output(path: str | Path, suffix: str = ".tmp") -> Iterator[Path]:
    """Yield a temp path next to ``path``; publish it atomically on success.

    The temporary file lives in ``path``'s directory and carries
    ``suffix`` (some writers, e.g. ``np.savez``, key off the extension).
    If the body raises, the temp file is removed and the destination is
    left untouched — a crash can never expose partial contents.
    """
    final = Path(path)
    final.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=final.parent, prefix=f".{final.name}.", suffix=suffix
    )
    os.close(fd)  # writers reopen by name (np.savez, plain open, ...)
    tmp = Path(tmp_name)
    try:
        yield tmp
        # flush-to-disk barrier before the rename publishes the file
        with open(tmp, "rb+") as fh:
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers see the old or new file, never a mix."""
    with atomic_output(path) as tmp:
        tmp.write_bytes(data)

