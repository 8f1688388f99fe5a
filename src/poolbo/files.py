"""Crash-safe file writes for campaign artifacts."""
from __future__ import annotations

import os
import secrets
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path, newline: str | None = None):
    """Open a text file that replaces `path` only once it is fully written.

    Writes go to a uniquely named temp file in the target directory, which
    is flushed, fsynced and renamed over `path` when the block exits
    cleanly. If the block raises, the temp file is removed and any earlier
    file at `path` is left as it was.
    """
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
