"""Atomic file publication, shared by every writer whose readers must
never see a torn file (disk-tier artifacts, the Chrome-trace export,
the metrics exposition)."""

from __future__ import annotations

import os
import tempfile


def atomic_write(path, data: bytes) -> None:
    """Publish ``data`` at ``path``: write a private ``.tmp-*`` file in
    the same directory, then :func:`os.replace` it into place, so a
    concurrent reader sees the old complete file or the new complete
    file and racing writers converge on one of theirs.  On failure the
    temp file is removed and the OSError propagates."""
    path = os.fspath(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=".tmp-", dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as tmp:
            tmp.write(data)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
