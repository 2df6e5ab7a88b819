"""Crash-safe file replacement primitives.

Every durable file in the repo — captured trace files, mid-run
checkpoints, the trace files a sweep store materializes — goes through
the same discipline: write to a temp file in the destination directory,
fsync the data, ``os.replace`` onto the final name, then fsync the
directory so the rename itself is on stable storage.  A reader can then
trust any file it finds under the final name: it is either the complete
old content or the complete new content, never a torn write, even across
SIGKILL or power loss mid-write.

:func:`fsync_atomic_write` covers the common "replace with these bytes"
case.  :func:`atomic_binary_writer` is the streaming variant:
it hands the caller an open temp-file handle so arbitrarily large content
(a multi-gigabyte trace capture) can be produced in bounded memory and
still finalized atomically.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, Union

__all__ = ["atomic_binary_writer", "fsync_atomic_write"]


def _fsync_dir(directory: Path) -> None:
    dir_fd = os.open(str(directory), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def fsync_atomic_write(path: Path, data: Union[str, bytes]) -> None:
    """Atomically and durably replace ``path`` with ``data``.

    Write to a temp file in the same directory, fsync it, ``os.replace``
    onto the destination, then fsync the directory so the rename itself
    is on stable storage.  Readers see either the old or the complete new
    content — never a torn row — even across a crash mid-write.
    """
    payload = data.encode("utf-8") if isinstance(data, str) else data
    with atomic_binary_writer(Path(path)) as fh:
        fh.write(payload)


@contextmanager
def atomic_binary_writer(path: Path) -> Iterator[BinaryIO]:
    """Yield a temp-file handle that atomically replaces ``path`` on exit.

    The handle is an ordinary buffered binary file open for writing; the
    caller may stream any amount of data through it.  If the ``with``
    body completes, the temp file is fsynced and renamed onto ``path``
    (directory fsynced too).  If the body raises — or the process dies —
    the destination is untouched; at worst a ``.<name>.*.tmp`` orphan is
    left beside it.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=f".{path.name}.", suffix=".tmp")
    fh = os.fdopen(fd, "wb")
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        try:
            fh.close()
        except OSError:
            pass
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
