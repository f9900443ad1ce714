"""Output files written whole or not at all.

Every output of the package goes through `write_bytes`, most of them by
way of `write_text`, so an interrupted or failed write never leaves a
truncated file under an output's name.
"""

from __future__ import annotations

import contextlib
import locale
import os
from pathlib import Path


def write_bytes(path, data: bytes) -> None:
    """Write `data` to `path` through the sibling temporary file
    `.NAME.tmp`, which `os.replace` then moves over `path`; until then
    `path` keeps its old content.

    On any exception, Ctrl-C included, the temporary file is removed and
    the exception raised again; an OSError that names no file, as a full
    disk raises from `write`, is given `path` as its file name.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.tmp")
    try:
        with open(temporary, "wb") as fh:
            fh.write(data)
        os.replace(temporary, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            temporary.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename is None:
            exc.filename = str(path)
        raise


def write_text(path, text: str, encoding: str | None = None) -> None:
    """`write_bytes` of `text` as given, with no newline translation, in
    `encoding` or else the locale's, as `open` picks it."""
    write_bytes(path, text.encode(encoding or locale.getpreferredencoding(False)))
