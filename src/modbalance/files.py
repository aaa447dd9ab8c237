"""Atomic replacement of the files the package writes."""

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(path):
    """Yield a temporary path beside ``path`` to write; on success it
    replaces ``path``, on failure it is removed and ``path`` is kept."""
    tmp = Path(f"{path}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
