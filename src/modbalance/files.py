"""Reading the JSON files the package takes, and atomic replacement of the
files it writes."""

import json
import os
from contextlib import contextmanager
from pathlib import Path


def read_json(path, error, object_hook=None):
    """Parse the JSON file at ``path``, passing each object to
    ``object_hook`` (as ``json.load`` does) if one is given; a file that
    cannot be read or parsed (not UTF-8, not JSON, nested past the
    recursion limit) raises ``error`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_hook=object_hook)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: malformed JSON ({exc})") from exc
    except OSError as exc:
        raise error(f"{path}: {exc}") from exc


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
