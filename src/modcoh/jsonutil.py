"""Canonical JSON, content digests, atomic file writes."""

from __future__ import annotations

import hashlib
import json
import os
import stat
import tempfile


# json.dumps with options builds an encoder per call; this one is built once.
# A cyclic object still raises, a RecursionError in place of a ValueError
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_json(obj) -> str:
    return _CANONICAL.encode(obj)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest_of(obj) -> str:
    return sha256_hex(canonical_json(obj))


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename.  A path that exists and is
    not a regular file, such as a device or a FIFO, is written in place:
    the rename would replace it with a file its reader never sees."""
    try:
        mode = os.stat(path).st_mode
    except OSError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w") as handle:
            handle.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".modcoh-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
