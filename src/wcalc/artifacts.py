"""Atomic file emission for reports and tables.

Writers stage the payload in a sibling temp file and promote it with
os.replace, so a crash mid-write never leaves a torn artifact behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable, Sequence

import numpy as np


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: str, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def atomic_write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _cell(value) -> str:
    # repr of a numpy float is np.float64(...) under numpy 2, which no CSV
    # reader parses; the Python float's repr is the shortest exact literal
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)
