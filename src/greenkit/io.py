"""Atomic CSV/JSON writers for the command-line front end.

Every file is written to a temporary sibling and renamed into place, so a
crashed run never leaves a half-written artifact.  Numbers carry 17
significant digits (full double round trip).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

__all__ = [
    "atomic_write_text",
    "write_csv",
    "write_json",
    "pole_payload",
]


def atomic_write_text(path: str, text: str, more=()) -> None:
    """Write text, then each str of the iterable more, to path."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.writelines(more)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list, columns) -> None:
    """The header names, then one row per entry of the equal-length columns, as
    %.17g: np.savetxt's bytes, formatted and written 16,384 rows at a time."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    blocks = ("".join([row % tuple(r) for r in table[s:s + 16384].tolist()]) for s in range(0, len(table), 16384))
    atomic_write_text(path, ",".join(header) + "\n", blocks)


def write_json(path: str, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def pole_payload(poles) -> list:
    """JSON-ready pole inventory: position and residue as [re, im] pairs."""
    return [
        {"position": [p.real, p.imag], "residue": [r.real, r.imag]}
        for p, r in poles
    ]
