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
    "fmt",
    "sampled_rows",
    "field_rows",
    "pole_payload",
]

_FMT = "{:.17g}"


def fmt(x: float) -> str:
    return _FMT.format(float(x))


def atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: str, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def sampled_rows(x: np.ndarray, values: np.ndarray):
    """Rows x, re, im for one complex function of one real variable."""
    for xi, vi in zip(x, values):
        yield (xi, np.real(vi), np.imag(vi))


def field_rows(times: np.ndarray, x: np.ndarray, values: np.ndarray):
    """Rows t, x, re, im for a (times x points) complex field."""
    for ti, row in zip(times, values):
        for xi, vi in zip(x, row):
            yield (ti, xi, np.real(vi), np.imag(vi))


def pole_payload(poles) -> list:
    """JSON-ready pole inventory: position and residue as [re, im] pairs."""
    return [
        {"position": [p.real, p.imag], "residue": [r.real, r.imag]}
        for p, r in poles
    ]
