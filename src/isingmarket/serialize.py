"""The file boundary: input text, JSON reports, CSV tables, run manifests.

Every file a command reads goes through read_bytes and every file it writes
through atomic_write_text, both as UTF-8 whatever the locale.  Artifacts are
written to a temporary file and atomically renamed so a failed run never
leaves a partially overwritten artifact.  No timestamps are emitted;
identical inputs and config produce byte-identical files.  A NaN or an
infinity is never written: the writers raise a DomainError naming the file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, FormatError

recorder: dict | None = None  # when a dict, read_bytes records {str(path): sha256} in it


def read_bytes(path) -> bytes:
    """path's bytes, read once, with '\\r\\n' and a lone '\\r' read as '\\n'.

    Bytes that are not UTF-8 are a FormatError naming path; in UTF-8 a byte 13
    is only ever '\\r', so the fold is the same on the bytes as on the text.
    """
    data = Path(path).read_bytes()
    if recorder is not None:
        recorder[str(path)] = hashlib.sha256(data).hexdigest()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 ({exc})") from exc
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


def _plain(obj):
    """A dataclass as its fields, a numpy array or scalar as a list or number."""
    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, payload) -> None:
    """A dict or dataclass as sorted, indented JSON (np.float64 is a float: repr)."""
    try:
        text = json.dumps(payload, default=_plain, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # a NaN or an infinity
        raise DomainError(f"{path}: {exc}") from exc
    atomic_write_text(Path(path), text + "\n")


def write_csv(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    try:
        for row in rows:
            lines.append(",".join(_cell(value) for value in row))
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"a table cell is {value!r}, not a finite number")
        return repr(float(value))
    return str(value)


def histogram_rows(values: np.ndarray, bins: int):
    """(bin_left, bin_right, density) rows for plotting."""
    density, edges = np.histogram(np.asarray(values, dtype=np.float64),
                                  bins=bins, density=True)
    return [(edges[i], edges[i + 1], density[i]) for i in range(len(density))]


def write_manifest(outdir, command: str, config: dict, inputs: dict, artifacts: list) -> Path:
    """Record the resolved config, seed, versions and input checksums.

    inputs maps each path read to the sha256 of the bytes parsed from it, as
    read_bytes records them.  The output directory itself is deliberately
    not part of the recorded config so reruns into different directories stay
    byte-identical.
    """
    import platform

    from . import __version__

    manifest = {
        "command": command,
        "config": {k: v for k, v in config.items() if k not in ("outdir", "config")},
        "seed": config.get("seed"),
        "versions": {
            "isingmarket": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "inputs": inputs,
        "artifacts": sorted(Path(a).name for a in artifacts),  # all live in outdir
    }
    path = Path(outdir) / f"{command}.manifest.json"
    write_json(path, manifest)
    return path
