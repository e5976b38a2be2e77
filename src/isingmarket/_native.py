"""The one loader of the package's C sources, compiled with cc on first use.

load(source, symbol, restype, argtypes) compiles isingmarket/<source> with
_CC into a shared library and returns one of its symbols as a ctypes
function.  The library is cached in _BUILD_DIR as <stem>-<hash>.so, the hash
taken over the source and the compiler command, so an edit to either
rebuilds it and every later process loads the cached file.  A missing
compiler or source, a failed build or a library that does not load raises
KernelBuildError with the compiler's message.  Nothing is built or loaded at
import, and subprocess is imported only when a library must be built.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
from pathlib import Path

from .errors import KernelBuildError

_BUILD_DIR = Path(__file__).with_name("__pycache__")
_CC = ["cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared"]


def _build(command: list[str], library: Path) -> None:
    import subprocess

    _BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # built under a per-process name, then renamed: concurrent first uses never
    # load a half-written library
    partial = library.with_name(f"{library.name}.{os.getpid()}")
    try:
        build = subprocess.run([*command, "-o", str(partial)], capture_output=True, text=True)
        if build.returncode != 0:
            raise KernelBuildError(f"{' '.join(command)} failed", build.stderr)
        os.replace(partial, library)
    finally:
        partial.unlink(missing_ok=True)


@functools.cache
def load(source: str, symbol: str, restype, argtypes: tuple):
    """symbol of the library built from source, with the given ctypes signature."""
    path = Path(__file__).with_name(source)
    command = [*_CC, str(path), "-lm"]
    try:  # a missing source, too, is a KernelBuildError
        tag = hashlib.sha256(path.read_bytes() + repr(command).encode()).hexdigest()
        library = _BUILD_DIR / f"{path.stem}-{tag[:16]}.so"
        if not library.exists():
            _build(command, library)
        function = getattr(ctypes.CDLL(str(library)), symbol)
    except OSError as exc:
        raise KernelBuildError(f"cannot build or load {source} with {_CC[0]}",
                               str(exc)) from exc
    function.restype = restype
    function.argtypes = argtypes
    return function
