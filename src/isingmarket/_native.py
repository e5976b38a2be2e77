"""The package's one door to native code: its C sources, and numpy's OpenBLAS.

load(source, symbol, restype, argtypes) compiles isingmarket/<source> with
_CC into a shared library and returns one of its symbols as a ctypes
function.  The library is cached in _BUILD_DIR as <stem>-<hash>.so, the hash
taken over the source and the compiler command, so an edit to either
rebuilds it and every later process loads the cached file.  A missing
compiler or source, a failed build or a library that does not load raises
KernelBuildError with the compiler's message.  Nothing is built or loaded at
import, and subprocess is imported only when a library must be built.
blas_threads(count) runs a block with numpy's OpenBLAS on at least count threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import threading
from pathlib import Path

from .errors import KernelBuildError

_BUILD_DIR = Path(__file__).with_name("__pycache__")
_CC = ["cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared"]
_GET_THREADS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
_raise_lock = threading.Lock()
_raised = {"blocks": 0}  # open blas_threads blocks, and the count to restore once none is


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


@functools.cache
def _blas_thread_count():
    """(get, set) of numpy's OpenBLAS thread count, or None where it has no such pair."""
    try:
        from numpy.linalg import _umath_linalg

        blas = ctypes.CDLL(_umath_linalg.__file__)  # resolves through the BLAS it links
        get = next(getattr(blas, name) for name in _GET_THREADS if hasattr(blas, name))
        set_ = blas.openblas_set_num_threads_local  # returns the previous count
    except (ImportError, OSError, AttributeError, StopIteration):
        return None
    set_.argtypes = (ctypes.c_int,)
    return get, set_


@contextlib.contextmanager
def blas_threads(count: int):
    """Run the block with numpy's OpenBLAS on at least count threads, or on its own
    count where the BLAS has no getter and setter of it.

    The count is one for the whole process, so the open blocks share it: each
    raises a lower count to its own, none lowers a higher one, and the last to
    close restores the count from before the first raise.
    """
    blas = _blas_thread_count()
    with _raise_lock:
        _raised["blocks"] += 1
        if blas and (before := blas[0]()) < count:
            blas[1](count)
            _raised.setdefault("restore", before)
    try:
        yield
    finally:
        with _raise_lock:
            _raised["blocks"] -= 1
            if not _raised["blocks"] and "restore" in _raised:
                blas[1](_raised.pop("restore"))
