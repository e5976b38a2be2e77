"""Core parameter containers: coupling/field models and fit reports.

Energy convention used everywhere in this package::

    E(s) = 0.5 * sum_{i,j} J_ij s_i s_j + sum_i h_i s_i
    p(s) = exp(E(s)) / Z

The double sum runs over both orderings, so a pair (i, j) contributes
J_ij s_i s_j in total.  J is symmetric with an exactly zero diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError


def checked_int(value, least: int, what: str) -> int:
    """value if it is an int >= least (a bool is not one); else FormatError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise FormatError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def energies(coupling: np.ndarray, field: np.ndarray, spins: np.ndarray) -> np.ndarray:
    """E(s) under couplings J and fields h for each row of a (T, N) ±1 array."""
    s = np.asarray(spins, dtype=np.float64)
    return 0.5 * np.einsum("ti,ti->t", s @ coupling, s) + s @ field


@dataclass
class IsingModel:
    """Symmetric zero-diagonal coupling matrix J plus field vector h."""

    J: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=np.float64)
        self.h = np.asarray(self.h, dtype=np.float64)
        self.validate()

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def validate(self) -> None:
        if self.J.ndim != 2 or self.J.shape[0] != self.J.shape[1]:
            raise FormatError("coupling matrix must be square")
        if self.h.ndim != 1 or self.h.shape[0] != self.J.shape[0]:
            raise FormatError("field vector length must match coupling matrix size")
        if not (np.isfinite(self.J).all() and np.isfinite(self.h).all()):
            raise FormatError("couplings and fields must be finite")
        if not np.array_equal(self.J, self.J.T):
            raise FormatError("coupling matrix must be symmetric")
        if np.any(np.diag(self.J) != 0.0):
            raise FormatError("coupling matrix diagonal must be exactly zero")

    def to_dict(self) -> dict:
        return {
            "N": self.n,
            "h": self.h.tolist(),
            "J": self.J.ravel().tolist(),  # row-major, zero diagonal
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IsingModel":
        n = checked_int(d["N"], 1, "N")
        h = np.asarray(d["h"], dtype=np.float64)
        j = np.asarray(d["J"], dtype=np.float64)
        if j.size != n * n:
            raise FormatError(f"J has {j.size} entries, expected {n * n}")
        return cls(J=j.reshape(n, n), h=h)


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Average with the transpose and zero the diagonal."""
    out = 0.5 * (matrix + matrix.T)
    np.fill_diagonal(out, 0.0)
    return out


@dataclass
class FitReport:
    """Inferred model plus convergence metadata.

    residual is the final max-abs gradient of the likelihood fits (exact: the
    moment mismatch; plm: the pseudo-likelihood gradient); None for nmf, tap-inv.
    """

    model: IsingModel
    method: str  # exact | nmf | tap-inv | plm
    iterations: int
    residual: float | None = None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "iterations": self.iterations,
            "residual": None if self.residual is None else float(self.residual),
            "warnings": list(self.warnings),
            "model": self.model.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FitReport":
        return cls(
            model=IsingModel.from_dict(d["model"]),
            method=d["method"],
            iterations=checked_int(d["iterations"], 0, "iterations"),
            residual=None if d.get("residual") is None else float(d["residual"]),
            warnings=list(d.get("warnings", [])),
        )
