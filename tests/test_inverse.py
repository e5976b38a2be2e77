import contextlib
import json
import math
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

import conftest
from conftest import (homogeneous_model, planted_model, reference_plm, reference_plm_rows,
                      reference_separated_spins, run_fresh, run_joined, spin_matrix)
from isingmarket import (
    IsingModel,
    SamplerConfig,
    SpinMatrix,
    _native,
    empirical_moments,
    exact_moments,
    fit_maxent_exact,
    glauber_sample,
    inverse,
    nmf_invert,
    plm_fit,
    tap_invert,
)
from isingmarket.errors import (
    ConfigError,
    DivergenceError,
    InsufficientSampleError,
    ReliabilityError,
    SingularMatrixError,
)
from isingmarket.ingest import write_spin_csv
from isingmarket.inverse import _moment_preconditioner, _pinned, _plm_rows
from isingmarket.model import FitReport
from isingmarket.moments import MomentSet


def diag_moments(q):
    q = np.asarray(q, dtype=float)
    big_q = np.outer(q, q)
    np.fill_diagonal(big_q, 1.0)
    return MomentSet(q=q, Q=big_q, sample_size=math.inf)


def upper(mat):
    return mat[np.triu_indices(mat.shape[0], k=1)]


# ----------------------------------------------------------------- nmf

def test_nmf_independent_moments():
    q = np.array([0.2, -0.5, 0.7])
    fit = nmf_invert(diag_moments(q))
    assert np.abs(fit.model.J).max() <= 1e-12
    assert np.allclose(fit.model.h, np.arctanh(q))
    assert fit.method == "nmf"


def test_nmf_weak_coupling_recovery():
    from isingmarket import IsingModel

    rng = np.random.default_rng(42)
    n = 12
    coupling = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    coupling[iu] = rng.uniform(-0.5 / n, 0.5 / n, len(iu[0]))  # |J| * N <= 0.5
    true = IsingModel(J=coupling + coupling.T, h=rng.normal(0, 0.2, n))
    fit = nmf_invert(exact_moments(true))
    corr = np.corrcoef(upper(true.J), upper(fit.model.J))[0, 1]
    assert corr >= 0.9


def test_nmf_singular_without_ridge():
    rng = np.random.default_rng(1)
    col = rng.integers(0, 2, 60) * 2 - 1
    other = rng.integers(0, 2, 60) * 2 - 1
    mat = spin_matrix(np.column_stack([col, col, other]))
    moments = empirical_moments(mat)
    with pytest.raises(SingularMatrixError, match="ridge"):
        nmf_invert(moments)
    fit = nmf_invert(moments, ridge=1e-3)
    assert np.isfinite(fit.model.J).all()


# ----------------------------------------------------------------- tap-inv

def test_tap_reduces_to_nmf_at_zero_polarization():
    model = planted_model(6, 0.2, 0.0, 12)  # h = 0 -> q = 0 exactly
    moments = exact_moments(model)
    moments.q[:] = 0.0
    tap = tap_invert(moments)
    nmf = nmf_invert(moments)
    assert np.array_equal(tap.model.J, nmf.model.J)


def test_tap_beats_nmf_at_second_order():
    model = planted_model(10, 0.1, 0.5, 101)
    moments = exact_moments(model)
    err_tap = np.sqrt(np.mean((upper(tap_invert(moments).model.J) - upper(model.J)) ** 2))
    err_nmf = np.sqrt(np.mean((upper(nmf_invert(moments).model.J) - upper(model.J)) ** 2))
    assert err_tap < err_nmf


def test_tap_clamps_insoluble_pairs():
    q = np.array([0.9, 0.9])
    c = np.array([[0.19, -0.1], [-0.1, 0.19]])
    big_q = c + np.outer(q, q)
    np.fill_diagonal(big_q, 1.0)
    moments = MomentSet(q=q, Q=big_q, sample_size=math.inf)
    fit = tap_invert(moments)
    assert fit.warnings and "clamped 1 of 1" in fit.warnings[0]
    assert fit.model.J[0, 1] == pytest.approx(-1.0 / (2 * 0.81))
    with pytest.raises(ReliabilityError):
        tap_invert(moments, strict=True)


def test_mean_field_inversions_warn_like_the_exact_fit_on_an_empty_sign_cell():
    rng = np.random.default_rng(2)
    for rows, pairs in [(rng.choice([-1, 1], size=(7, 6)), "pairs (0, 1), (1, 3), (2, 4)"),
                        (rng.choice([-1, 1], size=(400, 6)), None)]:
        moments = empirical_moments(spin_matrix(rows))
        expected = fit_maxent_exact(moments).warnings
        assert nmf_invert(moments).warnings == tap_invert(moments).warnings == expected
        assert (len(expected) == 1 and f"{pairs} never show" in expected[0]
                if pairs else expected == [])
    # an empty cell of exact moments (a negative one here) comes after the clamp count
    moments = MomentSet(q=np.array([0.9, 0.9]), Q=np.array([[1.0, 0.71], [0.71, 1.0]]),
                        sample_size=math.inf)
    warnings = tap_invert(moments).warnings
    assert len(warnings) == 2 and warnings[0].startswith("clamped 1 of 1")
    assert "pairs (0, 1) never show" in warnings[1]


def _decimal_root(a, c):
    """The second-order root of c = -J - a J^2, or the double root -1/(2a) if none."""
    if 4 * a * c > 1:
        return -1 / (2 * a)
    return -2 * c / (1 + (1 - 4 * a * c).sqrt())


def test_tap_root_to_rounding_against_40_digits():
    # a = q_i q_j just above 1e-6 (where the unrationalized root loses ~1e-10),
    # a = 0 and a < 0, then a clamped pair; each J_ij against a 40-digit root
    # of the program's own C^-1, symmetrized as the program does
    g = np.random.default_rng(5).normal(size=(7, 21))
    cov = g @ g.T
    spread = np.array([1.001e-3, 1.0015e-3, -1.002e-3, 0.0, -0.4, 0.3, 0.6])
    scale = np.sqrt((1.0 - spread**2) / np.diag(cov))
    cases = [(spread, cov * np.outer(scale, scale)),
             (np.array([0.9, 0.9]), np.array([[0.19, -0.1], [-0.1, 0.19]]))]
    for q, c in cases:
        big_q = c + np.outer(q, q)
        np.fill_diagonal(big_q, 1.0)
        moments = MomentSet(q=q, Q=big_q, sample_size=math.inf)
        fit = tap_invert(moments)
        c_inv = np.linalg.inv(moments.C)
        with localcontext() as ctx:
            ctx.prec = 40
            for i, j in zip(*np.triu_indices(q.size, 1)):
                a = Decimal(q[i]) * Decimal(q[j])
                exact = (_decimal_root(a, Decimal(c_inv[i, j]))
                         + _decimal_root(a, Decimal(c_inv[j, i]))) / 2
                error = abs(Decimal(fit.model.J[i, j]) - exact) / abs(exact)
                assert error <= 4 * Decimal(np.finfo(float).eps), (q[i], q[j])
        assert bool(fit.warnings) == (q.size == 2)  # only the second case clamps


def test_tap_symmetric_output():
    model = planted_model(8, 0.15, 0.4, 55)
    fit = tap_invert(exact_moments(model))
    assert np.array_equal(fit.model.J, fit.model.J.T)
    assert np.all(np.diag(fit.model.J) == 0.0)


def test_tap_field_recovery_weak_coupling():
    model = planted_model(10, 0.05, 0.4, 66)
    fit = tap_invert(exact_moments(model))
    assert np.abs(fit.model.h - model.h).max() <= 0.01


# ----------------------------------------------------------------- plm

def test_plm_recovery_from_samples():
    true = planted_model(8, 1.0 / 8, 0.3, 500)
    mat = glauber_sample(true, SamplerConfig(rows=20000, burn_in=500, thin=1, seed=500))
    fit = plm_fit(mat, ridge=1e-3)
    corr = np.corrcoef(upper(true.J), upper(fit.model.J))[0, 1]
    assert corr >= 0.9
    assert fit.method == "plm"


def test_plm_constant_rows_finite_with_ridge():
    mat = spin_matrix(np.tile([1, -1, 1], (40, 1)))
    fit = plm_fit(mat, ridge=0.1)
    assert np.isfinite(fit.model.J).all()
    assert np.isfinite(fit.model.h).all()


def test_plm_strong_ridge_shrinks_to_zero():
    rng = np.random.default_rng(3)
    mat = spin_matrix(rng.integers(0, 2, (200, 3)) * 2 - 1)
    fit = plm_fit(mat, ridge=1e6)
    assert np.abs(fit.model.J).max() <= 1e-4
    assert np.abs(fit.model.h).max() <= 1e-4


def test_plm_separable_spin_diverges_without_ridge():
    rng = np.random.default_rng(4)
    col = rng.integers(0, 2, 80) * 2 - 1
    other = rng.integers(0, 2, 80) * 2 - 1
    # a duplicated column, a constant column, a spin fixed by a weighted vote
    # of seven others (full rank), three rows that separate b (b = -1 whenever
    # a = -1), and spins equal to the majority of three others
    voters = rng.integers(0, 2, (80, 7)) * 2 - 1
    voted = np.sign(voters @ np.arange(1, 8) + 0.5)
    cases = [np.column_stack([col, col, other]),
             np.column_stack([col, np.ones(80), other]),
             np.column_stack([voted, voters]),
             np.array([[1, -1], [1, 1], [-1, -1]])]
    for seed in range(3):
        three = np.random.default_rng(seed).integers(0, 2, (80, 3)) * 2 - 1
        cases.append(np.column_stack([np.sign(three.sum(axis=1)), three]))
    for values in cases:
        mat = spin_matrix(values)
        for tol in (1e-6, 1e-8, 1e-10, 1e-13):
            with pytest.raises(DivergenceError, match="ridge"):
                plm_fit(mat, ridge=0.0, tol=tol)


def test_pinned_marks_constant_and_equal_or_opposite_spins_only():
    rng = np.random.default_rng(8)
    free = rng.integers(0, 2, (60, 4)) * 2 - 1
    cases = [(free, []),
             (np.column_stack([free, np.ones(60)]), [4]),
             (np.column_stack([free, -np.ones(60)]), [4]),
             (np.column_stack([free, free[:, 1]]), [1, 4]),
             (np.column_stack([free, -free[:, 2]]), [2, 4])]
    for values, pinned in cases:
        assert np.flatnonzero(_pinned(values.astype(np.float64))).tolist() == pinned


def one_factor_spins(seed):
    """T in 3..60 rows of N in 2..6 spins driven by one common factor."""
    rng = np.random.default_rng(seed)
    t, n = rng.integers(3, 61), rng.integers(2, 7)
    drive = rng.uniform(0.0, 2.0, n) * rng.normal(size=(t, 1)) + rng.normal(size=(t, n))
    return np.where(drive >= 0.0, 1, -1)


def test_plm_ridge_0_raises_iff_some_spin_is_separated():
    raised = 0
    samples = [one_factor_spins(seed) for seed in range(1000)]
    for seed, (values, lp) in enumerate(zip(samples, reference_separated_spins(samples))):
        mat = spin_matrix(values)
        separated = [mat.tickers[i] for i in lp]
        try:
            plm_fit(mat, ridge=0.0)
            named = []
        except DivergenceError as exc:
            named = re.search(r"for spins (.*); use ridge > 0", str(exc)).group(1).split(", ")
        assert bool(named) == bool(separated), seed
        assert set(separated) <= set(named), seed
        raised += bool(named)
    assert 50 <= raised <= 950  # both outcomes are exercised


def _plm_objective(spins, w, ridge):
    fields = spins @ w.T + (1.0 - spins) * np.diag(w)
    return -np.logaddexp(0.0, -2.0 * spins * fields).mean(axis=0).sum() - ridge * (w**2).sum()


def test_plm_objective_monotone():
    true = planted_model(5, 0.3, 0.3, 7)
    mat = glauber_sample(true, SamplerConfig(rows=2000, burn_in=200, thin=1, seed=7))
    spins = mat.values.astype(float)
    # the solver's path is deterministic: rerunning with max_iter = k gives its k-th iterate
    trace = []
    for k in range(200):
        w, iterations, _ = _plm_rows(spins, 1e-3, 1e-6, k)
        trace.append(_plm_objective(spins, w, 1e-3))
        if iterations < k:
            break
    diffs = np.diff(np.array(trace))
    assert np.all(diffs >= -1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 15])
@pytest.mark.parametrize("ridge", [1e-3, 0.1])
def test_plm_matches_per_spin_reference(n, ridge):
    true = planted_model(n, 1.0 / n, 0.3, 40 + n)
    mat = glauber_sample(true, SamplerConfig(rows=3000, burn_in=200, seed=40 + n))
    fit = plm_fit(mat, ridge=ridge, tol=1e-8)
    coupling, field = reference_plm(mat, ridge, tol=1e-8)
    assert np.abs(fit.model.J - coupling).max() <= 1e-7
    assert np.abs(fit.model.h - field).max() <= 1e-7
    assert fit.residual <= 1e-8


# ---------------------------------------------------- plm preconditioner

def test_moment_preconditioner_solves_each_rows_damped_moment_system():
    # row i of psolve(r) is (c_i G_i + sigma I)^-1 r_i, G_i = A_i^T A_i / T with
    # A_i the spins whose column i is the intercept; a constant and a duplicated
    # spin make G singular, which sigma = 2 ridge + shift must absorb
    rng = np.random.default_rng(3)
    spins = rng.choice([-1.0, 1.0], size=(300, 7))
    spins[:, 2] = 1.0
    spins[:, 5] = -spins[:, 4]
    ridge, shift, weights = 1e-3, 0.05, rng.uniform(0.1, 1.0, 7)
    assert _moment_preconditioner(spins, 0.0) is None
    psolve = _moment_preconditioner(spins, ridge)((weights[None, :],), shift)  # c_i: weights[i]
    r = rng.normal(size=(7, 7))
    z = psolve(r.ravel()).reshape(7, 7)
    for i in range(7):
        a = spins.copy()
        a[:, i] = 1.0
        m = weights[i] * a.T @ a / len(a) + (2.0 * ridge + shift) * np.eye(7)
        assert np.allclose(z[i], np.linalg.solve(m, r[i]), rtol=1e-10, atol=0.0), i


@pytest.mark.parametrize("model, rows, seed", [
    (planted_model(50, 0.02, 0.3, 77), 4809, 77),
    (homogeneous_model(40, 0.5 / 40), 10**4, 40),
    (homogeneous_model(40, 0.5 / math.sqrt(40)), 10**4, 40),
], ids=["4809 x 50", "C13 n=40, J=0.5 over n", "C13 n=40, J=0.5 over sqrt n"])
def test_preconditioned_plm_matches_plain_cg_with_no_more_products(model, rows, seed,
                                                                  monkeypatch):
    # desk_fit's shape and C13's n = 40 samples.  On the ordered one (0.5 / sqrt n)
    # a bare sigma I beside an inverted G took 45 -> 147 products.  Row i's Hessian
    # is no flatter than 2 ridge, so W is known to ~tol / (2 ridge): 5e-8 at tol 1e-10
    spins = glauber_sample(model, SamplerConfig(rows=rows, seed=seed)).values.astype(float)
    products = []

    def counted(solve):
        def counted_newton(evaluate, hessp, *args):
            def counted_hessp(state, v):
                products[-1] += 1
                return hessp(state, v)
            products.append(0)
            return solve(evaluate, counted_hessp, *args)
        return counted_newton

    monkeypatch.setattr(inverse, "newton", counted(inverse.newton))
    monkeypatch.setattr(conftest, "newton", counted(conftest.newton))
    w, _, residual = _plm_rows(spins, 1e-3, 1e-10, 500)
    w_plain, _, residual_plain = reference_plm_rows(spins, 1e-3, 1e-10, 500, precondition=False)
    assert max(residual, residual_plain) <= 1e-10
    assert np.abs(w - w_plain).max() <= 1e-7
    assert products[0] <= products[1]


# ------------------------------------------------ plm on two BLAS threads

_SPLIT_FITS = """
import json, os, numpy as np
from conftest import homogeneous_model, planted_model, reference_plm_rows
from isingmarket import SamplerConfig, _native, glauber_sample
from isingmarket.inverse import _pinned, _plm_rows

def sample(model, rows, seed):
    return glauber_sample(model, SamplerConfig(rows=rows, seed=seed)).values.astype(float)

def tied(spins):  # spin 3 constant, spin 7 opposite to spin 11: rows held at ridge 0
    spins[:, 3] = 1.0
    spins[:, 7] = -spins[:, 11]
    return spins

def tasks():  # the process's threads, the BLAS's own among them
    return len(os.listdir("/proc/self/task"))

def same(spins, ridge):
    held = _pinned(spins) if ridge == 0.0 else None
    w, *rest = _plm_rows(spins, ridge, 1e-8, 500, held)
    with _native.blas_threads(2):  # the count that the fit ran at
        w_ref, *rest_ref = reference_plm_rows(spins, ridge, 1e-8, 500, held)
    return [w.tobytes() == w_ref.tobytes(), rest == rest_ref, rest[0]]

desk = sample(planted_model(50, 0.02, 0.3, 77), 4809, 77)
cases = [(homogeneous_model(40, 0.5 / 40), 10**4, 40), (homogeneous_model(80, 0.5 / 80), 10**4, 80),
         (planted_model(51, 0.02, 0.3, 51), 3000, 51)]
fits = [(desk, 1e-3)] + [(sample(*case), 1e-3) for case in cases] + [(tied(desk.copy()), 0.0)]
found, _native._blas_thread_count = _native._blas_thread_count, lambda: None  # absent
before = tasks()
absent = same(desk, 1e-3) + [tasks() - before]
_native._blas_thread_count = found
print(json.dumps([absent] + [same(*fit) for fit in fits] + [tasks() - before]))
"""


def test_split_plm_matches_the_unsplit_fit_bit_for_bit():
    # all six fits run on two BLAS threads (t n^2 >= 2^22): desk_fit's shape, with
    # the thread-count symbols found absent and then present, C13's n = 40 and
    # n = 80, an odd n, and a ridge-0 fit with held rows.  OpenBLAS blocks a GEMM
    # by its thread count, so the oracle runs at the count of the fit; started at
    # one, the fit that finds no symbols runs on it alone and starts no thread
    rows = json.loads(run_fresh(_SPLIT_FITS, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))
    (*absent, started_absent), *present, started = rows
    assert started_absent == 0 and started >= 1
    for shape, (same_w, same_rest, iterations) in zip(
            ["4809 x 50, symbols absent", "4809 x 50", "C13 n=40", "C13 n=80", "3000 x 51",
             "4809 x 50 held, ridge 0"], [absent, *present]):
        assert same_w and same_rest, shape
        assert iterations >= 3, shape


class _RecordingBlas:
    """A BLAS thread count that records each set; newton reads it during the solve."""

    def __init__(self, count, monkeypatch, fail=False):
        self.count, self.sets, self.seen = count, [], []
        monkeypatch.setattr(_native, "_blas_thread_count", lambda: (self.get, self.set))
        solve = inverse.newton

        def recording_newton(evaluate, hessp, start, *args):
            self.seen.append(self.count)
            if fail:
                evaluate(start)
                raise RuntimeError("injected mid-solve")
            return solve(evaluate, hessp, start, *args)
        monkeypatch.setattr(inverse, "newton", recording_newton)

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        before, self.count = self.count, count
        return before


@pytest.mark.parametrize("rows, count, fail, seen, sets", [
    (4096, 1, False, 2, [2, 1]),  # t n^2 = 4096 * 32^2 = 2^22: raised, then restored
    (4096, 1, True, 2, [2, 1]),   # restored also when the solve raises
    (4095, 1, False, 1, []),      # one row below the gate: never set
    (4096, 4, False, 4, []),      # a higher count is never lowered
])
def test_a_plm_fit_raises_the_blas_count_from_the_gate_on_and_restores_it(
        monkeypatch, rows, count, fail, seen, sets):
    values = np.random.default_rng(5).choice([-1, 1], size=(rows, 32)).astype(float)
    blas = _RecordingBlas(count, monkeypatch, fail)
    with pytest.raises(RuntimeError, match="mid-solve") if fail else contextlib.nullcontext():
        _plm_rows(values, 1e-3, 1e-8, 2)
    assert (blas.seen, blas.sets, blas.count) == ([seen], sets, count)


def test_concurrent_fits_share_one_raise_of_the_blas_count():
    # started at one BLAS thread, every Hessian product of a fit above the gate runs
    # on two, also while other fits open and close around it, and one is left after
    code = """
import numpy as np
from conftest import run_joined, spin_matrix
from isingmarket import _native, inverse, plm_fit

get, solve, seen = _native._blas_thread_count()[0], inverse.newton, set()

def recording_newton(evaluate, hessp, *args):
    def recording_hessp(state, v):
        seen.add(get())
        return hessp(state, v)
    return solve(evaluate, recording_hessp, *args)

inverse.newton = recording_newton
mat = spin_matrix(np.random.default_rng(7).choice([-1, 1], size=(4096, 32)))
before, alone = get(), plm_fit(mat, max_iter=3).model.J

def fit_alike():
    assert np.array_equal(plm_fit(mat, max_iter=3).model.J, alone)

assert run_joined([fit_alike] * 8) == [None] * 8
print(before, sorted(seen), get())
"""
    assert run_fresh(code, OPENBLAS_NUM_THREADS="1").split() == ["1", "[2]", "1"]


def test_split_fits_under_contention_match_the_fit_alone():
    # four concurrent fits on two cores with a short switch interval: a fit whose
    # BLAS count another fit's exit changes mid-solve, or that reads a workspace
    # another fit writes, changes W
    mat = spin_matrix(np.random.default_rng(7).choice([-1, 1], size=(4096, 32)))
    alone = plm_fit(mat, max_iter=3).model.J

    def fit_alike():
        assert np.array_equal(plm_fit(mat, max_iter=3).model.J, alone)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_joined([fit_alike] * 4) == [None] * 4
    finally:
        sys.setswitchinterval(interval)


def test_a_split_fit_under_two_blas_threads_repeats_itself(tmp_path):
    spins = tmp_path / "spins.csv"  # t n^2 = 2048 * 48^2, above the gate
    write_spin_csv(spin_matrix(np.random.default_rng(6).choice([-1, 1], size=(2048, 48))), spins)
    code = "import sys; from isingmarket.cli import main; sys.exit(main(sys.argv[1:]))"
    fits = []
    for run in ("a", "b"):
        run_fresh(code, "fit", "--method", "plm", "--spins", str(spins),
                   "-o", str(tmp_path / run), OPENBLAS_NUM_THREADS="2")
        fits.append((tmp_path / run / "fit.json").read_bytes())
    assert fits[0] == fits[1]


# ------------------------------------------------------------- common

@pytest.mark.parametrize("method", ["nmf", "tap-inv", "plm"])
def test_equivariance_under_relabeling(method):
    true = planted_model(6, 0.15, 0.3, 31)
    mat = glauber_sample(true, SamplerConfig(rows=4000, burn_in=200, thin=1, seed=31))
    perm = np.array([3, 1, 5, 0, 4, 2])
    permuted = SpinMatrix(tickers=[mat.tickers[i] for i in perm],
                          dates=mat.dates, values=mat.values[:, perm])

    def run(matrix):
        if method == "plm":
            return plm_fit(matrix, ridge=1e-3)
        moments = empirical_moments(matrix)
        return nmf_invert(moments) if method == "nmf" else tap_invert(moments)

    base = run(mat)
    swapped = run(permuted)
    assert np.allclose(swapped.model.J, base.model.J[np.ix_(perm, perm)], atol=1e-7)
    assert np.allclose(swapped.model.h, base.model.h[perm], atol=1e-7)


def test_residual_ladder_on_one_instance():
    model = planted_model(10, 0.1, 0.5, 110)
    moments = exact_moments(model)
    err = {}
    err["exact"] = np.sqrt(np.mean((upper(fit_maxent_exact(moments).model.J)
                                    - upper(model.J)) ** 2))
    err["tap"] = np.sqrt(np.mean((upper(tap_invert(moments).model.J)
                                  - upper(model.J)) ** 2))
    err["nmf"] = np.sqrt(np.mean((upper(nmf_invert(moments).model.J)
                                  - upper(model.J)) ** 2))
    assert err["exact"] <= err["tap"] <= err["nmf"]


def test_fit_report_round_trip():
    fit = nmf_invert(diag_moments(np.array([0.1, -0.2, 0.3])))
    back = FitReport.from_dict(fit.to_dict())
    assert back.method == fit.method
    assert np.allclose(back.model.J, fit.model.J)
    assert np.allclose(back.model.h, fit.model.h)
    assert back.residual is None


# ----------------------------------------------------------------- registry

def test_fit_registry_matches_direct_calls():
    from isingmarket import inverse

    model = planted_model(5, 0.2, 0.3, 31)
    spins = glauber_sample(model, SamplerConfig(rows=2000, burn_in=200, seed=32))
    moments = empirical_moments(spins)
    direct = {
        "exact": fit_maxent_exact(moments, tol=1e-9),
        "nmf": nmf_invert(moments, ridge=0.01),
        "tap-inv": tap_invert(moments, ridge=0.01),
        "plm": plm_fit(spins, ridge=0.01, tol=1e-9),
    }
    assert list(direct) == list(inverse.FIT_METHODS)
    for method, expected in direct.items():
        # options a solver does not take, or left None, are dropped
        got = inverse.fit(method, spins, ridge=0.01, tol=1e-9, max_iter=None, strict=False)
        assert got.method == expected.method
        assert got.iterations == expected.iterations
        assert np.array_equal(got.model.J, expected.model.J), method
        assert np.array_equal(got.model.h, expected.model.h), method
    assert inverse.fit("plm", spins, max_iter=2).iterations == 2
    with pytest.raises(ConfigError):
        inverse.fit("plm", moments)
    with pytest.raises(ConfigError):
        inverse.fit("bogus", moments)


@pytest.mark.parametrize("fit, error", [
    (lambda: tap_invert(diag_moments([1.0, 0.2])), DivergenceError),
    (lambda: plm_fit(SpinMatrix(["a", "b"], ["d"], np.array([[1, -1]]))),
     InsufficientSampleError),
    (lambda: plm_fit(SpinMatrix(["a", "b"], ["d", "e"], np.array([[1, -1], [-1, -1]])),
                     ridge=-0.1), DivergenceError),
])
def test_inversions_reject_inputs_outside_their_domain(fit, error):
    with pytest.raises(error):
        fit()


def test_fit_registry_calls_the_current_module_binding(monkeypatch):
    from isingmarket import inverse, noise_ratio

    calls = []
    original = inverse.tap_invert

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(inverse, "tap_invert", spy)
    fit = FitReport(model=planted_model(6, 0.1, 0.0, 33), method="tap-inv", iterations=1)
    noise_ratio(fit, SamplerConfig(rows=500, burn_in=50, seed=34), "tap-inv")
    assert calls == [{}]
