"""Shared helpers: planted models, test runners and independent brute-force oracles.

planted_model draws a model with Gaussian couplings; homogeneous_model builds
C13's planted models, one coupling off the diagonal and h = 0.  spin_matrix
labels a table of spins t0.. by d0.. and hands its values to SpinMatrix as
given, so they are checked before the int8 cast.  run_fresh runs code in a
fresh interpreter that imports this package and this module, and fails its
test after FRESH_TIMEOUT seconds, as every child process of the tests does;
run_joined runs calls each on a thread of its own, joined with a timeout.

The oracles enumerate configurations with itertools and per-state arithmetic,
deliberately avoiding the package's blockwise split-spin enumeration.
reference_glauber is the sampler's sweep loop in plain Python, the oracle
that the compiled kernel must reproduce bit for bit.  reference_plm fits the
pseudo-likelihood one spin at a time, each with its own dense Newton solve and
Armijo line search: the oracle for the joint fit in inverse.plm_fit.
reference_plm_rows is that joint fit written plainly, the oracle that
inverse._plm_rows must match bit for bit when both run at one BLAS thread
count; it takes the package's moment preconditioner, or with
precondition=False solves by plain CG, the oracle for that preconditioner.
reference_separated_spins finds the spins whose conditional likelihood some
direction separates, in many spin matrices by one linear program, the oracle
for the ridge-0 existence check in inverse.plm_fit.
reference_parse_ohlc and reference_binarize are the per-row csv parser and the
dict-per-ticker binarization, the oracles for the bulk parse and the array
join in isingmarket.ingest; reference_write_spin_csv is the per-row spin-file
writer, the oracle for the byte-mask cell text of ingest.write_spin_csv;
reference_loadtxt_spins reads a spin-file body through np.loadtxt, the oracle
for the byte-mask reader _plain_spins below; reference_first_bad_line checks
a body's lines one at a time, the oracle for the first bad line that the C
spin scan (scanned_first_bad_line) and the bisection _first_bad_line report.
numpy_parse_ohlc and numpy_read_spin_csv are the numpy routes that the C
scan of isingmarket/_scan.c replaced, kept as its differential oracles.
The autouse fixture no_pool_thread_outlives_a_test fails every test after which
a thread of the sampler's one-worker pool is still alive.
"""

import csv
import io
import itertools
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from threading import Thread

import numpy as np
import pytest

from isingmarket import IsingModel
from isingmarket.errors import AlignmentError, DivergenceError, EmptyInputError, FormatError
from isingmarket.ingest import (_EPOCH_ORDINAL, OhlcFormat, PriceSeries, SpinMatrix,
                                _row_rule, _scan_spins)
from isingmarket.inverse import _moment_preconditioner
from isingmarket.newton import newton
from isingmarket.sampler import _SWEEP_BATCH


def brute_states(n):
    return [np.array(s, dtype=float) for s in itertools.product([-1.0, 1.0], repeat=n)]


def brute_energy(J, h, s):
    n = len(h)
    e = 0.0
    for i in range(n):
        e += h[i] * s[i]
        for j in range(n):
            e += 0.5 * J[i, j] * s[i] * s[j]
    return e


def brute_log_partition(J, h):
    energies = [brute_energy(J, h, s) for s in brute_states(len(h))]
    peak = max(energies)
    return peak + math.log(sum(math.exp(e - peak) for e in energies))


def brute_probabilities(J, h):
    energies = np.array([brute_energy(J, h, s) for s in brute_states(len(h))])
    weights = np.exp(energies - energies.max())
    return weights / weights.sum()


def brute_moments(J, h):
    n = len(h)
    p = brute_probabilities(J, h)
    states = brute_states(n)
    q = np.zeros(n)
    big_q = np.zeros((n, n))
    for prob, s in zip(p, states):
        q += prob * s
        big_q += prob * np.outer(s, s)
    return q, big_q


def brute_entropy(J, h):
    p = brute_probabilities(J, h)
    return float(-(p * np.log(p)).sum())


def planted_model(n, j_sd, h_sd, seed, h_dist="normal"):
    rng = np.random.default_rng(seed)
    coupling = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    coupling[iu] = rng.normal(0.0, j_sd, len(iu[0]))
    coupling = coupling + coupling.T
    if h_dist == "uniform":
        h = rng.uniform(-h_sd, h_sd, n)
    else:
        h = rng.normal(0.0, h_sd, n)
    return IsingModel(J=coupling, h=h)


def homogeneous_model(n, coupling):  # C13's planted models
    couplings = np.full((n, n), coupling)
    np.fill_diagonal(couplings, 0.0)
    return IsingModel(J=couplings, h=np.zeros(n))


def spin_matrix(values, tickers=None):
    """values, as given, in a SpinMatrix: tickers t0.. unless given, dates d0.."""
    values = np.asarray(values)
    t, n = values.shape
    return SpinMatrix(tickers or [f"t{i}" for i in range(n)], [f"d{k}" for k in range(t)], values)


FRESH_TIMEOUT = 120  # seconds a child process may take before its test fails


def run_fresh(code, *args, **env):
    """stdout of code run by a fresh interpreter that imports this package and conftest."""
    path = os.pathsep.join(str(Path(__file__).parents[1] / d) for d in ("src", "tests"))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, timeout=FRESH_TIMEOUT,
                          env=dict(os.environ, PYTHONPATH=path, **env)).stdout


def run_joined(calls, timeout=60.0):
    """What each call raised, or None, each run on a thread of its own joined with a
    timeout so that a hang fails the test instead of blocking it.  The threads are
    made by Thread as imported here, which a test that patches threading.Thread
    does not count."""
    raised = [None] * len(calls)

    def run(k):
        try:
            calls[k]()
        except BaseException as exc:
            raised[k] = exc

    runners = [Thread(target=run, args=(k,), daemon=True) for k in range(len(calls))]
    for runner in runners:
        runner.start()
    for runner in runners:
        runner.join(timeout)
    assert not any(runner.is_alive() for runner in runners), "a call did not return"
    return raised


def reference_glauber(model, config):
    """The (rows, N) int8 values glauber_sample must return, one Python step per update."""
    n = model.n
    rng = np.random.default_rng(config.seed)
    coupling = model.J
    h = model.h

    s = (rng.integers(0, 2, size=n) * 2 - 1).astype(np.float64)
    fields = coupling @ s
    out = np.empty((config.rows, n), dtype=np.int8)

    total_sweeps = config.burn_in + config.rows * config.thin
    recorded = 0
    base = np.tile(np.arange(n), (_SWEEP_BATCH, 1))
    exp = math.exp
    for start in range(0, total_sweeps, _SWEEP_BATCH):
        batch = min(_SWEEP_BATCH, total_sweeps - start)
        orders = rng.permuted(base[:batch], axis=1)
        uniforms = rng.random((batch, n))
        for k in range(batch):
            order = orders[k]
            u = uniforms[k]
            for slot in range(n):
                i = order[slot]
                z = 2.0 * (h[i] + fields[i])
                if z > 40.0:
                    new = 1.0
                elif z < -40.0:
                    new = -1.0
                else:
                    new = 1.0 if u[slot] < 1.0 / (1.0 + exp(-z)) else -1.0
                if new != s[i]:
                    s[i] = new
                    fields += coupling[:, i] * (2.0 * new)
            sweep = start + k + 1
            if sweep > config.burn_in and (sweep - config.burn_in) % config.thin == 0:
                out[recorded] = s
                recorded += 1
        fields = coupling @ s  # shed accumulated rounding between batches
    return out


def _log_sigma(z: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -z)


def _plm_single_spin(
    spins: np.ndarray,
    index: int,
    ridge: float,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int, list[float]]:
    """Newton ascent of one spin's conditional log-likelihood.

    Objective (concave in w = (h_i, J_i.)):
        mean_t log sigma(2 s_i(t) * (phi_t . w)) - ridge * |w|^2
    with phi_t = (1, s_{-i}(t)).  Returns (w, iterations, objective trace).
    """
    t = spins.shape[0]
    y = spins[:, index]
    phi = spins.copy()
    phi[:, index] = 1.0  # intercept slot

    w = np.zeros(phi.shape[1])
    z = 2.0 * y * (phi @ w)

    def objective(z_vals, w_vals):
        return _log_sigma(z_vals).mean() - ridge * (w_vals @ w_vals)

    obj = objective(z, w)
    trace = [obj]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        sigma = 0.5 * (1.0 + np.tanh(0.5 * z))  # overflow-free logistic
        grad = (2.0 / t) * (phi.T @ (y * (1.0 - sigma))) - 2.0 * ridge * w
        if np.abs(grad).max() < tol:
            break
        weights = 4.0 * sigma * (1.0 - sigma) / t
        hessian = phi.T @ (phi * weights[:, None]) + 2.0 * ridge * np.eye(w.size)
        try:
            direction = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            raise DivergenceError(
                f"spin {index}: conditional likelihood is flat "
                "(deterministic spin); use ridge > 0"
            )
        step = 1.0
        for _ in range(60):
            candidate = w + step * direction
            z_new = 2.0 * y * (phi @ candidate)
            obj_new = objective(z_new, candidate)
            if obj_new >= obj + 1e-4 * step * (grad @ direction):
                break
            step *= 0.5
        w, z, obj = candidate, z_new, obj_new
        trace.append(obj)
        if ridge == 0.0 and np.abs(w).max() > 30.0:
            raise DivergenceError(
                f"spin {index} is (near) deterministic given the others; "
                "the unregularized fit diverges, use ridge > 0"
            )
    return w, iterations, trace


def reference_plm(matrix, ridge, tol=1e-8, max_iter=500):
    """(J, h) of the pseudo-likelihood fit, one Newton solve per spin."""
    spins = matrix.values.astype(np.float64)
    n = matrix.n
    raw = np.zeros((n, n))
    h = np.zeros(n)
    for i in range(n):
        w, _, _ = _plm_single_spin(spins, i, ridge, tol, max_iter)
        h[i] = w[i]
        raw[i] = w
        raw[i, i] = 0.0
    coupling = 0.5 * (raw + raw.T)
    np.fill_diagonal(coupling, 0.0)
    return coupling, h


def reference_plm_rows(spins: np.ndarray, ridge: float, tol: float, max_iter: int,
                       held: np.ndarray | None = None, precondition: bool = True):
    """Asymmetric pseudo-likelihood estimate W, one row per spin.

    Row i holds (J_i., h_i on the diagonal); spin i's local fields are column i
    of F = S J^T + h (J: W off its diagonal, h: diag W).  The concave objective
        sum_i [ mean_t log sigma(2 s_i(t) F_i(t)) - ridge |W_i.|^2 ]
    is maximized by the shared damped Newton-CG solver, with two GEMMs per
    gradient and per Hessian product.  The rows that the mask held selects stay
    at zero; the rows are separate problems, so the others are fitted as alone.
    With precondition, the CG solves take inverse._moment_preconditioner, as
    in _plm_rows; without it, they are plain CG.
    Returns (W, iterations, max-abs gradient).
    """
    t, n = spins.shape

    def fields(w: np.ndarray) -> np.ndarray:
        out = spins @ (w - np.diag(np.diag(w))).T
        out += np.diag(w)
        return out

    def rows_times_design(a: np.ndarray) -> np.ndarray:  # row i: a[:, i] @ (S, column i = 1)
        out = a.T @ spins
        np.fill_diagonal(out, a.sum(axis=0))
        return out

    def evaluate(x: np.ndarray):
        w = x.reshape(n, n)
        miss = 1.0 - np.tanh(spins * fields(w))  # 2 (1 - sigma(2 s F))
        gradient = rows_times_design(spins * miss) / t - 2.0 * ridge * w
        if held is not None:
            gradient[held] = 0.0
        miss *= 2.0 - miss  # 4 sigma (1 - sigma), the Hessian weights
        return miss, gradient.ravel()

    def hessp(state, v: np.ndarray) -> np.ndarray:
        v = v.reshape(n, n)
        weighted = fields(v)
        weighted *= state[0]
        return (rows_times_design(weighted) / t + 2.0 * ridge * v).ravel()

    preconditioner = _moment_preconditioner(spins, ridge) if precondition else None
    x, iterations, residual = newton(evaluate, hessp, np.zeros(n * n), tol, max_iter,
                                     preconditioner)
    return x.reshape(n, n), iterations, residual


def reference_separated_spins(matrices) -> list[list[int]]:
    """Per spin matrix, the spins whose rows a_t = s_i(t) (1, s_j(t), j != i) some w separates.

    Such a w has a_t . w >= 0 on every row and > 0 on some, so the spin's
    unregularized conditional likelihood has no finite maximum (Albert &
    Anderson, Biometrika 71:1, 1984).  One sparse LP holds every spin of every
    matrix in its own block: maximize sum_t a_t . w_i over 0 <= a_t . w_i <= 1.
    The blocks share no variable, so each is at its own optimum: 0, or at
    least 1 where w_i separates.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    blocks = []
    for values in matrices:
        spins = np.asarray(values, dtype=np.float64)
        n = spins.shape[1]
        rows = spins.T[:, :, None] * spins  # [i, t, j] = s_i(t) s_j(t)
        rows[np.arange(n), :, np.arange(n)] = spins.T  # the intercept's slot
        blocks += [sparse.csr_array(block) for block in rows]
    a = sparse.block_diag(blocks, format="csr")
    m = a.shape[0]
    result = linprog(-a.sum(axis=0), A_ub=sparse.vstack([-a, a]),
                     b_ub=np.concatenate([np.zeros(m), np.ones(m)]),
                     bounds=(None, None), method="highs")
    assert result.status == 0, result.message
    fitted = a @ result.x
    separated, start = [], 0
    for values in matrices:
        t, n = np.shape(values)
        block = fitted[start:start + n * t].reshape(n, t)
        separated.append(np.flatnonzero(block.sum(axis=1) > 0.5).tolist())
        start += n * t
    return separated


@dataclass
class ReferenceSeries:
    """The row-list PriceSeries that reference_parse_ohlc returns.

    Per-ticker open/close rows, sorted by strictly increasing date.

    dropped counts rows discarded during parsing (bad prices, bad dates,
    duplicate dates); high/low/volume columns are ignored.
    """

    ticker: str
    rows: list[tuple[date, float, float]]
    dropped: int = 0

    @property
    def dates(self) -> list[date]:
        return [r[0] for r in self.rows]


def _reference_parse_date(text: str, fmt: OhlcFormat) -> date:
    if fmt.date_format is None:
        return date.fromisoformat(text.strip())
    return datetime.strptime(text.strip(), fmt.date_format).date()


def reference_parse_ohlc(text, fmt: OhlcFormat | None = None, ticker: str = "") -> ReferenceSeries:
    """Parse one delimiter-separated OHLC stream into a PriceSeries.

    Rows with non-positive or unparseable open/close (or an unparseable or
    duplicate date) are dropped and counted rather than failing the file.
    """
    fmt = fmt or OhlcFormat()
    if isinstance(text, str):
        text = io.StringIO(text)
    reader = csv.reader(text, delimiter=fmt.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError(f"{ticker or 'input'}: no header row")
    header = [h.strip() for h in header]
    try:
        i_date = header.index(fmt.date_column)
        i_open = header.index(fmt.open_column)
        i_close = header.index(fmt.close_column)
    except ValueError as exc:
        raise FormatError(
            f"{ticker or 'input'}: header {header!r} is missing a mapped column "
            f"({fmt.date_column}/{fmt.open_column}/{fmt.close_column})"
        ) from exc

    rows: list[tuple[date, float, float]] = []
    dropped = 0
    for record in reader:
        if not record or all(not cell.strip() for cell in record):
            continue
        try:
            d = _reference_parse_date(record[i_date], fmt)
            o = float(record[i_open])
            c = float(record[i_close])
        except (ValueError, IndexError):
            dropped += 1
            continue
        if o <= 0.0 or c <= 0.0:
            dropped += 1
            continue
        rows.append((d, o, c))

    if not rows:
        raise EmptyInputError(f"{ticker or 'input'}: no valid OHLC rows")

    # Stable sort keeps file order among equal dates; keep the first, count the rest.
    rows.sort(key=lambda r: r[0])
    unique: list[tuple[date, float, float]] = []
    for row in rows:
        if unique and unique[-1][0] == row[0]:
            dropped += 1
            continue
        unique.append(row)
    return ReferenceSeries(ticker=ticker, rows=unique, dropped=dropped)


def reference_binarize(series: list[ReferenceSeries]) -> SpinMatrix:
    """Align tickers on their common dates and binarize open-to-close moves.

    Entry is +1 when close >= open and -1 when close < open.  Any day missing
    from at least one ticker is dropped.
    """
    if not series:
        raise EmptyInputError("no price series to binarize")
    common = set(series[0].dates)
    for s in series[1:]:
        common &= set(s.dates)
    if not common:
        ranges = ", ".join(
            f"{s.ticker}: {s.rows[0][0].isoformat()}..{s.rows[-1][0].isoformat()}"
            for s in series
        )
        raise AlignmentError(f"no common dates across tickers ({ranges})")

    dates = sorted(common)
    values = np.empty((len(dates), len(series)), dtype=np.int8)
    for j, s in enumerate(series):
        by_date = {d: (o, c) for d, o, c in s.rows}
        for i, d in enumerate(dates):
            o, c = by_date[d]
            values[i, j] = 1 if c >= o else -1
    return SpinMatrix(
        tickers=[s.ticker for s in series],
        dates=[d.isoformat() for d in dates],
        values=values,
    )


def reference_write_spin_csv(matrix: SpinMatrix, path) -> None:
    """The spin file, header 'date,<tickers...>' and one line per row, joined per row."""
    lines = [",".join(["date"] + list(matrix.tickers))]
    cells = np.where(matrix.values > 0, "1", "-1")
    lines += [d + "," + ",".join(row.tolist()) for d, row in zip(matrix.dates, cells)]
    Path(path).write_text("\n".join(lines) + "\n")


def reference_loadtxt_spins(body: str, width: int, path):
    """(dates, values) of any spin-file body of width fields a line, through np.loadtxt."""
    lines = [line for line in body.split("\n") if line]
    if not lines:
        raise EmptyInputError(f"{path}: no spin rows")
    table = {"delimiter": ",", "comments": None, "quotechar": '"'}
    try:
        # every column is read, so loadtxt itself rejects rows of differing widths
        values = np.loadtxt(lines, dtype=np.int64, converters={0: lambda date: 0},
                            ndmin=2, **table)
    except ValueError as exc:
        raise FormatError(f"{path}: bad spin rows ({exc})") from exc
    if values.shape[1] != width:
        raise FormatError(f"{path}: rows have {values.shape[1]} cells, expected {width}")
    if np.any(np.abs(values) > 1):  # SpinMatrix's int8 cast would wrap these around
        raise FormatError(f"{path}: spin cell outside -1..1")
    dates = np.loadtxt(lines, dtype=str, usecols=0, ndmin=1, **table).tolist()
    return dates, values[:, 1:]


def reference_first_bad_line(body: str, n: int) -> int:
    """Index of the first line of body, split at '\\n', that is not plain on its own."""
    return next(k for k, line in enumerate(body.split("\n")) if _plain_spins(line, n) is None)


def scanned_first_bad_line(lines: list[str], n: int) -> int:
    """The first bad line that ingest's C spin scan reports for a body split at '\\n'."""
    return _scan_spins("\n".join(lines).encode(), n)


# The numpy routes of isingmarket.ingest that the C scan of _scan.c replaced,
# kept verbatim as its oracles: numpy_parse_ohlc is parse_ohlc with
# _bulk_rows (over _iso_days and _decimals), and numpy_read_spin_csv is
# read_spin_csv with _plain_spins and the bisection _first_bad_line.

# Code points less ord("0"), wrapped around in uint32: digits are 0..9.
_ZERO = np.uint32(ord("0"))
_DASH = np.uint32((ord("-") - ord("0")) % 2**32)
_DOT = np.uint32((ord(".") - ord("0")) % 2**32)
# A price cell is converted in bulk when it is at most 16 ASCII digits and
# '.'s, one '.' at most.  Then its digits form an integer that int64 holds
# exactly; with a '.' it has 15 digits at most, so it is below 2**53 and so is
# the power of ten it is divided by.  Either way the result is rounded once,
# to the nearest double, exactly as float() rounds.
_MAX_CHARS = 16
_POW10 = 10 ** np.arange(_MAX_CHARS, dtype=np.int64)


def _iso_days(codes: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Cells that are strict YYYY-MM-DD calendar dates, as datetime64[D].

    Returns (days, ok); ok is False where a cell is anything else.
    """
    c = (codes[np.minimum(start + np.arange(10)[:, None], codes.size - 1)]
         - _ZERO).astype(np.int64)
    ok = ((end - start == 10) & (c[[0, 1, 2, 3, 5, 6, 8, 9]] < 10).all(axis=0)
          & (c[4] == _DASH) & (c[7] == _DASH))
    year = ((c[0] * 10 + c[1]) * 10 + c[2]) * 10 + c[3]
    month = c[5] * 10 + c[6]
    day = c[8] * 10 + c[9]
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + np.where(ok, day - 1, 0)
    ok &= days.astype("datetime64[M]") == months  # a day past the month's end rolls over
    return days, ok


def _decimals(codes: np.ndarray, start: np.ndarray, end: np.ndarray):
    """Cells of at most 16 ASCII digits with at most one '.', as float64.

    Returns (values, ok); ok is False where a cell is anything else.  The
    cells are read right-aligned, a column at a time; columns left of a
    cell read the character before it and count nothing.
    """
    length = end - start
    width = int(min(length.max(initial=0), _MAX_CHARS))
    before = start - 1
    mantissa = digits = dots = lead = np.zeros(start.size, dtype=np.int64)
    for j in range(width, 0, -1):
        c = codes[np.maximum(end - j, before)] - _ZERO
        inside = end - j > before  # else a '.' or digit delimiter would count
        digit = inside & (c < 10)
        dot = inside & (c == _DOT)
        mantissa = np.where(digit, mantissa * 10 + c, mantissa)
        lead = np.where(dot, digits, lead)  # digits ahead of the '.'
        digits = digits + digit
        dots = dots + dot
    ok = (digits + dots == length) & (dots <= 1) & (digits >= 1)
    return mantissa / _POW10[np.where(ok & (dots == 1), digits - lead, 0)], ok


def _bulk_rows(text: str, cols: tuple[int, int, int], cells: int, fmt: OhlcFormat):
    """The row rule's result, computed in bulk, for text with one record per '\\n' line.

    Line 0 is the header.  The lines with the header's cell count are
    tokenized and converted in bulk, on the text's code points; a line whose
    cells the bulk rules reject goes alone through the row rule.
    """
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    breaks = np.flatnonzero(codes == ord("\n"))
    starts, ends = breaks + 1, np.append(breaks[1:], codes.size)  # lines 1, 2, ...
    delims = np.flatnonzero(codes == ord(fmt.delimiter))
    before = np.searchsorted(delims, starts)  # delimiters ahead of each line
    at = np.flatnonzero(np.searchsorted(delims, ends) - before == cells - 1)

    def column(j: int):
        start = starts[at] if j == 0 else delims[before[at] + j - 1] + 1
        end = ends[at] if j == cells - 1 else delims[before[at] + j]
        return start, end

    i_date, i_open, i_close = cols
    days, ok = _iso_days(codes, *column(i_date))
    opens, ok_open = _decimals(codes, *column(i_open))
    closes, ok_close = _decimals(codes, *column(i_close))
    ok &= ok_open & ok_close & (opens > 0.0) & (closes > 0.0)
    rejected = np.ones(starts.size, dtype=bool)
    rejected[at[ok]] = False
    bounds = zip(starts[rejected].tolist(), ends[rejected].tolist())
    # with no '"' and no '\r', split cuts a line as csv.reader does (a blank
    # line gives [''], not [], and the row rule skips either)
    slow, dropped = _row_rule(((start, text[start:end].split(fmt.delimiter))
                               for start, end in bounds), cols, fmt)
    fast = np.column_stack([starts[at[ok]], days[ok].astype(np.int64) + _EPOCH_ORDINAL,
                            opens[ok], closes[ok]])
    return np.concatenate([fast, slow]), dropped


def numpy_parse_ohlc(text, fmt: OhlcFormat | None = None, ticker: str = "") -> PriceSeries:
    """Parse one delimiter-separated OHLC text into a PriceSeries.

    text is a str, whose lines end at '\\n' as io.StringIO splits them, or any
    iterable of lines, such as a text stream, whose lines end where it ends them.
    Rows with non-positive, non-finite or unparseable open/close (or an
    unparseable or duplicate date) are dropped and counted rather than
    failing the file.

    The route is chosen once per input.  A str with no '"' and no '\\r' (once
    '\\r\\n' is folded to '\\n') holds one record per line; with ISO-8601
    dates its lines are parsed in bulk.  Everything else goes through
    csv.reader and the row rule, one record at a time.
    """
    fmt = fmt or OhlcFormat()
    unquoted = isinstance(text, str) and '"' not in text
    if unquoted and "\r" in text:
        text = text.replace("\r\n", "\n")  # each record still ends its line
    bulk = unquoted and "\r" not in text and fmt.date_format is None
    if bulk:  # the header is line 0
        lines = [text.partition("\n")[0]] if text else []
    else:
        lines = io.StringIO(text) if isinstance(text, str) else text
    records = csv.reader(lines, delimiter=fmt.delimiter)
    header = next(records, None)
    if header is None:
        raise EmptyInputError(f"{ticker or 'input'}: no header row")
    header = [h.strip() for h in header]
    try:
        cols = tuple(header.index(c) for c in (fmt.date_column, fmt.open_column,
                                               fmt.close_column))
    except ValueError as exc:
        raise FormatError(
            f"{ticker or 'input'}: header {header!r} is missing a mapped column "
            f"({fmt.date_column}/{fmt.open_column}/{fmt.close_column})"
        ) from exc
    if bulk:
        rows, dropped = _bulk_rows(text, cols, len(header), fmt)
    else:
        rows, dropped = _row_rule(enumerate(records), cols, fmt)
    if not rows.size:
        raise EmptyInputError(f"{ticker or 'input'}: no valid OHLC rows")

    # File order among equal dates; keep the first, count the rest.
    order = np.lexsort((rows[:, 0], rows[:, 1]))
    days = rows[order, 1]
    keep = order[np.append(True, days[1:] != days[:-1])]
    dropped += int(rows.shape[0] - keep.size)
    days = (rows[keep, 1].astype(np.int64) - _EPOCH_ORDINAL).astype("datetime64[D]")
    return PriceSeries(ticker=ticker, dates=days, open=rows[keep, 2], close=rows[keep, 3],
                       dropped=dropped)


_NEWLINE, _COMMA, _DASH_BYTE, _ONE = (ord(c) for c in "\n,-1")


def _plain_spins(body: str, n: int):
    """(dates, values) of a plain spin-file body, or None if the body is not plain.

    Plain: no '"' and no NUL, and every line a date and then n cells that are
    each exactly '1' or '-1' (so no line is blank).  Such a body is read from
    the UTF-8 bytes just ahead of each ',' or '\\n', gathered at one offset per
    field; those two bytes occur inside no multi-byte character.  The date is
    the text before a line's first ','.
    """
    if '"' in body or "\0" in body:
        return None
    if not body.endswith("\n"):
        body += "\n"
    b = np.frombuffer(b"\0\0\0" + body.encode("utf-8"), dtype=np.uint8)  # 3 bytes ahead
    text = b[3:]
    stop = text == _NEWLINE
    stop |= text == _COMMA
    stops = np.flatnonzero(stop)  # one offset per field: the only int64 array
    del stop  # the dels keep the peak near the body's bytes and those offsets
    t = body.count("\n")
    if stops.size != t * (n + 1):
        return None
    # Row r of fields holds line r's if every line has n + 1 fields.  If one has
    # not, a line's first field, which follows a '\n', falls among the cells,
    # and the cell check below rejects it.
    fields = stops.reshape(t, n + 1)
    runs = np.column_stack([fields[:, 0] + 1, fields[:, -1] - fields[:, 0]])
    runs[1:, 0] -= fields[:-1, -1] + 1  # per line: its date and ',', then the rest
    # the 1, 2 and 3 bytes ahead of each cell's end
    last, second, third = (b[shift:][stops].reshape(t, n + 1)[:, 1:] for shift in (2, 1, 0))
    del stops, fields
    negative = second == _DASH_BYTE
    cells_ok = third == _COMMA  # '-1' is ',-1'; '1' is ',1'
    cells_ok &= negative
    cells_ok |= second == _COMMA
    cells_ok &= last == _ONE
    if not cells_ok.all():
        return None
    del last, second, third, cells_ok
    kept = np.repeat(np.tile([True, False], t), runs.ravel())
    dates = text[kept].tobytes().decode("utf-8").split(",")[:-1]
    return dates, np.where(negative, np.int8(-1), np.int8(1))


def _first_bad_line(lines: list[str], n: int) -> int:
    """Index of the first line that is not plain on its own, among the lines of
    a body that is not plain, split at '\\n'.  A run of lines is plain iff each
    line is, so bisection finds it in about two passes over the text.  Each run
    is checked with a '\\n' after its last line, so a blank last line counts."""
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _plain_spins("\n".join(lines[lo:mid]) + "\n", n) is None:
            hi = mid
        else:
            lo = mid
    return lo


def numpy_read_spin_csv(path) -> SpinMatrix:
    """Read a spin file: exactly what write_spin_csv writes (see _plain_spins).

    Blank lines at the end are ignored; any other body is a FormatError that
    names its first bad line.
    """
    with open(path) as handle:
        header, body = handle.readline(), handle.read()
    if not header:
        raise EmptyInputError(f"{path}: empty spin file")
    header = header.removesuffix("\n").split(",")
    if header[0] != "date" or len(header) < 2:
        raise FormatError(f"{path}: expected header 'date,<tickers...>'")
    if body.endswith("\n\n"):  # only then is there a copy to make
        body = body.rstrip("\n") + "\n"
    if body in ("", "\n"):
        raise EmptyInputError(f"{path}: no spin rows")
    n = len(header) - 1
    spins = _plain_spins(body, n)
    if spins is None:  # the header is line 1
        lines = body.split("\n")
        k = _first_bad_line(lines, n)
        raise FormatError(
            f"{path}: line {k + 2} is not a date and {n} cells of 1 or -1: {lines[k][:80]!r}")
    try:
        return SpinMatrix(tickers=header[1:], dates=spins[0], values=spins[1])
    except FormatError as exc:  # a name holding a character no spin file can
        raise FormatError(f"{path}: {exc}") from exc


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(autouse=True)
def no_pool_thread_outlives_a_test():
    # the pool's thread is not a daemon: a leaked one would keep the CLI process alive
    yield
    alive = [t.name for t in threading.enumerate() if t.name.startswith("glauber-draw")]
    assert not alive, f"pool threads still alive after the test: {alive}"
