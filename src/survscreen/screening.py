"""Marginal utility screening for right-censored survival responses.

The observed pair (time, status) is standardized marginally into a
two-column response; each covariate's utility is its empirical HSIC
against that response. Covariates are ranked by decreasing utility and
the top ``d_n`` form the selected set. A distance-correlation utility is
provided as an optional baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateDataError,
    DegenerateStatusError,
    DegenerateTimesError,
    ValidationError,
)
from .kernels import GAUSSIAN_DEFAULT, KernelSpec, _pairwise, _sweep, _terms, _upper_weights, center, gram
from .workers import default_jobs, fork_map

#: The marginal utilities ``screen`` ranks by: the paper's HSIC, and the
#: distance-correlation baseline it is compared against.
METHODS = ("hsic", "dc")

#: Columns scored per chunk. No value depends on it; 256 keeps an (n, 256)
#: slab at n=200 (400 KiB) in a 2 MiB L2 cache through the few passes each
#: offset makes over it. Serial screens at n=200, p=2000, medians of 21
#: alternating runs: 512 tied for HSIC (128 -> 127 ms, 9/21) and was 5%
#: faster for DC. A constant, not tuned to the machine or threads.
CHUNK_COLUMNS = 256

#: Response-matrix entries swept, n^2 p / 2, from which a screen's chunks
#: are scored by ``default_jobs()`` forked workers. Two workers at n=200 on
#: a 2-vCPU host, medians of 11-15 alternating runs: p=300 (6e6 entries)
#: lost to the fork (HSIC 27 -> 31 ms, DC 20 -> 26 ms); at p=500 (1e7)
#: HSIC won, 39 -> 32 ms, while DC lost, 26 -> 29 ms, and tied up to
#: p=1000; p=2000 won both (HSIC 137 -> 101, DC 87 -> 73 ms). No value
#: depends on it.
SPLIT_ENTRIES = 10_000_000


@dataclass
class SurvivalDataset:
    """n subjects of (observed time, event status) plus an n x p covariate matrix.

    ``status`` is 1 when the event was observed, 0 when censored.
    """

    times: np.ndarray
    status: np.ndarray
    covariates: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        status = np.asarray(self.status)
        self.covariates = np.asarray(self.covariates, dtype=np.float64)
        if self.times.ndim != 1:
            raise ValidationError("times must be a 1-d vector")
        if status.ndim != 1 or self.covariates.ndim != 2:
            raise ValidationError("status must be 1-d and covariates 2-d")
        n = self.times.shape[0]
        if status.shape[0] != n or self.covariates.shape[0] != n:
            raise ValidationError(
                f"inconsistent lengths: {n} times, {status.shape[0]} status, "
                f"{self.covariates.shape[0]} covariate rows"
            )
        if n < 3:
            raise ValidationError(f"need at least 3 subjects, got {n}")
        if not np.isfinite(self.times).all() or (self.times < 0).any():
            raise ValidationError("times must be finite and nonnegative")
        if not np.isin(status, (0, 1)).all():
            raise ValidationError("status entries must be exactly 0 or 1")
        self.status = status.astype(np.int8)
        if not np.isfinite(self.covariates).all():
            raise ValidationError("covariates contain NaN or infinite values")

    @property
    def n(self) -> int:
        return self.times.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]


@dataclass
class StandardizedResponse:
    """Two-column response (time, status), each centered and scaled to unit sd."""

    y: np.ndarray


@dataclass
class ScreenResult:
    """Per-covariate utilities plus the induced ranking and selection.

    ``ranking`` is a permutation of 0..p-1 ordered by decreasing utility
    (ties broken by ascending covariate index); ``selected`` is its first
    ``d_n`` entries.
    """

    omega: np.ndarray
    ranking: np.ndarray
    selected: np.ndarray
    d_n: int


def standardize(times, status) -> StandardizedResponse:
    """Standardize (time, status) marginally with sample moments (ddof=1).

    Raises ValueError unless times and status are finite, DegenerateTimesError
    when times are constant or their variance over- or underflows double
    precision, and DegenerateStatusError when everyone is censored or
    everyone an event.
    """
    times = np.asarray(times, dtype=np.float64)
    status = np.asarray(status, dtype=np.float64)
    if times.ndim != 1 or status.ndim != 1 or times.shape != status.shape:
        raise ValueError("times and status must be 1-d vectors of equal length")
    if not (np.isfinite(times).all() and np.isfinite(status).all()):
        raise ValueError("times and status must be finite")
    n = times.shape[0]
    if n < 3:
        raise ValueError(f"need at least 3 subjects to standardize, got {n}")
    with np.errstate(over="ignore"):
        mu_x = float(times.mean())
        sd_x = float(times.std(ddof=1))
    mu_d = float(status.mean())
    sd_d = float(status.std(ddof=1))
    if not np.isfinite(sd_x):
        raise DegenerateTimesError(
            "the variance of the observed times overflows double precision"
        )
    if times.min() == times.max():
        raise DegenerateTimesError("observed times have zero variance")
    if sd_x * sd_x < np.finfo(np.float64).tiny:
        raise DegenerateTimesError(
            "the variance of the observed times underflows double precision"
        )
    if sd_d <= 0.0:
        raise DegenerateStatusError(
            "status has zero variance (all subjects censored or all events)"
        )
    y = np.column_stack(((times - mu_x) / sd_x, (status - mu_d) / sd_d))
    return StandardizedResponse(y=y)


def default_cutoff(n: int) -> int:
    """Model-size cutoff d_n = floor(n / ln n), at least 1."""
    if n < 3:
        raise ValueError(f"cutoff needs n >= 3, got {n}")
    return max(1, math.floor(n / math.log(n)))


def standardize_columns(Z: np.ndarray) -> np.ndarray:
    """Center each column and scale to unit sd; a zero sd leaves it centered, a non-finite one NaN."""
    Z = np.asarray(Z, dtype=np.float64)
    mu = Z.mean(axis=0)
    sd = Z.std(axis=0, ddof=1)
    out = Z - mu
    nonzero = sd > 0
    out[:, nonzero] /= sd[nonzero]
    out[:, ~np.isfinite(sd)] = np.nan
    return out


def screen(
    data: SurvivalDataset,
    spec_z: KernelSpec = GAUSSIAN_DEFAULT,
    spec_y: KernelSpec = GAUSSIAN_DEFAULT,
    d_n: int | None = None,
    *,
    method: str = "hsic",
    standardize_covariates: bool = False,
) -> ScreenResult:
    """Rank covariates by HSIC against the standardized censored response.

    Each covariate column is treated as a 1-d sample and scored against the
    shared centered response Gram, so the per-covariate cost is O(n^2).
    ``d_n`` defaults to ``default_cutoff(n)``. Covariates are used on their
    raw scale unless ``standardize_covariates`` is set.

    ``method="dc"`` ranks ``dc_utility`` instead and ignores both kernel
    specs. Any method outside ``METHODS``, or a ``d_n`` outside 1..p,
    raises ValueError before any scoring. Under either method, a covariate
    whose utility is not finite (its kernel values, dVar or sd overflow)
    raises DegenerateDataError naming it, as z1, z2, ... in column order.

    No covariate Gram is formed, and no standardized copy of the table:
    ``_score_chunks`` copies, standardizes and scores ``CHUNK_COLUMNS``
    columns at a time, so memory is the one n x n response matrix plus a
    few n x chunk slabs. A utility has the bits of ``hsic_pair`` on its
    column, whatever the other columns are, so any split over columns
    reproduces the serial output. From ``SPLIT_ENTRIES`` (n^2 p / 2) the
    chunks are scored by ``workers.default_jobs()`` forked workers, each
    sharing the caller's response matrix; set SURVSCREEN_JOBS=1 to score
    in the calling process, for example from a threaded program.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    _check_cutoff(d_n, data.p)
    if method == "dc":
        omega = dc_utility(data, standardize_covariates=standardize_covariates)
        return rank_utilities(omega, data.n, d_n)
    W = _upper_weights(center(gram(_response(data), spec_y)))
    terms = _terms(spec_z)

    def score(z):
        value = _sweep(z, W, *terms) / ((data.n - 1) * (data.n - 1))
        return np.where(value < 0.0, 0.0, value)

    omega = _score_chunks(data.covariates, score, method, standardize_covariates)
    return rank_utilities(omega, data.n, d_n)


def _response(data: SurvivalDataset) -> np.ndarray:
    """The standardized (time, status) response of a dataset with covariates."""
    if data.p == 0:
        raise ValueError("covariate matrix has zero columns")
    return standardize(data.times, data.status).y


def _score_chunks(Z: np.ndarray, score, method: str, standardize_covariates: bool) -> np.ndarray:
    """One ``method`` utility per column of ``Z``, from ``score`` over chunks
    of ``CHUNK_COLUMNS``; DegenerateDataError names the first that is not finite.

    Each chunk is copied into a C-contiguous (n, w) array, standardized by
    ``standardize_columns`` when asked, and handed to ``score``, which
    returns w values. A lone column is padded with a zero column, because
    numpy sums an (m, 1) array over axis 0 pairwise rather than in row
    order. ``Z`` is only read. From ``SPLIT_ENTRIES`` response-matrix
    entries swept the chunks go to ``default_jobs()`` forked workers, which
    inherit the map's silenced floating-point warnings; each value lands at
    its column's position, so the bits are the serial ones.
    """
    n, p = Z.shape

    def chunk(start):
        width = min(CHUNK_COLUMNS, p - start)
        z = np.zeros((n, max(2, width)))
        z[:, :width] = Z[:, start : start + width]
        return score(standardize_columns(z) if standardize_covariates else z)[:width]

    jobs = default_jobs() if n * n * p / 2 >= SPLIT_ENTRIES else 1
    with np.errstate(all="ignore"):  # a non-finite utility is refused below
        omega = np.concatenate(fork_map(chunk, [(s,) for s in range(0, p, CHUNK_COLUMNS)], jobs))
    overflowed = np.flatnonzero(~np.isfinite(omega))
    if overflowed.size:
        raise DegenerateDataError(
            f"the {method.upper()} utility of covariate z{overflowed[0] + 1} is not finite: "
            "its values overflow double precision"
        )
    return omega


def rank_utilities(omega: np.ndarray, n: int, d_n: int | None = None) -> ScreenResult:
    """Rank covariates by decreasing utility and select the first ``d_n``.

    Ties are broken by ascending covariate index. ``d_n`` defaults to
    ``default_cutoff(n)`` capped at p; an explicit ``d_n`` must lie in
    1..p.
    """
    p = omega.shape[0]
    _check_cutoff(d_n, p)
    ranking = np.argsort(-omega, kind="stable")
    d = min(default_cutoff(n), p) if d_n is None else d_n
    return ScreenResult(
        omega=omega,
        ranking=ranking,
        selected=ranking[:d].copy(),
        d_n=d,
    )


def _check_cutoff(d_n: int | None, p: int) -> None:
    if d_n is not None and not 1 <= d_n <= p:
        raise ValueError(f"d_n must be in 1..{p}, got {d_n}")


def dc_utility(data: SurvivalDataset, *, standardize_covariates: bool = False) -> np.ndarray:
    """Distance correlation of each covariate with the standardized response.

    Biased V-statistic estimator (Szekely, Rizzo & Bakirov 2007). With
    A = |z_i - z_j| and B_c the double-centred response distances, the
    covariate side is never centred: B_c's rows and columns sum to zero,
    so dCov^2 = <center(A), B_c> / n^2 = <A, B_c> / n^2, swept like HSIC.
    dVar^2 of the covariate comes from A's row means m and their mean g
    (Huo & Szekely 2016): ||center(A)||^2 / n^2 = mean(A^2) - 2 mean(m^2)
    + g^2, where mean(A^2) = 2 var(z) (ddof=0), and m comes from one sort
    and one cumulative sum of the centred column, O(n log n) per column.
    Memory is B_c plus a few n x chunk slabs. Returns values in [0, 1], 0 for
    a zero distance variance; one that overflows raises, as in ``screen``.
    """
    n = data.n
    B = center(np.sqrt(_pairwise(_response(data), np.subtract, np.square)))
    dvar_y = float(np.square(B).sum()) / (n * n)
    if dvar_y <= 0.0:
        return np.zeros(data.p)
    # entry r (from 0) of a sorted column x has sum_j |x_r - x_j| = (2r + 2 - n) x_r
    # + c_{n-1} - 2 c_r, where c is the inclusive cumulative sum of x
    weight = (2.0 * np.arange(n) + 2.0 - n)[:, None]
    W = _upper_weights(B)

    def score(z):
        dcov2 = _sweep(z, W, np.subtract, np.abs) / (n * n)
        x = np.sort(z - z.mean(axis=0), axis=0)
        c = np.cumsum(x, axis=0)
        m = (weight * x + c[-1] - 2.0 * c) / n
        dvar_x = 2.0 * x.var(axis=0) - 2.0 * np.square(m).mean(axis=0) + np.square(m.mean(axis=0))
        r = np.where(dvar_x > 0.0, np.sqrt(np.clip(dcov2 / np.sqrt(dvar_x * dvar_y), 0.0, 1.0)), 0.0)
        return np.where(np.isfinite(dvar_x), r, np.nan)  # refused, not ranked last

    return _score_chunks(data.covariates, score, "dc", standardize_covariates)
