"""Synthetic right-censored survival data generators.

Three failure-time models over AR(1)-correlated Gaussian covariates:

  cox             hazard (t - 0.5)^2 * exp(beta'z), beta = 0.35 on the
                  first five covariates; sampled by inverting the
                  cumulative hazard against an Exponential(1) draw.
  nonlinear       log T = (2 + sin z1)^2 + (1 + z5)^3 + 3 z10^2
                  + z1 z10 + eps, active covariates {1, 5, 10}.
  transformation  H(T) = -beta'z + eps with H(t) = log(0.5 (e^{2t} - 1)),
                  beta = (-1, -0.9, 0 x6, 0.8, 1.0, 0 ...), active
                  covariates {1, 2, 9, 10}.

Censoring is uniform: C ~ Unif(0, scale) ("random") or
C ~ Unif(0, scale * |Z1 - Z2|) ("informative"). The scale is calibrated
by Monte Carlo bisection to hit a target censoring rate, and cached per
(model, p, censoring, target_cr, rho).

Replication r of a scenario draws from
``default_rng(SeedSequence(seed, spawn_key=(r,)))``; streams are
independent, so any subset of replications can be regenerated alone.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass

import numpy as np

from .exceptions import InfeasibleTargetError, NoConvergenceError
from .screening import SurvivalDataset

MODELS = ("cox", "nonlinear", "transformation")
CENSORINGS = ("random", "informative")

#: 0-based active covariate indices per model.
ACTIVE_SETS = {
    "cox": (0, 1, 2, 3, 4),
    "nonlinear": (0, 4, 9),
    "transformation": (0, 1, 8, 9),
}

DEFAULT_RHO = {"cox": 0.8, "nonlinear": 0.8, "transformation": 0.5}


def _min_p(model: str) -> int:
    """Fewest covariates a model can use: enough to hold its whole active set.

    Informative censoring reads z1 and z2, which every model's active range
    already covers, so it adds nothing to this bound.
    """
    return max(ACTIVE_SETS[model]) + 1


#: Stream scheme recorded in run manifests.
RNG_STREAM_ID = "numpy.PCG64/SeedSequence(entropy=seed, spawn_key=(replication,))"


@dataclass(frozen=True)
class SimScenario:
    """One simulation setting; ``rho=None`` picks the model default."""

    model: str
    n: int
    p: int
    censoring: str = "random"
    target_cr: float = 0.20
    rho: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.censoring not in CENSORINGS:
            raise ValueError(
                f"unknown censoring {self.censoring!r}; expected one of {CENSORINGS}"
            )
        if self.n < 3:
            raise ValueError(f"n must be at least 3, got {self.n}")
        min_p = _min_p(self.model)
        if self.p < min_p:
            raise ValueError(f"model {self.model!r} needs p >= {min_p}, got {self.p}")
        if not 0.0 < self.target_cr < 1.0:
            raise ValueError(f"target_cr must lie in (0, 1), got {self.target_cr}")
        if self.rho is None:
            object.__setattr__(self, "rho", DEFAULT_RHO[self.model])
        if not abs(self.rho) < 1.0:
            raise ValueError(f"|rho| must be < 1, got {self.rho}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a nonnegative 64-bit integer")

    @property
    def active_set(self) -> tuple[int, ...]:
        return ACTIVE_SETS[self.model]

    @property
    def default_id(self) -> str:
        return (
            f"{self.model}_n{self.n}_p{self.p}_{self.censoring}"
            f"_cr{self.target_cr:g}_rho{self.rho:g}_seed{self.seed}"
        )


@dataclass
class GeneratedData:
    """A simulated dataset together with its latent failure and censoring times."""

    dataset: SurvivalDataset
    true_times: np.ndarray
    censor_times: np.ndarray


def replication_rng(seed: int, replication: int = 0) -> np.random.Generator:
    """The private RNG stream for one replication of a scenario."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replication,)))


def _exponential(rng: np.random.Generator, size) -> np.ndarray:
    # Inverse CDF -log(1 - U) with U ~ [0, 1); 1 - U never hits 0.
    return -np.log1p(-rng.random(size))


def sample_ar1_normal(n: int, p: int, rho: float, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. rows from N_p(0, Sigma) with Sigma_ij = rho^|i-j|.

    Uses the AR(1) recursion Z_1 = eps_1, Z_k = rho Z_{k-1}
    + sqrt(1 - rho^2) eps_k, which costs O(np) instead of a p x p Cholesky.
    """
    if not abs(rho) < 1.0:
        raise ValueError(f"|rho| must be < 1, got {rho}")
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    eps = rng.standard_normal((n, p))
    z = np.empty((n, p))
    z[:, 0] = eps[:, 0]
    if p > 1:
        s = np.sqrt(1.0 - rho * rho)
        for k in range(1, p):
            z[:, k] = rho * z[:, k - 1] + s * eps[:, k]
    return z


def cox_baseline_cumhaz(t):
    """Cumulative baseline hazard of the cox model: integral of (s - 0.5)^2."""
    t = np.asarray(t, dtype=np.float64)
    return ((t - 0.5) ** 3 + 0.125) / 3.0


def model_beta(model: str, p: int) -> np.ndarray:
    """Regression coefficients for the cox and transformation models."""
    beta = np.zeros(p)
    if model == "cox":
        beta[:5] = 0.35
    elif model == "transformation":
        beta[0] = -1.0
        beta[1] = -0.9
        beta[8] = 0.8
        beta[9] = 1.0
    else:
        raise ValueError(f"model {model!r} has no coefficient vector")
    return beta


def _covariate_rows(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"z must be an (n, p) covariate matrix, got ndim={z.ndim}")
    return z


def sample_cox_time(z, beta, rng: np.random.Generator):
    """Failure times from the cox model by cumulative-hazard inversion.

    Solving Lambda0(T) exp(beta'z) = E with E ~ Exponential(1) and
    Lambda0(t) = ((t - 0.5)^3 + 0.125) / 3 gives

        T = 0.5 + cbrt(3 E exp(-beta'z) - 0.125)

    which is nonnegative for every draw. ``z`` is an (n, p) matrix.
    """
    eta = _covariate_rows(z) @ np.asarray(beta, dtype=np.float64)
    e = _exponential(rng, eta.shape[0])
    return 0.5 + np.cbrt(3.0 * e * np.exp(-eta) - 0.125)


def sample_nonlinear_time(z, rng: np.random.Generator):
    """Failure times from the nonlinear interaction model.

    log T = (2 + sin z1)^2 + (1 + z5)^3 + 3 z10^2 + z1 z10 + eps with
    eps ~ N(0, 1). The log time only involves covariates 1, 5, and 10.
    ``z`` is an (n, p) matrix. Raises OverflowError if exp overflows.
    """
    z = _covariate_rows(z)
    if z.shape[1] < 10:
        raise ValueError(f"nonlinear model needs p >= 10, got {z.shape[1]}")
    eps = rng.standard_normal(z.shape[0])
    z1, z5, z10 = z[:, 0], z[:, 4], z[:, 9]
    logt = (2.0 + np.sin(z1)) ** 2 + (1.0 + z5) ** 3 + 3.0 * z10**2 + z1 * z10 + eps
    with np.errstate(over="ignore"):
        t = np.exp(logt)
    if not np.isfinite(t).all():
        raise OverflowError("nonlinear failure time overflows double precision")
    return t


def sample_transformation_time(z, beta, rng: np.random.Generator):
    """Failure times from the transformation model H(T) = -beta'z + eps.

    H(t) = log(0.5 (e^{2t} - 1)) inverts to T = 0.5 log(1 + 2 e^w),
    evaluated as 0.5 * logaddexp(0, w + log 2) so large |w| stays stable;
    the result is positive for every real w. ``z`` is an (n, p) matrix.
    """
    z = _covariate_rows(z)
    if z.shape[1] < 10:
        raise ValueError(f"transformation model needs p >= 10, got {z.shape[1]}")
    eta = z @ np.asarray(beta, dtype=np.float64)
    w = -eta + rng.standard_normal(eta.shape[0])
    return 0.5 * np.logaddexp(0.0, w + np.log(2.0))


def _sample_times(model: str, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Failure times of ``model`` for covariate rows ``z``; beta spans z's columns."""
    if model == "cox":
        return sample_cox_time(z, model_beta("cox", z.shape[1]), rng)
    if model == "nonlinear":
        return sample_nonlinear_time(z, rng)
    return sample_transformation_time(z, model_beta("transformation", z.shape[1]), rng)


def _censor_weights(censoring: str, z: np.ndarray) -> np.ndarray:
    """Per-subject factor on the censoring scale: C ~ Unif(0, scale * weight)."""
    if censoring == "informative":
        return np.abs(z[:, 0] - z[:, 1])
    return np.ones(z.shape[0])


def _draw(scenario: SimScenario, size: int, p: int, rng: np.random.Generator):
    """``size`` draws of (covariates Z with ``p`` columns, failure times T,
    censor-scale weights), taking Z and then the time noise from ``rng``.

    Calibration asks for ``_min_p(model)`` columns, all that the times and
    the weights read; ``SimScenario`` refuses a smaller p.
    """
    z = sample_ar1_normal(size, p, scenario.rho, rng)
    return z, _sample_times(scenario.model, z, rng), _censor_weights(scenario.censoring, z)


def _censoring_rate(t: np.ndarray, w: np.ndarray, scale: float) -> float:
    """P(C < T) for C ~ Unif(0, scale * w), averaged over the (t, w) draws."""
    den = scale * w
    ratio = np.divide(t, den, out=np.ones_like(t), where=den > 0)
    return float(np.minimum(ratio, 1.0).mean())


def expected_censoring_rate(
    scenario: SimScenario, scale: float, n_cal: int, rng: np.random.Generator
) -> float:
    """Monte Carlo censoring rate at a given scale, on a fresh latent draw."""
    _, t, w = _draw(scenario, n_cal, _min_p(scenario.model), rng)
    return _censoring_rate(t, w, scale)


def _calibration_rng(scenario: SimScenario) -> np.random.Generator:
    # Seed-independent stream keyed only by what the rate curve depends on,
    # so the cached scale is shared across scenario seeds.
    tag = (
        f"censoring-calibration:{scenario.model}:{scenario.p}:{scenario.censoring}"
        f":{scenario.target_cr!r}:{scenario.rho!r}"
    )
    digest = hashlib.blake2b(tag.encode(), digest_size=16).digest()
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest, "little")))


#: How far the calibrated Monte Carlo censoring rate may be from the target.
_CALIBRATION_TOL = 0.005


def calibrate_censoring(
    scenario: SimScenario, n_cal: int = 50_000, *, max_steps: int = 200
) -> float:
    """Censoring scale whose Monte Carlo rate is within 0.005 of the target.

    Draws (T, Z) once from the scenario's calibration stream, then bisects
    geometrically on the scale; the rate is the exact conditional censoring
    probability given those draws, which is continuous and monotone
    decreasing in the scale. Raises InfeasibleTargetError when no bracket
    exists and NoConvergenceError after ``max_steps`` bisection steps.
    """
    if n_cal < 10_000:
        raise ValueError(f"n_cal must be at least 10,000, got {n_cal}")
    _, t, w = _draw(scenario, n_cal, _min_p(scenario.model), _calibration_rng(scenario))
    target = scenario.target_cr

    lo = hi = 1.0
    expansions = 0
    while _censoring_rate(t, w, lo) < target:
        lo /= 8.0
        expansions += 1
        if expansions > 400 or lo == 0.0:
            raise InfeasibleTargetError(
                f"no scale this small reaches censoring rate {target}"
            )
    while _censoring_rate(t, w, hi) > target:
        hi *= 8.0
        expansions += 1
        if expansions > 400 or not np.isfinite(hi):
            raise InfeasibleTargetError(
                f"no scale this large reaches censoring rate {target}"
            )

    for _ in range(max_steps):
        mid = float(np.sqrt(lo * hi))
        rate = _censoring_rate(t, w, mid)
        if abs(rate - target) <= _CALIBRATION_TOL:
            return mid
        if rate > target:
            lo = mid
        else:
            hi = mid
    raise NoConvergenceError(
        f"bisection did not reach |rate - {target}| <= {_CALIBRATION_TOL} in {max_steps} steps"
    )


#: Calibrated scales by scenario family, filled under ``_scale_lock``, which
#: each forked child replaces with a fresh lock.
_scale_cache: dict[tuple, float] = {}
_scale_lock = threading.Lock()


def _renew_scale_lock() -> None:
    """A forked child gets a fresh lock: a thread of the parent may have held
    the inherited one at the fork, and no thread in the child would free it."""
    global _scale_lock
    _scale_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_scale_lock)


def censoring_scale(scenario: SimScenario) -> float:
    """Calibrated censoring scale for a scenario, cached across calls.

    The cache key is (model, p, censoring, target_cr, rho); the scenario
    seed deliberately plays no role, so every replication of a scenario
    family shares one calibration. Calibration runs under the cache lock, so
    threads that ask for a cold scenario at once wait for one calibration.
    The cache is per process: worker processes forked after a call inherit
    its entries, and a calibration in one worker is not seen by the others.
    """
    key = (scenario.model, scenario.p, scenario.censoring, scenario.target_cr, scenario.rho)
    with _scale_lock:
        if key not in _scale_cache:
            _scale_cache[key] = calibrate_censoring(scenario)
        return _scale_cache[key]


def generate(scenario: SimScenario, replication: int = 0) -> GeneratedData:
    """Generate one replication of a scenario; bit-reproducible given
    (seed, replication).

    Draw order within the stream is fixed: covariates, failure-time noise,
    then censoring uniforms. Ties T == C count as observed events.
    """
    rng = replication_rng(scenario.seed, replication)
    scale = censoring_scale(scenario)
    z, t, w = _draw(scenario, scenario.n, scenario.p, rng)
    c = scale * w * rng.random(scenario.n)
    status = (t <= c).astype(np.int8)
    dataset = SurvivalDataset(times=np.minimum(t, c), status=status, covariates=z)
    return GeneratedData(dataset=dataset, true_times=t, censor_times=c)
