"""Kernel functions, Gram matrices, and the empirical HSIC estimator.

The Hilbert-Schmidt independence criterion between samples ``u`` and ``v``
is estimated here in its biased V-statistic form

    HSIC(u, v) = (n-1)^-2 * tr(K H L H)

where ``K`` and ``L`` are the Gram matrices of ``u`` and ``v`` and
``H = I - J/n`` is the centering matrix.  The trace is evaluated as the
Frobenius inner product <K, HLH>, so the expensive centering of the
response Gram can be done once and reused against many covariate Grams
at O(n^2) each instead of O(n^3).

One builder, ``_pairwise``, makes every n x n matrix (each family's Gram
and the distance-correlation baseline's distances) from elementwise terms,
one coordinate at a time. The screening scorer, ``_sweep``, never builds a
covariate's matrix, and sums the Frobenius product in the same fixed order
as ``hsic``: the upper triangle of K weighted by both triangles of the
response matrix, diagonal k = 0, 1, ..., n-1 in turn, each weighted and
summed in row order by ``einsum(optimize=False)``, never by BLAS: no value
depends on BLAS or its threads, but a numpy with an FMA baseline (x86-64-v3,
aarch64) fuses each multiply and add, which moves the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError

KERNEL_FAMILIES = ("gaussian", "linear", "laplacian")

#: Hard ceiling on sample count so a dense n x n matrix cannot exhaust memory.
DEFAULT_MAX_SAMPLES = 10_000


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth.

    gaussian:  k(x, y) = exp(-||x - y||^2 / (2 gamma^2))
    laplacian: k(x, y) = exp(-||x - y||_1 / gamma)
    linear:    k(x, y) = <x, y>          (gamma unused, but must be finite)
    """

    family: str = "gaussian"
    gamma: float = 2.0

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {KERNEL_FAMILIES}"
            )
        gamma = float(self.gamma)
        if not np.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma}")
        if self.family == "linear":
            return
        if gamma <= 0.0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        if not np.isfinite(self.scale):
            raise ValueError(f"gamma is too small for a finite kernel scale, got {gamma}")

    @property
    def scale(self) -> float | None:
        """The factor in k(x, y) = exp(scale * d(x, y)): -1 / (2 gamma^2) for
        gaussian (d the squared distance), -1 / gamma for laplacian (d the
        L1 distance), None for linear."""
        if self.family == "linear":
            return None
        gamma = float(self.gamma)
        width = gamma if self.family == "laplacian" else 2.0 * gamma * gamma
        return -1.0 / width if width else -np.inf


#: The default used throughout: Gaussian with bandwidth 2 on every side.
GAUSSIAN_DEFAULT = KernelSpec("gaussian", 2.0)


def _as_points(x) -> np.ndarray:
    """Coerce input to an (n, d) float64 array; 1-d input becomes (n, 1)."""
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ValueError(f"points must be a 1-d or 2-d array, got ndim={pts.ndim}")
    if pts.shape[1] == 0:
        raise ValueError("points must have at least one coordinate")
    return pts


def _terms(spec: KernelSpec):
    """(pair, fold, scale) of a family: k(x, y) = exp(scale * sum_k fold(pair(x_k, y_k)))."""
    if spec.family == "linear":
        return np.multiply, None, None
    return np.subtract, (np.abs if spec.family == "laplacian" else np.square), spec.scale


def _apply(term, fold, scale):
    """exp(scale * fold(term)) in place, skipping whichever of ``fold`` and ``scale`` is None."""
    if fold is not None:
        fold(term, out=term)
    if scale is not None:
        term *= scale
        np.exp(term, out=term)
    return term


def _pairwise(pts, pair, fold=None, scale=None, *, max_samples: int = DEFAULT_MAX_SAMPLES) -> np.ndarray:
    """exp(scale * sum_k fold(pair(x_ik, x_jk))) for every pair i, j of an (n, d) point set.

    One coordinate at a time, so (i, j) and (j, i) see the same float ops
    and the result is exactly symmetric. Raises ValidationError, before
    allocating, on n above ``max_samples``.
    """
    n = pts.shape[0]
    if n > max_samples:
        raise ValidationError(
            f"n={n} exceeds the sample cap of {max_samples}; "
            f"one {n}x{n} matrix would need {n * n * 8 / 2**20:.0f} MiB"
        )
    acc = None
    for k in range(pts.shape[1]):
        x = pts[:, k]
        term = _apply(pair(x[:, None], x[None, :]), fold, None)
        acc = term if acc is None else np.add(acc, term, out=acc)
    return _apply(acc, None, scale)


def gram(points, spec: KernelSpec = GAUSSIAN_DEFAULT, *, max_samples: int = DEFAULT_MAX_SAMPLES) -> np.ndarray:
    """Pairwise kernel matrix K[i, j] = k(points[i], points[j]), symmetric by construction.

    Accepts an (n,) or (n, d) array of points. Raises ValueError on
    non-finite coordinates or fewer than two points, and its subclass
    ValidationError, before allocating, on n above ``max_samples``.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples to form a Gram matrix, got {n}")
    if not np.isfinite(pts).all():
        raise ValueError("points contain NaN or infinite coordinates")
    return _pairwise(pts, *_terms(spec), max_samples=max_samples)


def center(L: np.ndarray) -> np.ndarray:
    """Center a Gram matrix in feature space: returns H L H.

    Equivalent to subtracting row means, column means, and adding back the
    grand mean. Rows and columns of the result sum to zero (within
    roundoff), and centering is idempotent.
    """
    L = np.asarray(L, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {L.shape}")
    out = L - L.mean(axis=1, keepdims=True)
    out -= L.mean(axis=0, keepdims=True)
    out += L.mean()
    return out


def _upper_weights(R: np.ndarray) -> np.ndarray:
    """R + R^T off the diagonal and R on it: for a symmetric K, <K, R>_F is
    the sum of K * W over the upper triangle. A centred R is symmetric only
    up to roundoff, and one triangle of it alone would lose digits."""
    W = R + R.T
    np.fill_diagonal(W, np.diagonal(R))
    return W


def _sweep(z: np.ndarray, W: np.ndarray, pair, fold=None, scale=None) -> np.ndarray:
    """Per column z_j of a C-contiguous (n, w >= 2) chunk, the sum of T_j * W
    over the upper triangle, where T_j is the one-coordinate matrix that
    ``_pairwise`` would build from z_j, summed in ``hsic``'s order.

    T_j is never formed: for each offset k, diagonal k of every T_j is one
    (n-k, w) slab of a reused buffer, contracted with diagonal k of W. einsum
    adds the rows of an (m, w >= 2) slab in order, so a column's bits depend
    neither on w nor on its place in the chunk; an (m, 1) slab takes an
    unrolled reduction, so callers pad a lone column.
    """
    n, w = z.shape
    buf = np.empty((n, w))
    total = np.zeros(w)
    for k in range(n):
        term = _apply(pair(z[k:], z[: n - k], out=buf[: n - k]), fold, scale)
        total += np.einsum("ij,i->j", term, np.diagonal(W, k), optimize=False)
    return total


def hsic(K: np.ndarray, Lc: np.ndarray, *, clamp: bool = True) -> float:
    """Empirical HSIC from a Gram matrix and a pre-centered Gram matrix.

    Computes (n-1)^-2 * <K, Lc>_F, which equals (n-1)^-2 tr(K H L H) when
    ``Lc = center(L)``. For PSD kernels the value is nonnegative up to
    roundoff; with ``clamp`` (the default) tiny negatives are clamped to 0.
    ``K`` must be symmetric, as Gram matrices are: only its upper triangle
    is read. Each diagonal of K is contracted as ``_sweep`` does, padded to
    two columns, so ``screening.screen`` gives a covariate the same bits.
    """
    K = np.asarray(K, dtype=np.float64)
    Lc = np.asarray(Lc, dtype=np.float64)
    if K.shape != Lc.shape or Lc.ndim != 2 or Lc.shape[0] != Lc.shape[1]:
        raise ValueError(f"Gram matrix shapes do not match: {K.shape} vs {Lc.shape}")
    n = Lc.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got n={n}")
    W, col, total = _upper_weights(Lc), np.zeros((n, 2)), 0.0
    for k in range(n):
        col[: n - k, 0] = np.diagonal(K, k)
        total += np.einsum("ij,i->j", col[: n - k], np.diagonal(W, k), optimize=False)[0]
    value = float(total) / ((n - 1) * (n - 1))
    return 0.0 if clamp and value < 0.0 else value


def hsic_pair(
    u,
    v,
    spec_u: KernelSpec = GAUSSIAN_DEFAULT,
    spec_v: KernelSpec = GAUSSIAN_DEFAULT,
) -> float:
    """Empirical HSIC between two aligned samples.

    ``u`` and ``v`` are (n,) or (n, d) arrays with one row per subject.
    """
    pu = _as_points(u)
    pv = _as_points(v)
    if pu.shape[0] != pv.shape[0]:
        raise ValueError(f"sample sizes differ: {pu.shape[0]} vs {pv.shape[0]}")
    return hsic(gram(pu, spec_u), center(gram(pv, spec_v)))
