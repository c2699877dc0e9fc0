import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survscreen.kernels import (
    DEFAULT_MAX_SAMPLES,
    GAUSSIAN_DEFAULT,
    KernelSpec,
    center,
    gram,
    hsic,
    hsic_pair,
)


def explicit_hsic(K, L):
    """Brute-force (n-1)^-2 tr(K H L H) with H formed explicitly."""
    n = K.shape[0]
    H = np.eye(n) - np.ones((n, n)) / n
    return float(np.trace(K @ H @ L @ H)) / (n - 1) ** 2


class TestKernelSpec:
    def test_defaults(self):
        spec = KernelSpec()
        assert spec.family == "gaussian"
        assert spec.gamma == 2.0

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            KernelSpec(family="cubic")

    def test_bad_bandwidth(self):
        with pytest.raises(ValueError, match="gamma"):
            KernelSpec(family="gaussian", gamma=0.0)
        with pytest.raises(ValueError, match="gamma"):
            KernelSpec(family="laplacian", gamma=-1.0)

    def test_linear_ignores_gamma_sign(self):
        KernelSpec(family="linear", gamma=-5.0)

    @pytest.mark.parametrize("family", ["gaussian", "laplacian", "linear"])
    def test_non_finite_gamma_rejected_for_every_family(self, family):
        with pytest.raises(ValueError, match="gamma must be finite, got inf"):
            KernelSpec(family, math.inf)

    @pytest.mark.parametrize(
        "family, gamma", [("gaussian", 1e-170), ("gaussian", 1e-160), ("laplacian", 1e-310)]
    )
    def test_gamma_whose_scale_is_not_finite_rejected(self, family, gamma):
        # 2 gamma^2 underflows to 0 at 1e-170; -1 / (2 gamma^2) and -1 / gamma
        # overflow at 1e-160 and 1e-310. Such a scale gives NaN kernel values
        # or a ZeroDivisionError.
        with pytest.raises(ValueError, match=f"too small for a finite kernel scale, got {gamma}"):
            KernelSpec(family, gamma)

    def test_scale_per_family(self):
        assert KernelSpec("gaussian", 2.0).scale == -0.125
        assert KernelSpec("laplacian", 4.0).scale == -0.25
        assert KernelSpec("linear", -5.0).scale is None
        assert KernelSpec("gaussian", 1e-150).scale == -1.0 / (2.0 * 1e-150 * 1e-150)


class TestGram:
    def test_identical_points(self):
        K = gram([[0.7], [0.7]], GAUSSIAN_DEFAULT)
        assert np.array_equal(K, np.ones((2, 2)))

    def test_gaussian_hand_value_1d(self):
        # k(0, 2) = exp(-|0-2|^2 / (2 * 2^2)) = exp(-0.5)
        K = gram([[0.0], [2.0]], GAUSSIAN_DEFAULT)
        assert K[0, 1] == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert K[0, 0] == 1.0 and K[1, 1] == 1.0

    def test_gaussian_hand_value_2d(self):
        # squared distance between (0,0) and (3,4) is 25
        K = gram([[0.0, 0.0], [3.0, 4.0]], GAUSSIAN_DEFAULT)
        assert K[0, 1] == pytest.approx(math.exp(-25.0 / 8.0), abs=1e-15)

    def test_laplacian_hand_value(self):
        # l1 distance between (1,2) and (4,-2) is 3 + 4 = 7
        K = gram([[1.0, 2.0], [4.0, -2.0]], KernelSpec("laplacian", 2.0))
        assert K[0, 1] == pytest.approx(math.exp(-3.5), abs=1e-15)

    def test_linear_is_inner_product(self):
        pts = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])
        K = gram(pts, KernelSpec("linear"))
        assert np.allclose(K, pts @ pts.T)

    def test_linear_is_sum_of_coordinate_products_bitwise(self):
        pts = np.random.default_rng(3).standard_normal((200, 2))
        K = gram(pts, KernelSpec("linear"))
        expected = np.multiply.outer(pts[:, 0], pts[:, 0])
        expected += np.multiply.outer(pts[:, 1], pts[:, 1])
        assert K.tobytes() == expected.tobytes()
        assert K.tobytes() == K.T.copy().tobytes()

    def test_symmetric_bitwise(self):
        rng = np.random.default_rng(0)
        for family in ("gaussian", "laplacian", "linear"):
            pts = rng.standard_normal((37, 3))
            K = gram(pts, KernelSpec(family, 1.3))
            assert np.array_equal(K, K.T)

    def test_bounded_families_land_in_unit_interval(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((30, 2)) * 2
        for family in ("gaussian", "laplacian"):
            K = gram(pts, KernelSpec(family, 2.0))
            assert np.all(K > 0) and np.all(K <= 1)
            assert np.array_equal(np.diag(K), np.ones(30))

    def test_psd_within_tolerance(self):
        rng = np.random.default_rng(2)
        for family in ("gaussian", "laplacian"):
            for n in (5, 20, 50):
                pts = rng.standard_normal((n, 2))
                K = gram(pts, KernelSpec(family, 2.0))
                assert np.linalg.eigvalsh(K).min() >= -1e-9

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2"):
            gram([[1.0]], GAUSSIAN_DEFAULT)

    def test_points_without_coordinates_rejected(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            gram(np.empty((4, 0)), GAUSSIAN_DEFAULT)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            gram([[0.0], [np.nan]], GAUSSIAN_DEFAULT)
        with pytest.raises(ValueError, match="finite"):
            gram([[0.0], [np.inf]], GAUSSIAN_DEFAULT)

    def test_sample_cap(self):
        pts = np.zeros((DEFAULT_MAX_SAMPLES + 1, 1))
        with pytest.raises(ValueError, match="sample cap"):
            gram(pts, GAUSSIAN_DEFAULT)
        small = np.zeros((3, 1))
        with pytest.raises(ValueError, match="sample cap"):
            gram(small, GAUSSIAN_DEFAULT, max_samples=2)


class TestCenter:
    def test_constant_gram_centers_to_zero(self):
        assert np.array_equal(center(np.ones((6, 6))), np.zeros((6, 6)))

    def test_hand_case_n2(self):
        # H L H with H = [[.5, -.5], [-.5, .5]] collapses to
        # ((1 - a) / 2) * [[1, -1], [-1, 1]]
        for a in (-0.5, 0.0, 0.3, 0.9):
            L = np.array([[1.0, a], [a, 1.0]])
            expected = ((1.0 - a) / 2.0) * np.array([[1.0, -1.0], [-1.0, 1.0]])
            assert np.allclose(center(L), expected, atol=1e-15)

    def test_rows_and_columns_sum_to_zero(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((25, 1))
        Lc = center(gram(pts, GAUSSIAN_DEFAULT))
        assert np.abs(Lc.sum(axis=0)).max() < 1e-10
        assert np.abs(Lc.sum(axis=1)).max() < 1e-10
        assert np.allclose(Lc, Lc.T)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        L = gram(rng.standard_normal((12, 2)), GAUSSIAN_DEFAULT)
        Lc = center(L)
        assert np.allclose(center(Lc), Lc, atol=1e-12)

    def test_subtracts_row_column_and_grand_means_bitwise(self):
        rng = np.random.default_rng(12)
        L = gram(rng.standard_normal((100, 2)), GAUSSIAN_DEFAULT)
        before = L.copy()
        expected = L - L.mean(axis=1)[:, None] - L.mean(axis=0)[None, :] + L.mean()
        assert center(L).tobytes() == expected.tobytes()
        assert L.tobytes() == before.tobytes()


class TestHsic:
    def test_sums_diagonal_by_diagonal_in_row_order(self):
        # The column scorer of screen() weights the upper triangle of K by
        # both triangles of Lc, adds each diagonal in row order and the
        # diagonals in order; hsic() must give the same bits. n*n = 10000
        # exceeds numpy's 8192-element buffer.
        rng = np.random.default_rng(13)
        n = 100
        K = gram(rng.standard_normal((n, 1)), GAUSSIAN_DEFAULT)
        Lc = center(gram(rng.standard_normal((n, 2)), GAUSSIAN_DEFAULT))
        total = 0.0
        for k in range(n):
            s = 0.0
            for i in range(n - k):
                weight = Lc[i, i + k] + Lc[i + k, i] if k else Lc[i, i]
                s += K[i, i + k] * weight
            total += s
        assert hsic(K, Lc, clamp=False) == total / ((n - 1) * (n - 1))

    def test_constant_response_is_exact_zero(self):
        rng = np.random.default_rng(5)
        K = gram(rng.standard_normal((8, 1)), GAUSSIAN_DEFAULT)
        assert hsic(K, center(np.ones((8, 8)))) == 0.0

    def test_hand_case_n2_grid(self):
        grid = (-0.5, 0.0, 0.3, 0.9)
        for a in grid:
            for b in grid:
                K = np.array([[1.0, b], [b, 1.0]])
                L = np.array([[1.0, a], [a, 1.0]])
                expected = (1.0 - a) * (1.0 - b)
                assert hsic(K, center(L), clamp=False) == pytest.approx(
                    expected, abs=1e-14
                )

    def test_matches_explicit_trace_n3(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            u = rng.standard_normal((3, 1))
            v = rng.standard_normal((3, 1))
            K = gram(u, GAUSSIAN_DEFAULT)
            L = gram(v, GAUSSIAN_DEFAULT)
            fast = hsic(K, center(L), clamp=False)
            assert fast == pytest.approx(explicit_hsic(K, L), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shapes do not match"):
            hsic(np.ones((3, 3)), np.zeros((4, 4)))

    def test_clamp_floors_roundoff_at_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            u = rng.standard_normal((6, 1))
            K = gram(u, GAUSSIAN_DEFAULT)
            Lc = center(np.ones((6, 6)) + 1e-17 * rng.standard_normal((6, 6)))
            assert hsic(K, Lc) >= 0.0


class TestHsicPair:
    def test_composition_identity(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal((15, 1))
        v = rng.standard_normal((15, 2))
        spec_u = KernelSpec("laplacian", 1.0)
        spec_v = GAUSSIAN_DEFAULT
        expected = hsic(gram(u, spec_u), center(gram(v, spec_v)))
        assert hsic_pair(u, v, spec_u, spec_v) == expected

    def test_self_dependence_positive(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal((20, 1))
        assert hsic_pair(u, u) > 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            u = rng.standard_normal((12, 1))
            v = rng.standard_normal((12, 1))
            assert hsic_pair(u, v) == pytest.approx(hsic_pair(v, u), abs=1e-12)

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal((30, 1))
        v = rng.standard_normal((30, 2))
        base = hsic_pair(u, v)
        for _ in range(5):
            perm = rng.permutation(30)
            assert hsic_pair(u[perm], v[perm]) == pytest.approx(base, abs=1e-12)

    def test_degenerate_response_exact_zero(self):
        rng = np.random.default_rng(12)
        u = rng.standard_normal((10, 1))
        v = np.full((10, 1), 2.5)
        assert hsic_pair(u, v) == 0.0

    def test_translation_invariance_of_shift_kernels(self):
        rng = np.random.default_rng(13)
        u = rng.standard_normal((18, 1))
        v = rng.standard_normal((18, 1))
        for family in ("gaussian", "laplacian"):
            spec = KernelSpec(family, 2.0)
            a = hsic_pair(u, v, spec, spec)
            b = hsic_pair(u + 7.0, v - 3.0, spec, spec)
            assert a == pytest.approx(b, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="sample sizes differ"):
            hsic_pair(np.zeros((4, 1)), np.zeros((5, 1)))


def test_independent_pairs_fall_below_permutation_null():
    """The unpermuted statistic of an independent pair should look like a
    draw from its own permutation null: below the null's empirical 99th
    percentile in nearly every re-draw."""
    rng = np.random.default_rng(14)
    n, n_perm = 100, 300
    hits = 0
    redraws = 20
    for _ in range(redraws):
        u = rng.standard_normal((n, 1))
        v = rng.standard_normal((n, 1))
        K = gram(u, GAUSSIAN_DEFAULT)
        L = gram(v, GAUSSIAN_DEFAULT)
        observed = hsic(K, center(L))
        null = np.empty(n_perm)
        for j in range(n_perm):
            perm = rng.permutation(n)
            null[j] = hsic(K, center(L[np.ix_(perm, perm)]))
        if observed < np.quantile(null, 0.99):
            hits += 1
    assert hits >= int(0.95 * redraws)


def _blas_calls(source: str):
    """(line, name) of each call in ``source`` that may reach BLAS: a matrix
    product, or an ``einsum`` without the literal keyword ``optimize=False``,
    since its optimized paths hand contractions to ``tensordot``."""
    blas = {"dot", "vdot", "matmul", "inner", "tensordot"}
    for node in ast.walk(ast.parse(source)):
        if isinstance(getattr(node, "op", None), ast.MatMult):
            yield node.lineno, "@"
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            in_order = any(
                kw.arg == "optimize" and isinstance(kw.value, ast.Constant) and kw.value.value is False
                for kw in node.keywords
            )
            if called in blas or (called == "einsum" and not in_order):
                yield node.lineno, called


def test_scoring_modules_call_no_blas():
    # Every utility is reduced in one fixed order by numpy's own loops; a
    # matrix product would make its bits depend on the BLAS library and its
    # thread count.
    src = Path(__file__).resolve().parents[1] / "src" / "survscreen"
    for name in ("kernels.py", "screening.py"):
        assert list(_blas_calls((src / name).read_text())) == [], name


@pytest.mark.parametrize(
    "call, banned",
    [
        ("a @ b", True),
        ("np.dot(a, b)", True),
        ("a.dot(b)", True),
        ("np.vdot(a, b)", True),
        ("np.matmul(a, b)", True),
        ("np.inner(a, b)", True),
        ("np.tensordot(a, b)", True),
        ("np.einsum('ij,i->j', a, b)", True),
        ("np.einsum('ij,i->j', a, b, optimize=True)", True),
        ("np.einsum('ij,i->j', a, b, optimize='greedy')", True),
        ("np.einsum('ij,i->j', a, b, optimize=0)", True),
        ("np.einsum('ij,i->j', a, b, optimize=flag)", True),
        ("einsum('ij,i->j', a, b, **{'optimize': False})", True),
        ("np.einsum('ij,i->j', a, b, optimize=False)", False),
    ],
)
def test_blas_ban_passes_only_in_order_einsum(call, banned):
    assert bool(list(_blas_calls(call))) is banned


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 400),
    w=st.integers(2, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_contraction_adds_rows_in_order(m, w, seed):
    # _sweep and hsic weight and sum each diagonal in one einsum; its bits
    # must be those of a broadcast multiply followed by numpy's in-order row
    # sum, so that fusing the two passes moved no utility. (A numpy with an
    # FMA baseline fuses the multiply and add and would differ here.)
    rng = np.random.default_rng(seed)
    term = rng.standard_normal((m, w)) * 10.0 ** rng.uniform(-30.0, 30.0, (m, w))
    d = rng.standard_normal(m) * 10.0 ** rng.uniform(-30.0, 30.0, m)
    fused = np.einsum("ij,i->j", term, d, optimize=False)
    assert fused.tobytes() == (term * d[:, None]).sum(axis=0).tobytes()
