import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from starflow import symfunc as sfc
from _oracles import (elem_sym_gradient_rowmajor, elem_sym_table_rowmajor, gradient_tables_rowmajor,
                      sigma_subsets)

finite_entries = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
vectors = st.lists(finite_entries, min_size=1, max_size=7)


def bits(x) -> bytes:
    """Bit pattern of a float, so that bitwise-equal NaNs compare equal."""
    return np.float64(x).tobytes()


class TestElemSym:
    def test_examples(self):
        assert sfc.elem_sym([2, 3], 1) == 5.0
        assert sfc.elem_sym([1, 2, 3], 2) == 11.0
        assert sfc.elem_sym([1, 1, 1], 2) == 3.0 == math.comb(3, 2)
        assert sfc.elem_sym([1, 2], 3) == 0.0

    @pytest.mark.parametrize("lam", [np.ones((2, 2)), np.array([])], ids=["two_dim", "empty"])
    def test_vector_must_be_one_dimensional_and_non_empty(self, lam):
        with pytest.raises(ValueError, match="one-dimensional and non-empty"):
            sfc.elem_sym(lam, 1)

    def test_sigma_zero_is_one(self):
        assert sfc.elem_sym([4.2, -1.0], 0) == 1.0

    def test_binomials_at_ones(self):
        for n in range(1, 9):
            sig = sfc.elem_sym_all(np.ones(n))
            for k in range(n + 1):
                assert sig[k] == pytest.approx(math.comb(n, k), rel=1e-14)

    @given(vectors)
    @settings(max_examples=200, deadline=None)
    def test_matches_subset_enumeration(self, lam):
        for m in range(len(lam) + 2):
            expect = sigma_subsets(lam, m)
            got = sfc.elem_sym(lam, m)
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sfc.elem_sym([1.0, float("nan")], 1)
        with pytest.raises(ValueError):
            sfc.elem_sym([np.inf, 0.0], 1)

    def test_table_batch_agrees(self):
        rng = np.random.default_rng(7)
        lam = rng.normal(size=(40, 5))
        table = sfc.elem_sym_table(lam)
        for i in range(40):
            assert table[i] == pytest.approx(list(sfc.elem_sym_all(lam[i])), rel=1e-14)


def layouts(rows: int, n: int) -> dict:
    """The same (rows, n) values C-ordered, F-ordered and as a strided view."""
    strided = np.random.default_rng(rows * 16 + n).uniform(-2.0, 2.0, size=(2 * rows, 2 * n))[::2, 1::2]
    return {"C": np.ascontiguousarray(strided), "F": np.asfortranarray(strided), "strided": strided}


class TestColumnMajorKernel:
    """The column-major tables repeat the row-major update's IEEE operations,
    so they equal it bit for bit whatever the input layout."""

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_table_is_rowmajor_oracle(self, n, layout):
        for rows in (1, 2, 257):
            lam = layouts(rows, n)[layout]
            assert sfc.elem_sym_table(lam).tobytes() == elem_sym_table_rowmajor(lam).tobytes()

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_gradient_is_rowmajor_oracle(self, n, layout):
        for rows in (1, 2, 257):
            lam = layouts(rows, n)[layout]
            for m in range(1, n + 1):
                got = sfc.elem_sym_gradient_table(lam, m)
                assert got.tobytes() == elem_sym_gradient_rowmajor(lam, m).tobytes()

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_pass_serves_every_degree(self, n, layout):
        # each degree slice of the one leave-one-out pass, m = 1 included, is
        # bitwise the single-degree table and the row-major oracle
        for rows in (1, 2, 257):
            lam = layouts(rows, n)[layout]
            grads = sfc._gradient_tables(lam)
            assert grads.shape == (n, n, rows)
            assert grads.tobytes() == gradient_tables_rowmajor(lam).tobytes()
            for m in range(1, n + 1):
                want = elem_sym_gradient_rowmajor(lam, m).tobytes()
                assert grads[m - 1].T.tobytes() == want
                assert sfc.elem_sym_gradient_table(lam, m).tobytes() == want


class TestGradient:
    def test_examples(self):
        grad = sfc.elem_sym_gradient([1, 2, 3], 2)
        assert grad[0] == 5.0  # 2 + 3
        assert list(sfc.elem_sym_gradient([4, -2, 7], 1)) == [1.0, 1.0, 1.0]
        # one entry: sigma_0 of the empty vector in every row
        assert sfc.elem_sym_gradient_table(np.array([[5.0], [-2.0]]), 1).tolist() == [[1.0], [1.0]]

    @given(vectors)
    @settings(max_examples=200, deadline=None)
    def test_euler_homogeneity(self, lam):
        lam = np.asarray(lam)
        n = lam.size
        for m in range(1, n + 1):
            grad = sfc.elem_sym_gradient(lam, m)
            lhs = float(np.dot(lam, grad))
            rhs = m * sfc.elem_sym(lam, m)
            scale = float(np.sum(np.abs(lam * grad))) + abs(rhs) + 1.0
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            sfc.elem_sym_gradient([1, 2], 0)
        with pytest.raises(ValueError):
            sfc.elem_sym_gradient([1, 2], 3)
        # a non-finite degree is a ValueError naming it, through every degree argument
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="degree m"):
                sfc.elem_sym([1.0, 2.0], bad)
            with pytest.raises(ValueError, match="degree m"):
                sfc.elem_sym_gradient([1.0, 2.0], bad)
            with pytest.raises(ValueError, match="degree k"):
                sfc.in_gamma_k([1.0, 2.0], bad)
            with pytest.raises(ValueError, match="k must"):
                sfc.cnk(2, bad)
        # the table form takes only an (M, n) array, like elem_sym_table
        for bad in (np.ones(3), np.ones((2, 3, 4))):
            with pytest.raises(ValueError, match=r"\(M, n\)"):
                sfc.elem_sym_gradient_table(bad, 1)


class TestCnk:
    def test_examples(self):
        assert sfc.cnk(1, 1) == 1.0
        assert sfc.cnk(2, 1) == 2.0
        assert sfc.cnk(2, 2) == 0.5

    def test_binomial_ratio_oracle(self):
        # cnk is cached: the calls after the first return the cached value
        for _ in range(2):
            for n in range(1, 9):
                for k in range(1, n + 1):
                    assert sfc.cnk(n, k) == math.comb(n, k) / math.comb(n, k - 1)
                    assert sfc.cnk(n, k) == pytest.approx((n - k + 1) / k, rel=1e-15)
        assert sfc.cnk(2.0, 1) == sfc.cnk(2, 1)

    def test_rejects_out_of_range(self):
        # a raised call is not cached: a repeated bad degree raises again
        for n, k in ((2, 3), (3, 0), (2.5, 1), (2, 1.5)) * 2:
            with pytest.raises(ValueError):
                sfc.cnk(n, k)


class TestGammaCone:
    def test_examples(self):
        assert sfc.in_gamma_k([1, 1, 1], 3)
        assert sfc.in_gamma_k([3, -1], 1)
        assert not sfc.in_gamma_k([3, -1], 2)

    def test_closure_tolerance(self):
        # sigma_2 = 0 exactly: outside the open cone, inside the closure
        lam = [1.0, 0.0]
        assert not sfc.in_gamma_k(lam, 2, strict=True)
        assert sfc.in_gamma_k(lam, 2, strict=False)

    @given(st.lists(finite_entries, min_size=2, max_size=6), st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_nesting(self, lam, k):
        k = min(k, len(lam))
        if sfc.in_gamma_k(lam, k):
            for lower in range(1, k):
                assert sfc.in_gamma_k(lam, lower)


class TestPolarization:
    def test_examples(self):
        assert sfc.polarized_sigma_square([1, 2], 1) == pytest.approx(5.0)
        assert sfc.polarized_sigma_square([1, 2, 3], 2) == pytest.approx(48.0)

    @given(vectors)
    @settings(max_examples=200, deadline=None)
    def test_identity(self, lam):
        lam = np.asarray(lam)
        n = lam.size
        sig = sfc.elem_sym_all(lam)
        for m in range(1, n + 1):
            lhs = sfc.polarized_sigma_square(lam, m)
            tail = (m + 1) * sig[m + 1] if m + 1 <= n else 0.0
            rhs = sig[1] * sig[m] - tail
            scale = abs(lhs) + abs(sig[1] * sig[m]) + abs(tail) + 1.0
            assert abs(lhs - rhs) <= 1e-12 * scale

    @given(vectors)
    @settings(max_examples=200, deadline=None)
    def test_scalar_is_row_of_table(self, lam):
        table = np.asarray(lam, dtype=float)[None, :]
        for m in range(1, table.shape[1] + 1):
            euler = table * sfc.elem_sym_gradient_table(table, m)
            row = sfc.polarized_sigma_square_table(table, euler)
            assert bits(sfc.polarized_sigma_square(lam, m)) == bits(row[0])

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_euler_forms_are_gradient_row_sums(self, n, layout):
        # the value from the Euler products lam_i dsigma_m/dlam_i, and the scale
        # from their absolute values, are bitwise the row sums of
        # dsigma_m/dlam_i lam_i lam_i and of its absolute terms
        for rows in (1, 2, 257):
            lam = layouts(rows, n)[layout]
            abs_lam = np.abs(lam)
            for m in range(1, n + 1):
                grad = sfc.elem_sym_gradient_table(lam, m)
                euler = lam * grad
                value = sfc.polarized_sigma_square_table(lam, euler)
                assert value.tobytes() == np.sum(grad * lam * lam, axis=1).tobytes()
                scale = sfc.polarized_sigma_square_table(abs_lam, np.abs(euler))
                want = np.sum(np.abs(grad) * abs_lam * abs_lam, axis=1)
                assert scale.tobytes() == want.tobytes()


class TestNewtonMacLaurin:
    def test_equality_at_ones(self):
        for n in range(2, 7):
            for k in range(1, n):
                assert sfc.newton_maclaurin_check(np.full(n, 2.5), k) == pytest.approx(0.0, abs=1e-14)

    def test_example(self):
        assert sfc.newton_maclaurin_check([1, 2, 3], 1) == pytest.approx(1.0 / 36.0, rel=1e-12)

    def test_gap_nonnegative_bulk(self):
        rng = np.random.default_rng(31415)
        for n in range(2, 7):
            lam = rng.uniform(-2, 2, size=(20_000, n))
            sig = sfc.elem_sym_table(lam)
            for k in range(1, n):
                ok = np.abs(sig[:, k]) > 1e-8
                ratio = sig[ok, k + 1] * sig[ok, k - 1] / sig[ok, k] ** 2
                ref = math.comb(n, k + 1) * math.comb(n, k - 1) / math.comb(n, k) ** 2
                assert float(np.min(ref - ratio)) >= -1e-12
                assert np.array_equal(sfc.newton_gap_table(sig[ok], k), ref - ratio)

    @pytest.mark.filterwarnings("error")
    def test_scale_invariance(self):
        lam = np.array([0.3, 1.7, 2.2, -0.4])
        # from 1e100 on, the sigma products overflow though the vector is finite
        for s in (0.01, 3.0, 250.0, 1e100, 1e160, 1e200):
            assert sfc.newton_maclaurin_check(s * lam, 2) == pytest.approx(
                sfc.newton_maclaurin_check(lam, 2), abs=1e-12
            )
        for big in ([1e200, 1e200], [1e160] * 3):
            assert sfc.newton_maclaurin_check(big, 1) == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_sigma_k(self):
        # sigma_1 is zero, or nonzero with a square that underflows to zero
        for lam in ([1.0, -1.0], [0.0, 5e-324], [1e-200, 1e-200]):
            with pytest.raises(ZeroDivisionError):
                sfc.newton_maclaurin_check(lam, 1)

    @given(st.lists(finite_entries, min_size=2, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_scalar_is_row_of_table(self, lam):
        sig = sfc.elem_sym_table(np.asarray(lam, dtype=float)[None, :])
        for k in range(1, len(lam)):
            if sig[0, k] ** 2 != 0.0:
                table = sfc.newton_gap_table(sig, k)[0]
                assert bits(sfc.newton_maclaurin_check(lam, k)) == bits(table)


class TestMacLaurinPowerBound:
    def test_equality_at_ones(self):
        # n=2, k=1: constant binom(2,2)/binom(2,1)^2 = 1/4, tight at I
        assert sfc.maclaurin_power_bound([1.0, 1.0], 1) == pytest.approx(0.0, abs=1e-14)

    def test_example(self):
        assert sfc.maclaurin_power_bound([1.0, 2.0], 1) == pytest.approx(0.25, rel=1e-12)
        assert sfc.maclaurin_power_bound([0.5, 2.0, 3.0], 3) == 0.0  # k = n: C = 0, no sigma_{n+1}

    def test_nonnegative_on_cone(self):
        rng = np.random.default_rng(99)
        for n in range(2, 6):
            lam = np.abs(rng.normal(size=(5_000, n))) + 0.05
            lam /= np.max(lam, axis=1, keepdims=True)
            sig = sfc.elem_sym_table(lam)
            for k in range(1, n):
                c = math.comb(n, k + 1) / math.comb(n, k) ** ((k + 1) / k)
                gap = c * sig[:, k] ** (1 + 1 / k) - sig[:, k + 1]
                assert float(np.min(gap)) >= -1e-12
                assert np.array_equal(sfc.maclaurin_power_gap_table(sig, k), gap)

    def test_rejects_outside_cone(self):
        with pytest.raises(ValueError):
            sfc.maclaurin_power_bound([-1.0, -2.0], 1)

    @given(st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=1, max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_scalar_is_row_of_table(self, lam):
        sig = sfc.elem_sym_table(np.asarray(lam, dtype=float)[None, :])
        for k in range(1, len(lam) + 1):
            table = sfc.maclaurin_power_gap_table(sig, k)[0]
            assert bits(sfc.maclaurin_power_bound(lam, k)) == bits(table)
