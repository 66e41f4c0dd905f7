"""Attention math: softmax, validation, aggregation, argmax alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulst import aggregate_attention, compute_alignment, softmax

from conftest import random_attention
from support import ROW_SUM_TOL, validate_attention_matrix


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax(rng.normal(size=(5, 7)))
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out > 0).all()

    def test_stable_for_large_scores(self):
        out = softmax(np.array([[1000.0, 1000.0, -1000.0]]))
        assert np.isfinite(out).all()
        assert np.allclose(out, [[0.5, 0.5, 0.0]])


class TestValidateAttentionMatrix:
    def test_accepts_row_stochastic(self):
        a = validate_attention_matrix([[0.25, 0.75], [1.0, 0.0]])
        assert a.dtype == float

    def test_accepts_empty_rows(self):
        validate_attention_matrix(np.zeros((0, 5)))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            validate_attention_matrix([[0.3, 0.3]])

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            validate_attention_matrix([[1.5, -0.5]])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            validate_attention_matrix([0.5, 0.5])

    def test_rejects_rows_without_columns(self):
        with pytest.raises(ValueError, match="source column"):
            validate_attention_matrix(np.zeros((2, 0)))


class TestAggregateAttention:
    def test_mean_of_two_one_hot_heads(self):
        tensor = np.zeros((1, 2, 1, 2))
        tensor[0, 0, 0] = [1.0, 0.0]
        tensor[0, 1, 0] = [0.0, 1.0]
        assert np.allclose(aggregate_attention(tensor, 0), [[0.5, 0.5]])

    def test_single_head_is_identity(self):
        rng = np.random.default_rng(4)
        matrix = random_attention(rng, 3, 6)
        tensor = matrix[None, None]
        assert np.array_equal(aggregate_attention(tensor, 0), matrix)

    def test_layer_3_of_deep_tensor_matches_entry_mean(self):
        rng = np.random.default_rng(5)
        tensor = np.stack(
            [np.stack([random_attention(rng, 4, 9) for _ in range(8)]) for _ in range(6)]
        )
        got = aggregate_attention(tensor, 3)
        # brute-force per-entry mean over exactly the 8 head matrices at layer 3
        for i in range(4):
            for j in range(9):
                expected = sum(tensor[3, h, i, j] for h in range(8)) / 8.0
                assert got[i, j] == pytest.approx(expected, abs=1e-12)

    def test_preserves_row_normalization(self):
        rng = np.random.default_rng(6)
        tensor = np.stack(
            [np.stack([random_attention(rng, 5, 7) for _ in range(3)]) for _ in range(2)]
        )
        out = aggregate_attention(tensor, 1)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= ROW_SUM_TOL

    def test_head_permutation_invariance(self):
        rng = np.random.default_rng(7)
        tensor = np.stack(
            [np.stack([random_attention(rng, 2, 4) for _ in range(4)]) for _ in range(1)]
        )
        permuted = tensor[:, [2, 0, 3, 1]]
        assert np.allclose(aggregate_attention(tensor, 0), aggregate_attention(permuted, 0))

    @pytest.mark.parametrize("layer", [-1, 2, 10])
    def test_rejects_layer_out_of_range(self, layer):
        tensor = np.full((2, 1, 1, 1), 1.0)
        with pytest.raises(ValueError, match="out of range"):
            aggregate_attention(tensor, layer)

    def test_rejects_non_4d(self):
        with pytest.raises(ValueError, match="4-D"):
            aggregate_attention(np.zeros((2, 2)), 0)

    def test_rejects_zero_heads(self):
        with pytest.raises(ValueError, match="at least one head"):
            aggregate_attention(np.zeros((2, 0, 1, 1)), 0)


class TestComputeAlignment:
    def test_unique_row_maxima(self):
        got = compute_alignment([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        assert got.tolist() == [0, 2]

    def test_tie_breaks_to_lowest_index(self):
        assert compute_alignment([[0.5, 0.5]]).tolist() == [0]

    def test_seeded_matrix_matches_row_scan(self):
        rng = np.random.default_rng(8)
        matrix = random_attention(rng, 5, 12)
        got = compute_alignment(matrix)
        for i in range(5):
            best, best_j = -1.0, -1
            for j in range(12):
                if matrix[i, j] > best:
                    best, best_j = matrix[i, j], j
            assert got[i] == best_j

    def test_empty_matrix_gives_empty_vector(self):
        assert compute_alignment(np.zeros((0, 4))).shape == (0,)

    def test_rejects_zero_columns_with_rows(self):
        with pytest.raises(ValueError, match="zero source frames"):
            compute_alignment(np.zeros((2, 0)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            compute_alignment(np.zeros(3))

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 8),
        n=st.integers(1, 16),
        seed=st.integers(0, 10_000),
    )
    def test_alignment_is_row_argmax(self, m, n, seed):
        matrix = random_attention(np.random.default_rng(seed), m, n)
        got = compute_alignment(matrix)
        for i in range(m):
            row = matrix[i].tolist()
            assert row[got[i]] == max(row)
            assert all(row[j] < row[got[i]] for j in range(got[i]))
