"""Attention softmax, head aggregation and argmax alignment.

All functions here are pure and operate on plain numpy arrays:

* an attention *matrix* is ``(m, n)``: one row per target token, one column
  per source frame, each row a probability distribution;
* an attention *tensor* is ``(layers, heads, m, n)``: the full per-layer,
  per-head grid captured from one decode pass;
* an *alignment vector* is ``(m,)`` of ints: for each target token, the
  index of its most-attended source frame (0-based, ties to the lowest
  index).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "aggregate_attention",
    "compute_alignment",
]


def softmax(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax over the last axis, written to ``out`` if given.

    The ufunc reductions are what ``ndarray.max`` / ``ndarray.sum`` call,
    without the method overhead that dominates on the small per-token
    arrays of incremental decoding.
    """
    exp = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    return np.divide(exp, np.add.reduce(exp, axis=-1, keepdims=True), out=out)


def aggregate_attention(tensor: np.ndarray, layer: int) -> np.ndarray:
    """Mean over all heads of one layer of an attention tensor.

    ``tensor`` has shape (layers, heads, m, n). The mean of row-stochastic
    matrices is row-stochastic, so the result is a valid attention matrix.
    """
    t = np.asarray(tensor, dtype=float)
    if t.ndim != 4:
        raise ValueError(f"attention tensor must be 4-D (layers, heads, m, n), got shape {t.shape}")
    num_layers, num_heads = t.shape[0], t.shape[1]
    if num_heads < 1:
        raise ValueError("attention tensor must have at least one head")
    if not 0 <= layer < num_layers:
        raise ValueError(f"layer {layer} out of range for tensor with {num_layers} layers")
    return t[layer].mean(axis=0)


def compute_alignment(weights: np.ndarray) -> np.ndarray:
    """Index of the most-attended source frame for each target row.

    Ties break to the lowest frame index. An empty (0-row) matrix yields an
    empty vector; rows without columns are rejected.
    """
    a = np.asarray(weights, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"attention matrix must be 2-D, got shape {a.shape}")
    m, n = a.shape
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 0:
        raise ValueError("cannot align against zero source frames")
    return a.argmax(axis=1)
