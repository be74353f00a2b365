"""Blocked evaluation of a linear recurrence x[i] = A x[i-1] + B d[i].

Newmark time stepping and the zero-phase filter both carry a small state
through a long scalar drive ``d``.  Over a block of m samples, from the
state x[k] before it,

    x[k+j] = A^j x[k] + sum_{i=1..j} A^(j-i) B d[k+i],   j = 1..m,

so the drive terms of every block are one product with a lower-triangular
block-Toeplitz matrix, and the block-end states, x_b = A^m x_(b-1) + (drive
terms), are carried in ceil(log2 nb) products for nb blocks (:func:`carry`).
"""

from __future__ import annotations

import numpy as np


def block_operators(A: np.ndarray, B: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Powers ``P[j] = A^j`` for j = 0..m, and the block response ``G`` with
    ``G[s, r] = A^(r-s) B`` for r >= s, else 0: the state at block sample r
    after a unit drive at block sample s."""
    P = np.empty((m + 1,) + A.shape)
    P[0] = np.eye(len(A))
    for j in range(1, m + 1):
        P[j] = A @ P[j - 1]
    lag = np.arange(m) - np.arange(m)[:, None]         # r - s
    G = np.where(lag[..., None] >= 0, (P[:m] @ B)[lag], 0.0)
    return P, G


def carry(s: np.ndarray, T: np.ndarray) -> None:
    """In place along axis -2: ``s[b]`` holds block b's drive terms and
    becomes its state, ``s[b] = s[b-1] @ T + s[b]`` (``T = (A^m)^T``), by a
    doubling scan (Hillis & Steele, CACM 29(12), 1986): ``s[b] += s[b-d] @
    T^d`` for d = 1, 2, 4, ... < nb, one stacked product per level, so a row
    of a batch gets the same bits as alone.  Overflowed powers are clamped
    to the largest double: a state that stays 0 meets 0 * huge, not 0 * inf."""
    nb = s.shape[-2]
    d = 1
    while d < nb:
        T = T if np.isfinite(T).all() else np.nan_to_num(T, nan=np.finfo(float).max)
        s[..., d:, :] += s[..., :-d, :] @ T
        d *= 2
        if d < nb:
            with np.errstate(over="ignore", invalid="ignore"):
                T = T @ T
