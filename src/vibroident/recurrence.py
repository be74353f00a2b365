"""Blocked evaluation of a linear recurrence x[i] = A x[i-1] + B d[i].

Newmark time stepping and the zero-phase filter both carry a small state
through a long scalar drive ``d``.  Over a block of m samples, from the
state x[k] before it,

    x[k+j] = A^j x[k] + sum_{i=1..j} A^(j-i) B d[k+i],   j = 1..m,

so the drive terms of every block are one product with a lower-triangular
block-Toeplitz matrix, and only the free response A^j x[k] has to be
carried from block to block.
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
    H = P[:m] @ B
    G = np.zeros((m, m, len(A)))
    for s in range(m):
        G[s, s:] = H[: m - s]
    return P, G
