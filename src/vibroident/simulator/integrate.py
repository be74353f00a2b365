"""Newmark time stepping of the assembled 6-DOF system."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import IntegrationError
from ..recurrence import block_operators
from .excitation import ExcitationProgram
from .model import SystemMatrices


@dataclass(frozen=True)
class StateHistory:
    """Generalized displacement/velocity/acceleration trajectories."""

    t: np.ndarray            # (n,)
    u: np.ndarray            # (n, 6) displacements m / rotations rad
    v: np.ndarray            # (n, 6)
    a: np.ndarray            # (n, 6)

    @property
    def sample_rate(self) -> float:
        return 1.0 / float(self.t[1] - self.t[0])


#: samples per block of the matrix recurrence
BLOCK = 256


def _step_map(sys: SystemMatrices, bf: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One average-acceleration Newmark step as ``x1 = A x0 + B drive1``
    on the state ``x = (u, v, a)``."""
    gamma, beta = 0.5, 0.25
    a0 = 1.0 / (beta * dt * dt)
    a1 = gamma / (beta * dt)
    a2 = 1.0 / (beta * dt)
    a3 = 1.0 / (2.0 * beta) - 1.0
    a4 = gamma / beta - 1.0
    a5 = dt / 2.0 * (gamma / beta - 2.0)
    a6 = dt * (1.0 - gamma)
    a7 = gamma * dt

    M, C, K = sys.M, sys.C, sys.K
    eye, zero = np.eye(6), np.zeros((6, 6))
    keff_inv = np.linalg.inv(K + a0 * M + a1 * C)
    # u1 = keff_inv (bf d1 + M (a0 u + a2 v + a3 a) + C (a1 u + a4 v + a5 a))
    Au = keff_inv @ np.hstack([a0 * M + a1 * C, a2 * M + a4 * C, a3 * M + a5 * C])
    # a1 = a0 (u1 - u) - a2 v - a3 a;  v1 = v + a6 a + a7 a1
    Aa = a0 * (Au - np.hstack([eye, zero, zero])) - np.hstack([zero, a2 * eye, a3 * eye])
    Av = np.hstack([zero, eye, a6 * eye]) + a7 * Aa
    Bu = keff_inv @ bf
    return np.vstack([Au, Av, Aa]), np.concatenate([Bu, a7 * a0 * Bu, a0 * Bu])


def integrate(
    sys: SystemMatrices,
    program: ExcitationProgram,
    dt: float,
    duration: float | None = None,
    u0: np.ndarray | None = None,
    v0: np.ndarray | None = None,
) -> StateHistory:
    """Average-acceleration Newmark (gamma=1/2, beta=1/4) from rest, or from
    the initial displacement ``u0`` and velocity ``v0``.

    Unconditionally stable and free of algorithmic damping, so identified
    damping ratios are not contaminated by the integrator.

    One step is the linear map ``x[i] = A x[i-1] + B drive[i]`` on the
    18-state ``x = (u, v, a)``.  The record is stepped in blocks of
    ``BLOCK`` samples: from the state ``x[k]`` before a block,

        x[k+j] = A^j x[k] + sum_{i=1..j} A^(j-i) B drive[k+i],   j = 1..m,

    i.e. ``X = P[1:m+1] @ x[k] + T @ H`` with the powers ``P[j] = A^j`` and
    responses ``H[j] = A^j B`` built once, and ``T`` the lower-triangular
    Toeplitz matrix of the block's drive.  The ``T @ H`` terms do not depend
    on the state, so those of all blocks are one product with the block
    drives; the state is then carried from block to block, one Python
    iteration per block.  Only matrix products are used: no
    eigendecomposition, so nothing depends on the conditioning of A's
    eigenvectors and no step-by-step fallback is needed.  Rounding grows
    with j as in a step loop, and the two agree to ~1e-13 of each DOF's peak.

    Raises IntegrationError at the first sample whose displacement exceeds
    1e6 x the static deflection under the program's force amplitude.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > 1.0 / (20.0 * program.f_max):
        raise ValueError(
            f"dt={dt} too coarse for f_max={program.f_max} Hz; need dt <= {1.0 / (20.0 * program.f_max):.6g}"
        )
    if duration is None:
        duration = program.duration
    n = int(round(duration / dt)) + 1
    t = np.arange(n) * dt

    M, C, K = sys.M, sys.C, sys.K
    bf = program.generalized_amplitude()
    drive = program.drive(t)

    # runaway guard: compare against the static deflection under the
    # program's force amplitude (or the initial state, for free vibration)
    static = np.abs(np.linalg.solve(K, bf))
    ic_scale = float(np.max(np.abs(u0))) if u0 is not None else 0.0
    u_limit = 1e6 * max(float(np.max(static)), ic_scale, 1e-12)

    u_0 = np.zeros(6) if u0 is None else np.asarray(u0, dtype=float).reshape(6)
    v_0 = np.zeros(6) if v0 is None else np.asarray(v0, dtype=float).reshape(6)
    a_0 = np.linalg.solve(M, bf * drive[0] - C @ v_0 - K @ u_0)

    A, B = _step_map(sys, bf, dt)
    m = max(min(BLOCK, n - 1), 1)
    # G[s, r] = H[r - s]: row b of D @ G is T_b @ H
    P, G = block_operators(A, B, m)
    nb = -(-(n - 1) // m)
    D = np.zeros((nb, m))
    D.reshape(-1)[: n - 1] = drive[1:]
    X = np.empty((1 + nb * m, 18))
    X[0] = np.concatenate([u_0, v_0, a_0])
    blocks = X[1:].reshape(nb, m, 18)
    np.matmul(D, G.reshape(m, m * 18), out=X[1:].reshape(nb, m * 18))

    # add the free response to each block's state and carry it on
    powers = P[1:].reshape(m * 18, 18)
    for b in range(nb):
        block = blocks[b]
        block += (powers @ X[b * m]).reshape(m, 18)
        over = ~(np.abs(block[: n - 1 - b * m, :6]) <= u_limit)   # NaN counts as over
        if over.any():
            i = 1 + b * m + int(np.argmax(over.any(axis=1)))
            raise IntegrationError(f"response exceeded 1e6 x static estimate at t={t[i]:.3f} s")
    u = np.ascontiguousarray(X[:n, :6])
    v = np.ascontiguousarray(X[:n, 6:12])
    a = np.ascontiguousarray(X[:n, 12:])
    return StateHistory(t=t, u=u, v=v, a=a)
