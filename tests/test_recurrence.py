import warnings

import numpy as np
import pytest

from vibroident.recurrence import carry


def rotation_map(radius):
    """4 x 4 map with eigenvalues of modulus ``radius``: two rotations,
    turned into a random orthonormal basis."""
    q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((4, 4)))
    r = np.zeros((4, 4))
    for i, angle in ((0, 0.3), (2, 1.1)):
        c, s = np.cos(angle), np.sin(angle)
        r[i : i + 2, i : i + 2] = [[c, -s], [s, c]]
    return radius * q @ r @ q.T


#: contracting, a rotation (|lambda| = 1, the undamped case) and growing
MAPS = {"contracting": 0.9, "rotation": 1.0, "growing": 1.01}
BLOCK_COUNTS = [1, 2, 3, 5, 64, 1000]


def sequential(s, T):
    """Reference: s[b] = s[b-1] @ T + s[b], one block at a time."""
    out = s.copy()
    for b in range(1, out.shape[-2]):
        out[..., b, :] += out[..., b - 1, :] @ T
    return out


def drives(nb, start, seed):
    s = np.random.default_rng(seed).standard_normal((nb, 4))
    s[0] = start
    return s


@pytest.mark.parametrize("nb", BLOCK_COUNTS)
@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("start", ["zero", "nonzero"])
def test_scan_matches_sequential_loop(name, nb, start):
    T = rotation_map(MAPS[name])
    s = drives(nb, 0.0 if start == "zero" else [3.0, -1.0, 2.0, 0.5], nb)
    want = sequential(s, T)
    carry(s, T)
    # rounding relative to the largest state so far
    scale = np.maximum.accumulate(np.max(np.abs(want), axis=1))
    assert np.all(np.abs(s - want) <= 1e-13 * scale[:, None])


@pytest.mark.parametrize("nb", BLOCK_COUNTS)
def test_batch_rows_equal_rows_scanned_alone(nb):
    T = rotation_map(0.9)
    batch = np.stack([drives(nb, [1.0, 0.0, -2.0, 4.0], seed) for seed in range(3)])
    alone = batch.copy()
    carry(batch, T)
    for row in alone:
        carry(row, T)
    assert batch.tobytes() == alone.tobytes()


def test_state_that_stays_zero_meets_no_overflowed_power():
    # the first state grows by 1e10 a block, so its powers overflow from
    # the sixth level on; it stays exactly zero, and the second state is
    # carried as alone
    T = np.diag([1e10, 0.5])
    s = np.zeros((1000, 2))
    s[:, 1] = np.random.default_rng(4).standard_normal(1000)
    want = sequential(s, T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        carry(s, T)
    assert np.all(s[:, 0] == 0.0)
    assert np.all(np.abs(s[:, 1] - want[:, 1]) <= 1e-13 * np.max(np.abs(want[:, 1])))
