"""Station accelerations from the generalized state history."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from ..timeseries import SensorLayout, TimeSeriesSet
from .integrate import StateHistory
from .model import influence_matrix

AXIS_NAMES = ("x", "y", "z")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian sensor noise."""

    rms: float = 0.0                 # m/s^2
    seed: int | None = None


def channel_label(station_id: str, axis: int) -> str:
    return f"{station_id}_{AXIS_NAMES[axis]}"


def sensor_kinematics(
    history: StateHistory,
    layout: SensorLayout,
    noise: NoiseSpec = NoiseSpec(),
    output_rate: float | None = None,
) -> TimeSeriesSet:
    """Channel accelerations (a_0 + alpha x r) . axis, linearized: each
    channel's :func:`~.model.influence_matrix` row (axis, r x axis) times
    the generalized acceleration, in one channels x 6 product.

    The centripetal term is quadratic in the small rotational velocity and
    omitted.  Channels are named ``<station>_<axis>``; optional white noise
    is deterministic per seed and added at the output rate.
    """
    max_rot = float(np.max(np.abs(history.u[:, 3:]))) if len(history.t) else 0.0
    if max_rot >= 1e-3:
        raise DomainError(
            f"rotations reach {max_rot:.2e} rad; linearized kinematics need |theta| < 1e-3"
        )
    rate = history.sample_rate
    if output_rate is None:
        output_rate = rate
    step_f = rate / output_rate
    step = int(round(step_f))
    if abs(step_f - step) > 1e-9 or step < 1:
        raise ValueError(f"output rate {output_rate} must integer-divide the state rate {rate}")

    idx = np.arange(0, len(history.t), step)
    t0 = float(history.t[0])
    positions = np.reshape([st.position for st in layout.stations], (-1, 1, 3))
    axes = np.reshape([st.axes for st in layout.stations], (-1, 3, 3))
    values = influence_matrix(positions, axes).reshape(-1, 6) @ history.a[idx].T
    if noise.rms > 0.0:
        # the same numbers as one draw per channel, in channel order
        values += np.random.default_rng(noise.seed).normal(0.0, noise.rms, size=values.shape)
    labels = [channel_label(st.id, axis) for st in layout.stations for axis in range(3)]
    return TimeSeriesSet(t0, output_rate, values, labels, ["m/s^2"] * len(labels))
