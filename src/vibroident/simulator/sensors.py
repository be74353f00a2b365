"""Station accelerations from the generalized state history."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from ..timeseries import SensorLayout, TimeSeriesSet
from .integrate import StateHistory

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
    """Per-station acceleration a_i = a_0 + alpha x r_i (linearized).

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
    acc_tr = history.a[idx, :3]
    acc_rot = history.a[idx, 3:]

    rng = np.random.default_rng(noise.seed)
    values = np.empty((3 * len(layout.stations), len(idx)))
    for s, st in enumerate(layout.stations):
        a_st = acc_tr + np.cross(acc_rot, st.position[None, :])
        for axis in range(3):
            vals = values[3 * s + axis]
            vals[:] = a_st @ st.axes[axis]
            if noise.rms > 0.0:
                vals += rng.normal(0.0, noise.rms, size=vals.shape)
    labels = [channel_label(st.id, axis) for st in layout.stations for axis in range(3)]
    return TimeSeriesSet(t0, output_rate, values, labels, ["m/s^2"] * len(labels))
