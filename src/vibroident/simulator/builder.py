"""Parameterized block-on-springs model generation.

Vertical springs cover the bottom face on a grid, with coefficients
amplified on the outermost ring to add rotational stiffness; horizontal
springs sit around the bottom perimeter, normal to each face.  Dashpots
follow c = 2 * zeta * sqrt(k * m_trib).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import RigidBlockModel, SpringElement


@dataclass(frozen=True)
class BlockSpec:
    """Geometry, totals and distribution knobs for a generated model."""

    length: float                 # m, x extent
    width: float                  # m, y extent
    height: float                 # m, z extent
    mass: float                   # kg
    kv_total: float               # N/m, sum of vertical springs
    kh_x_total: float             # N/m, sum of x-direction springs
    kh_y_total: float             # N/m, sum of y-direction springs
    nx_bottom: int = 7
    ny_bottom: int = 4
    n_end: int = 4                # x-springs per short end
    n_side: int = 7               # y-springs per long side
    edge_amplification: float = 2.0
    zeta: float = 0.37
    #: per-direction fraction of the block mass engaged by that spring set,
    #: shared evenly by its springs; soil radiation damping differs for
    #: horizontal, vertical and rocking motion, so the shares are
    #: direction-dependent tuning constants
    trib_shares: tuple[float, float, float] = (1.0, 1.0, 1.0)
    name: str = "block"

    def inertia(self) -> np.ndarray:
        m, lx, ly, lz = self.mass, self.length, self.width, self.height
        return np.diag([
            m * (ly**2 + lz**2) / 12.0,
            m * (lx**2 + lz**2) / 12.0,
            m * (lx**2 + ly**2) / 12.0,
        ])


def _bottom_grid(spec: BlockSpec) -> list[tuple[np.ndarray, float]]:
    """(position, weight) pairs; outermost ring carries the amplification."""
    xs = np.linspace(-spec.length / 2.0, spec.length / 2.0, spec.nx_bottom)
    ys = np.linspace(-spec.width / 2.0, spec.width / 2.0, spec.ny_bottom)
    z = -spec.height / 2.0
    out = []
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            on_edge = i in (0, spec.nx_bottom - 1) or j in (0, spec.ny_bottom - 1)
            w = spec.edge_amplification if on_edge else 1.0
            out.append((np.array([x, y, z]), w))
    return out


def build_block_model(spec: BlockSpec) -> RigidBlockModel:
    groups: dict[str, list[tuple[np.ndarray, np.ndarray, float]]] = {"x": [], "y": [], "z": []}

    grid = _bottom_grid(spec)
    wsum = sum(w for _, w in grid)
    for pos, w in grid:
        groups["z"].append((pos, np.array([0.0, 0.0, 1.0]), spec.kv_total * w / wsum))

    z_edge = -spec.height / 2.0
    ys = np.linspace(-spec.width / 2.0, spec.width / 2.0, spec.n_end)
    for sx in (-1.0, 1.0):
        for y in ys:
            pos = np.array([sx * spec.length / 2.0, y, z_edge])
            groups["x"].append((pos, np.array([1.0, 0.0, 0.0]), spec.kh_x_total / (2 * spec.n_end)))
    xs = np.linspace(-spec.length / 2.0, spec.length / 2.0, spec.n_side)
    for sy in (-1.0, 1.0):
        for x in xs:
            pos = np.array([x, sy * spec.width / 2.0, z_edge])
            groups["y"].append((pos, np.array([0.0, 1.0, 0.0]), spec.kh_y_total / (2 * spec.n_side)))

    shares = dict(zip("xyz", spec.trib_shares))
    springs = []
    for gname, elems in groups.items():
        m_trib = shares[gname] * spec.mass / len(elems)
        for pos, direction, k in elems:
            c = 2.0 * spec.zeta * np.sqrt(k * m_trib)
            springs.append(SpringElement(attach=pos, direction=direction, k=k, c=c))

    return RigidBlockModel(
        mass=spec.mass,
        inertia=spec.inertia(),
        springs=tuple(springs),
        name=spec.name,
    )
