"""6-DOF rigid block on a distributed spring/dashpot foundation.

Generalized coordinates are {dx, dy, dz, rx, ry, rz} of the reference
point P0 at the block's center of gravity; rotations are small.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import AssemblyError, ConfigError, EigenError, SolveError, check_keys, check_real

DOF_NAMES = ("dx", "dy", "dz", "rx", "ry", "rz")


@dataclass(frozen=True)
class SpringElement:
    """Spring/dashpot pair acting along one direction at one attach point."""

    attach: np.ndarray      # m, relative to the CG
    direction: np.ndarray   # unit vector, normal to the block face
    k: float                # N/m
    c: float = 0.0          # N*s/m

    def __post_init__(self):
        attach = np.asarray(self.attach, dtype=float).reshape(3)
        direction = np.asarray(self.direction, dtype=float).reshape(3)
        if abs(np.linalg.norm(direction) - 1.0) > 1e-12:
            raise ValueError(f"spring direction must be a unit vector, |d|={np.linalg.norm(direction)}")
        if self.k < 0 or self.c < 0:
            raise ValueError("spring k and dashpot c must be non-negative")
        attach.flags.writeable = False
        direction.flags.writeable = False
        object.__setattr__(self, "attach", attach)
        object.__setattr__(self, "direction", direction)


def influence_matrix(positions, directions) -> np.ndarray:
    """The small-rotation row (d, r x d) of a point r and a unit direction
    d: its product with {dx, dy, dz, rx, ry, rz} is the displacement along
    d at r and, by virtual work, a force f along d at r is the generalized
    force f times it.  The springs, actuators, sensors and the rigid-body
    fit all take their rows from here.  ``(..., 3)`` positions and
    directions broadcast together to ``(..., 6)`` rows."""
    r, d = np.broadcast_arrays(np.asarray(positions, dtype=float), np.asarray(directions, dtype=float))
    return np.concatenate([d, np.cross(r, d)], axis=-1)


@dataclass(frozen=True)
class RigidBlockModel:
    mass: float                      # kg
    inertia: np.ndarray              # kg*m^2, 3x3 about the CG
    springs: tuple[SpringElement, ...]
    cg: np.ndarray = field(default_factory=lambda: np.zeros(3))
    name: str = "block"

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        inertia = np.asarray(self.inertia, dtype=float).reshape(3, 3)
        if not np.allclose(inertia, inertia.T, rtol=1e-10, atol=0.0):
            raise ValueError("inertia tensor must be symmetric")
        if np.any(np.linalg.eigvalsh(inertia) <= 0):
            raise ValueError("inertia tensor must be positive definite")
        cg = np.asarray(self.cg, dtype=float).reshape(3)
        inertia.flags.writeable = False
        cg.flags.writeable = False
        object.__setattr__(self, "inertia", inertia)
        object.__setattr__(self, "cg", cg)
        object.__setattr__(self, "springs", tuple(self.springs))


@dataclass(frozen=True)
class SystemMatrices:
    """Assembled 6x6 mass, damping and stiffness matrices."""

    M: np.ndarray
    C: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        for name in ("M", "C", "K"):
            arr = np.asarray(getattr(self, name), dtype=float).reshape(6, 6)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def assemble_system(model: RigidBlockModel) -> SystemMatrices:
    """K = B^T diag(k) B and C = B^T diag(c) B with B the springs'
    :func:`influence_matrix`; M = diag(m, m, m) + inertia."""
    pairs = np.reshape([(s.attach, s.direction) for s in model.springs], (-1, 2, 3))
    B = influence_matrix(pairs[:, 0], pairs[:, 1])
    K = B.T @ (np.array([s.k for s in model.springs]).reshape(-1, 1) * B)
    C = B.T @ (np.array([s.c for s in model.springs]).reshape(-1, 1) * B)
    M = np.zeros((6, 6))
    M[:3, :3] = model.mass * np.eye(3)
    M[3:, 3:] = model.inertia

    K = 0.5 * (K + K.T)
    C = 0.5 * (C + C.T)
    eig, vec = np.linalg.eigh(K)
    if eig[0] <= 1e-9 * max(eig[-1], 1.0):
        w = vec[:, 0]
        dof = DOF_NAMES[int(np.argmax(np.abs(w)))]
        raise AssemblyError(f"stiffness is singular: mechanism along {dof}")
    return SystemMatrices(M=M, C=C, K=K)


@dataclass(frozen=True)
class Mode:
    frequency_hz: float
    shape: np.ndarray       # mass-normalized, 6 components

    @property
    def dominant_dof(self) -> str:
        # compare translation/rotation participation on a common scale via
        # the largest absolute component of the normalized shape
        return DOF_NAMES[int(np.argmax(np.abs(self.shape)))]


def modal_properties(sys: SystemMatrices) -> list[Mode]:
    """Solve K phi = w^2 M phi; frequencies ascending, shapes mass-normalized.

    With M = L L^T (Cholesky), the standard symmetric problem
    L^-1 K L^-T y = w^2 y has orthonormal y, and phi = L^-T y.
    """
    try:
        inv_l = np.linalg.inv(np.linalg.cholesky(sys.M))
        lam, y = np.linalg.eigh(inv_l @ sys.K @ inv_l.T)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"generalized eigensolve failed: {exc}") from exc
    phi = inv_l.T @ y
    if np.any(lam <= 0):
        raise EigenError("non-positive eigenvalue; stiffness not positive definite")
    freqs = np.sqrt(lam) / (2.0 * np.pi)
    return [Mode(float(freqs[i]), phi[:, i].copy()) for i in range(6)]


def steady_state_response(sys: SystemMatrices, force_phasor: np.ndarray, omega: float) -> np.ndarray:
    """Solve (K - w^2 M + i w C) u = F for the complex displacement phasor."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    F = np.asarray(force_phasor, dtype=complex).reshape(6)
    D = sys.K - omega**2 * sys.M + 1j * omega * sys.C
    # only an undamped system driven exactly at resonance is singular here
    if np.linalg.cond(D) > 1e13:
        raise SolveError(f"dynamic matrix singular at omega={omega}")
    u = np.linalg.solve(D, F)
    resid = np.linalg.norm(D @ u - F)
    if not np.isfinite(resid) or resid > 1e-8 * max(np.linalg.norm(F), 1e-300):
        raise SolveError(f"dynamic matrix ill-conditioned at omega={omega}")
    return u


def load_model(source) -> RigidBlockModel:
    """Read a model document {mass, inertia, cg?, springs:[{attach,dir,k,c}]};
    every number checked by :func:`~vibroident.errors.check_real`."""
    try:
        doc = json.loads(source) if isinstance(source, (str, bytes)) else json.load(source)
        check_keys(doc, ("name", "mass", "inertia", "cg", "springs"), "model")
        check_real(doc, ("mass", "inertia", "cg"), "model")
        for i, sp in enumerate(doc["springs"]):
            check_keys(sp, ("attach", "dir", "k", "c"), f"model spring {i}")
            check_real(sp, ("attach", "dir", "k", "c"), f"model spring {i}")
        springs = tuple(
            SpringElement(
                attach=np.asarray(sp["attach"], dtype=float),
                direction=np.asarray(sp["dir"], dtype=float),
                k=float(sp["k"]),
                c=float(sp.get("c", SpringElement.c)),
            )
            for sp in doc["springs"]
        )
        return RigidBlockModel(
            mass=float(doc["mass"]),
            inertia=np.asarray(doc["inertia"], dtype=float),
            springs=springs,
            # the dataclass's defaults, where the document has no value
            **{key: doc[key] for key in ("cg", "name") if key in doc},
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model document: {exc}") from exc


def dump_model(model: RigidBlockModel) -> str:
    doc = {
        "name": model.name,
        "mass": model.mass,
        "inertia": model.inertia.tolist(),
        "cg": model.cg.tolist(),
        "springs": [
            {
                "attach": s.attach.tolist(),
                "dir": s.direction.tolist(),
                "k": s.k,
                "c": s.c,
            }
            for s in model.springs
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True)
