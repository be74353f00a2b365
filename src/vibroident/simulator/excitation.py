"""Stepped and swept sine excitation programs and force synthesis."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, check_keys, check_real
from ..timeseries import TimeSeriesSet
from .model import influence_matrix


@dataclass(frozen=True)
class ForcePoint:
    """One actuator: where it pushes, along which axis, how hard."""

    id: str
    location: np.ndarray      # m, relative to the CG
    direction: np.ndarray     # unit vector
    amplitude: float          # N

    def __post_init__(self):
        loc = np.asarray(self.location, dtype=float).reshape(3)
        d = np.asarray(self.direction, dtype=float).reshape(3)
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise ValueError(f"force point {self.id}: direction must be a unit vector")
        loc.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "direction", d)


@dataclass(frozen=True)
class SteppedSpec:
    frequencies: tuple[float, ...]        # Hz, strictly increasing
    duration_per_step: float | None = None
    cycles_per_step: float | None = None
    rest_gap: float = 5.0                 # zero-force decay between steps

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        if not freqs or any(b <= a for a, b in zip(freqs, freqs[1:])) or freqs[0] <= 0:
            raise ValueError("stepped frequencies must be positive and strictly increasing")
        if (self.duration_per_step is None) == (self.cycles_per_step is None):
            raise ValueError("give exactly one of duration_per_step / cycles_per_step")
        step = self.duration_per_step if self.cycles_per_step is None else self.cycles_per_step
        if not step > 0:
            raise ValueError("duration_per_step / cycles_per_step must be positive")
        if not self.rest_gap >= 0:
            raise ValueError("rest_gap must not be negative")
        object.__setattr__(self, "frequencies", freqs)

    def step_duration(self, f: float) -> float:
        if self.duration_per_step is not None:
            return float(self.duration_per_step)
        return float(self.cycles_per_step) / f

    def schedule(self) -> list[tuple[float, float, float]]:
        """(t_start, t_end, frequency) of each active dwell."""
        out = []
        t = 0.0
        for f in self.frequencies:
            dur = self.step_duration(f)
            out.append((t, t + dur, f))
            t += dur + self.rest_gap
        return out


@dataclass(frozen=True)
class SweepSpec:
    f0: float
    f1: float
    rate: float               # Hz/s, linear increase

    def __post_init__(self):
        if not (self.f1 > self.f0 > 0 and self.rate > 0):
            raise ValueError("sweep needs f1 > f0 > 0 and rate > 0")

    @property
    def duration(self) -> float:
        return (self.f1 - self.f0) / self.rate

    def time_at_frequency(self, f: float) -> float:
        return (f - self.f0) / self.rate


@dataclass(frozen=True)
class ExcitationProgram:
    kind: str                                   # "stepped" | "sweep"
    force_points: tuple[ForcePoint, ...]
    stepped: SteppedSpec | None = None
    sweep: SweepSpec | None = None
    dof_excited: str = "X"                      # X | Y | Z | YAW, metadata
    name: str = "program"

    def __post_init__(self):
        if self.kind not in ("stepped", "sweep"):
            raise ValueError(f"unknown program kind {self.kind!r}")
        if self.kind == "stepped" and self.stepped is None:
            raise ValueError("stepped program needs a stepped spec")
        if self.kind == "sweep" and self.sweep is None:
            raise ValueError("sweep program needs a sweep spec")
        if not self.force_points:
            raise ValueError("program needs at least one force point")
        ids = [fp.id for fp in self.force_points]
        repeated = sorted({str(i) for i in ids if ids.count(i) > 1})
        if repeated:
            # force records and the force estimate find an actuator by its id
            raise ValueError(f"repeated force point id(s): {', '.join(repeated)}")
        object.__setattr__(self, "force_points", tuple(self.force_points))

    @property
    def f_max(self) -> float:
        if self.kind == "stepped":
            return self.stepped.frequencies[-1]
        return self.sweep.f1

    @property
    def duration(self) -> float:
        if self.kind == "stepped":
            sched = self.stepped.schedule()
            return sched[-1][1] + self.stepped.rest_gap
        return self.sweep.duration

    def generalized_amplitude(self) -> np.ndarray:
        """Constant 6-vector multiplying the unit drive signal: each force
        point's amplitude times its :func:`~.model.influence_matrix` row,
        summed in force point order."""
        points = self.force_points
        rows = influence_matrix([fp.location for fp in points], [fp.direction for fp in points])
        amplitudes = np.array([fp.amplitude for fp in points])
        return np.sum(amplitudes[:, None] * rows, axis=0)

    def drive(self, t: np.ndarray) -> np.ndarray:
        """Unit-amplitude drive signal shared by all force points."""
        t = np.asarray(t, dtype=float)
        s = np.zeros_like(t)
        if self.kind == "sweep":
            active = (t >= 0.0) & (t <= self.sweep.duration)
            tau = t[active]
            s[active] = np.sin(2.0 * np.pi * (self.sweep.f0 * tau + 0.5 * self.sweep.rate * tau * tau))
            return s
        for t_on, t_off, f in self.stepped.schedule():
            active = (t >= t_on) & (t < t_off)
            s[active] = np.sin(2.0 * np.pi * f * (t[active] - t_on))
        return s

    def scaled(self, factor: float) -> "ExcitationProgram":
        """Same program with every force amplitude multiplied by factor."""
        pts = tuple(
            ForcePoint(fp.id, fp.location, fp.direction, fp.amplitude * factor)
            for fp in self.force_points
        )
        return ExcitationProgram(
            kind=self.kind, force_points=pts, stepped=self.stepped,
            sweep=self.sweep, dof_excited=self.dof_excited, name=self.name,
        )


def force_timeseries(program: ExcitationProgram, fs: float, duration: float | None = None) -> TimeSeriesSet:
    """Per-actuator applied force records in kN at the controller rate."""
    if duration is None:
        duration = program.duration
    n = int(round(duration * fs)) + 1
    t = np.arange(n) / fs
    kn = np.array([fp.amplitude * 1e-3 for fp in program.force_points])
    labels = [fp.id for fp in program.force_points]
    return TimeSeriesSet(0.0, fs, kn[:, None] * program.drive(t), labels, ["kN"] * len(labels))


def load_program(source) -> ExcitationProgram:
    """Read a program document: {kind, name?, dof_excited?, force_points,
    stepped | sweep}; every number checked by
    :func:`~vibroident.errors.check_real`."""
    try:
        doc = json.loads(source) if isinstance(source, (str, bytes)) else json.load(source)
        check_keys(doc, ("kind", "name", "dof_excited", "force_points", "stepped", "sweep"), "program")
        for i, fp in enumerate(doc["force_points"]):
            check_keys(fp, ("id", "location", "direction", "amplitude_n"), f"program force point {i}")
            check_real(fp, ("location", "direction", "amplitude_n"), f"program force point {i}")
        points = tuple(
            ForcePoint(
                id=fp["id"],
                location=np.asarray(fp["location"], dtype=float),
                direction=np.asarray(fp["direction"], dtype=float),
                amplitude=float(fp["amplitude_n"]),
            )
            for fp in doc["force_points"]
        )
        stepped = None
        sweep = None
        if "stepped" in doc:
            sp = doc["stepped"]
            keys = ("frequencies", "duration_per_step", "cycles_per_step", "rest_gap")
            check_keys(sp, keys, "program section 'stepped'")
            check_real(sp, keys, "program section 'stepped'")
            stepped = SteppedSpec(
                frequencies=tuple(sp["frequencies"]),
                duration_per_step=sp.get("duration_per_step"),
                cycles_per_step=sp.get("cycles_per_step"),
                rest_gap=float(sp.get("rest_gap", SteppedSpec.rest_gap)),
            )
        if "sweep" in doc:
            sw = doc["sweep"]
            check_keys(sw, ("f0", "f1", "rate"), "program section 'sweep'")
            check_real(sw, ("f0", "f1", "rate"), "program section 'sweep'")
            sweep = SweepSpec(f0=float(sw["f0"]), f1=float(sw["f1"]), rate=float(sw["rate"]))
        return ExcitationProgram(
            kind=doc["kind"],
            force_points=points,
            stepped=stepped,
            sweep=sweep,
            dof_excited=doc.get("dof_excited", ExcitationProgram.dof_excited),
            name=doc.get("name", ExcitationProgram.name),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad program document: {exc}") from exc


def dump_program(program: ExcitationProgram) -> str:
    doc: dict = {
        "kind": program.kind,
        "name": program.name,
        "dof_excited": program.dof_excited,
        "force_points": [
            {
                "id": fp.id,
                "location": fp.location.tolist(),
                "direction": fp.direction.tolist(),
                "amplitude_n": fp.amplitude,
            }
            for fp in program.force_points
        ],
    }
    if program.stepped is not None:
        doc["stepped"] = {
            "frequencies": list(program.stepped.frequencies),
            "rest_gap": program.stepped.rest_gap,
        }
        if program.stepped.duration_per_step is not None:
            doc["stepped"]["duration_per_step"] = program.stepped.duration_per_step
        else:
            doc["stepped"]["cycles_per_step"] = program.stepped.cycles_per_step
    if program.sweep is not None:
        doc["sweep"] = {"f0": program.sweep.f0, "f1": program.sweep.f1, "rate": program.sweep.rate}
    return json.dumps(doc, indent=1, sort_keys=True)
