"""Spans around the program's public functions, for the traced run.

Run as a script, it executes one CLI command in-process with every layer
wrapped and writes the spans as JSON:

    PYTHONPATH=src python perfbench/tracer.py SPANS.json simulate -c cfg.json -o out/

Each function is wrapped at the name its caller looks up, so the
orchestration is the one ``vibroident`` runs.  Spans stay in memory until
the command returns.  ``summarize`` turns them into per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time

MB = 1e6


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _steps(args, out):
    return {"steps": len(out.t)}


def _bytes_out(args, out):
    return {"bytes": len(out)}


def _bytes_in(args, out):
    return {"bytes": len(args[0])}


def _samples(i):
    return lambda args, out: {"samples": len(args[i])}


#: (module the caller looks the name up in, attribute, span name, counter,
#:  whether to record peak-RSS growth)
WRAPS = (
    ("vibroident.cli", "cmd_simulate", "cli.cmd_simulate", None, False),
    ("vibroident.cli", "cmd_analyze", "cli.cmd_analyze", None, False),
    ("vibroident.cli", "integrate", "simulator.integrate", _steps, False),
    ("vibroident.cli", "sensor_kinematics", "simulator.sensor_kinematics", None, False),
    ("vibroident.cli", "force_timeseries", "simulator.force_timeseries", None, False),
    ("vibroident.cli", "serialize_timeseries_csv", "timeseries.serialize_timeseries_csv", _bytes_out, True),
    ("vibroident.cli", "parse_timeseries_csv", "timeseries.parse_timeseries_csv", _bytes_in, True),
    ("vibroident.cli", "synchronize", "timeseries.synchronize", None, False),
    ("vibroident.cli", "analyze", "pipeline.analyze", None, False),
    ("vibroident.pipeline", "extract_window", "timeseries.extract_window", None, False),
    ("vibroident.dsp", "filtfilt", "dsp.filtfilt", _samples(1), False),
    ("vibroident.dsp", "fit_sine", "dsp.fit_sine", _samples(0), False),
    ("vibroident.dsp", "filter_gain", "dsp.filter_gain", None, False),
    ("vibroident.modal", "fit_sine", "dsp.fit_sine", _samples(0), False),
    ("vibroident.modal", "estimate_force_amplitude", "modal.estimate_force_amplitude", None, False),
    ("vibroident.modal", "fit_rigid_body", "modal.fit_rigid_body", None, False),
    ("vibroident.modal", "rbm_contribution", "modal.rbm_contribution", None, False),
    ("vibroident.modal", "build_frc", "modal.build_frc", None, False),
    ("vibroident.modal", "estimate_damping", "modal.estimate_damping", None, False),
    ("vibroident.modal", "frc_to_csv", "modal.frc_to_csv", None, False),
    ("vibroident.svg", "line_chart", "svg.line_chart", None, False),
    ("vibroident.svg", "deformation_chart", "svg.deformation_chart", None, False),
)


class Tracer:
    """Records one span per wrapped call: name, parent, start, end, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name, fn, count=None, rss=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "parent": self._stack[-1] if self._stack else -1}
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rss0 = _maxrss_bytes() if rss else 0
            rec["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec["errors"] = 1
                raise
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if rss:
                rec["maxrss_growth_mb"] = (_maxrss_bytes() - rss0) / MB
            if count is not None:
                rec.update(count(args, out))
            return out

        return wrapper

    def install(self) -> None:
        for module, attr, name, count, rss in WRAPS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.span(name, getattr(mod, attr), count, rss))


def summarize(spans: list[dict]) -> tuple[dict[str, dict[str, float]], float]:
    """Per span name: self time, calls and summed counters; plus the total
    self time, which must equal the root span's duration."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out: dict[str, dict[str, float]] = {}
    total_self = 0.0
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(i, ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        self_s = (s["end"] - s["start"]) - covered
        total_self += self_s
        row = out.setdefault(s["name"], {"self_s": 0.0, "calls": 0})
        row["self_s"] += self_s
        row["calls"] += 1
        for key, value in s.items():
            if key not in ("name", "parent", "start", "end"):
                row[key] = row.get(key, 0) + value
    return out, total_self


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = importlib.import_module("vibroident.cli")
    tracer.install()
    root = tracer.span("cli.main", cli.main)
    t0 = time.perf_counter()
    code = root(cli_args)
    wall = time.perf_counter() - t0
    with open(spans_path, "w") as fh:
        json.dump({"wall_s": wall, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
