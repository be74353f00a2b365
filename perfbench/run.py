"""vibroident benchmark: closed CLI loops, timed per child process.

    python3 perfbench/run.py --workload stepped_x --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each loop runs ``vibroident simulate`` (not on field_y) and then
``vibroident analyze``, each in its own child process, one at a time, and
checks the outputs against the simulator's steady-state truth.  The last
line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import summarize

MB = 1e6
TRACER = Path(__file__).resolve().parent / "tracer.py"
#: set-ups per run; loops cycle through them, so each set-up is one noise seed
SETUPS = 3
#: a run must end well inside the 180 s a single run is allowed
CHILD_TIMEOUT_S = 100.0
#: span self times must add up to the traced command's wall time; the gap
#: is only the root wrapper's own bookkeeping, some microseconds
SELF_SUM_TOL_S = 1e-3

END_TO_END = {
    "total_s": "s", "analyze_s": "s", "cpu_s": "s", "analyze_rss_mb": "MB",
    "record_mb": "MB", "frc_err_hi_pct": "%", "frc_rms_hi_pct": "%", "frc_rms_lo_pct": "%",
    "setup_s": "s",
}
LAYER_UNITS = {"self_s": "s", "calls": "count", "steps": "count", "bytes": "B",
               "samples": "count", "maxrss_growth_mb": "MB"}
PER_LAYER = (
    "simulator.integrate.self_s", "simulator.integrate.steps",
    "simulator.sensor_kinematics.self_s", "simulator.force_timeseries.self_s",
    "timeseries.serialize_timeseries_csv.self_s", "timeseries.serialize_timeseries_csv.bytes",
    "timeseries.serialize_timeseries_csv.maxrss_growth_mb",
    "timeseries.parse_timeseries_csv.self_s", "timeseries.parse_timeseries_csv.bytes",
    "timeseries.parse_timeseries_csv.maxrss_growth_mb",
    "timeseries.extract_window.self_s", "timeseries.extract_window.calls",
    "timeseries.synchronize.self_s",
    "dsp.filtfilt.self_s", "dsp.filtfilt.samples",
    "dsp.fit_sine.self_s", "dsp.fit_sine.calls", "dsp.fit_sine.samples",
    "dsp.filter_gain.self_s", "dsp.filter_gain.calls",
    "modal.estimate_force_amplitude.self_s", "modal.fit_rigid_body.self_s",
    "modal.rbm_contribution.self_s", "modal.build_frc.self_s",
    "modal.estimate_damping.self_s", "modal.frc_to_csv.self_s",
    "pipeline.analyze.self_s", "cli.cmd_simulate.self_s", "cli.cmd_analyze.self_s",
    "svg.line_chart.self_s", "svg.deformation_chart.self_s",
)


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    code: int


@dataclass
class Loop:
    children: dict[str, Child] = field(default_factory=dict)
    figures: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    record_mb: float = 0.0
    output_bytes: int = 0
    layers: dict[str, dict[str, float]] = field(default_factory=dict)
    spans: int = 0

    @property
    def total_s(self) -> float:
        return sum(c.wall_s for c in self.children.values())

    def failed(self) -> set[str]:
        bad = {n for n, c in self.children.items() if c.code != 0}
        return bad | {p.split(":", 1)[0] for p in self.problems}


def run_child(argv: list[str], env: dict, cwd: Path, log: Path) -> Child:
    """One command in its own process; wall time from spawn to reap,
    CPU time and peak RSS from that child's own rusage."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / MB, proc.returncode)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) if path.is_dir() else 0


class Bench:
    def __init__(self, root: Path, work: Path, workload, check):
        self.root, self.work, self.w, self.check = root, work, workload, check
        src = str(root / "src")
        # the noise seed comes from the config written at set-up, never from outside
        self.env = {k: v for k, v in os.environ.items() if k != "VIBROIDENT_SEED"}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.n = 0

    def child(self, argv: list[str]) -> Child:
        self.n += 1
        return run_child([sys.executable, *argv], self.env, self.root, self.work / f"log{self.n}.txt")

    def import_probe(self) -> float:
        c = self.child(["-c", "import vibroident.cli"])
        if c.code != 0:
            raise RuntimeError(f"import vibroident.cli failed: {(self.work / f'log{self.n}.txt').read_text()}")
        return c.wall_s

    def loop(self, case, traced: bool) -> Loop:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        sim, ana = out / "sim", out / "ana"
        cfg = str(case.config)
        commands = []
        if case.record is None:
            commands.append(("simulate", ["simulate", "-c", cfg, "-o", str(sim)], sim))
            record = (sim / "response.csv", sim / "force.csv")
        else:
            record = case.record
        commands.append(("analyze", ["analyze", "-c", cfg, "--response", str(record[0]),
                                     "--force", str(record[1]), "-o", str(ana)], ana))
        res = Loop()
        for name, args, out_dir in commands:
            spans_path = self.work / f"spans_{name}.json"
            prefix = [str(TRACER), str(spans_path)] if traced else ["-m", "vibroident.cli"]
            c = res.children[name] = self.child(prefix + args)
            if c.code != 0:
                log = (self.work / f"log{self.n}.txt").read_text()[-2000:]
                res.problems.append(f"{name}: exit {c.code}: {log}")
                return res
            res.output_bytes += dir_bytes(out_dir)
            if traced:
                doc = json.loads(spans_path.read_text())
                layers, self_sum = summarize(doc["spans"])
                if abs(self_sum - doc["wall_s"]) > SELF_SUM_TOL_S:
                    res.problems.append(f"{name}: span self times sum to {self_sum:.6f} s, "
                                        f"traced wall time is {doc['wall_s']:.6f} s")
                res.spans += len(doc["spans"])
                for lname, row in layers.items():
                    acc = res.layers.setdefault(lname, {})
                    for k, v in row.items():
                        acc[k] = acc.get(k, 0) + v
        res.record_mb = sum(p.stat().st_size for p in record) / MB
        res.figures, problems = self.check(self.w, case, None if case.record else sim, ana)
        res.problems += problems
        shutil.rmtree(out, ignore_errors=True)
        return res


def median(xs) -> float:
    return float(statistics.median(xs))


def run_info(root: Path, args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            digest.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "src_sha256": digest.hexdigest()[:16],
    }


def measure(bench: Bench, cases, seconds: float, traced: bool) -> list[tuple[Loop, Loop | None]]:
    """Closed loop, one command in flight, until ``seconds`` have passed."""
    pairs = []
    start = time.perf_counter()
    while True:
        case = cases[len(pairs) % len(cases)]
        plain = bench.loop(case, traced=False)
        pairs.append((plain, bench.loop(case, traced=True) if traced else None))
        if plain.problems or time.perf_counter() - start >= seconds:
            return pairs


def report(setups: list[float], pairs, probes: list[float], traced: bool) -> tuple[dict, list[Loop]]:
    loops = [p for pair in pairs for p in pair if p is not None]
    attempted = sum(len(l.children) for l in loops)
    failed = sum(len(l.failed()) for l in loops)
    plain = [p for p, _ in pairs if not p.problems]
    if traced:
        tl = [t for _, t in pairs if t is not None and not t.problems]
        metrics = {}
        for name in PER_LAYER:
            layer, stat = name.rsplit(".", 1)
            vals = [l.layers.get(layer, {}).get(stat, 0) for l in tl] or [0]
            metrics[name] = (median(vals), LAYER_UNITS[stat])
        fits = [l.layers.get("dsp.fit_sine", {}) for l in tl]
        metrics["dsp.fit_sine.fit_errors"] = (median([f.get("errors", 0) for f in fits] or [0]), "count")
        metrics["dsp.fit_sine.ok_ratio"] = (median(
            [1 - f.get("errors", 0) / f["calls"] if f.get("calls") else 1.0 for f in fits] or [1.0]), "1")
        metrics["cli.output_bytes"] = (median([l.output_bytes for l in tl] or [0]), "B")
        metrics["cli.import_s"] = (median(probes), "s")
        metrics["cli.simulate_s"] = (median(
            [p.children["simulate"].wall_s if "simulate" in p.children else 0 for p in plain] or [0]), "s")
        metrics["cli.simulate_rss_mb"] = (median(
            [p.children["simulate"].maxrss_mb if "simulate" in p.children else 0 for p in plain] or [0]), "MB")
        metrics["trace.spans"] = (median([l.spans for l in tl] or [0]), "count")
        metrics["trace.overhead_s"] = (
            median([l.total_s for l in tl] or [0]) - median([p.total_s for p in plain] or [0]), "s")
    else:
        def med(fn):
            return median([fn(l) for l in plain]) if plain else 0.0
        metrics = {
            "total_s": med(lambda l: l.total_s),
            "analyze_s": med(lambda l: l.children["analyze"].wall_s),
            "cpu_s": med(lambda l: sum(c.cpu_s for c in l.children.values())),
            "analyze_rss_mb": med(lambda l: l.children["analyze"].maxrss_mb),
            "record_mb": med(lambda l: l.record_mb),
            "frc_err_hi_pct": med(lambda l: l.figures["frc_err_hi_pct"]),
            "frc_rms_hi_pct": med(lambda l: l.figures["frc_rms_hi_pct"]),
            "frc_rms_lo_pct": med(lambda l: l.figures["frc_rms_lo_pct"]),
            "setup_s": median(setups),
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    return {
        "correct": failed == 0 and bool(plain),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, loops


def print_table(info: dict, loops: list[Loop], result: dict) -> None:
    """Human-readable lines ahead of the JSON result: every loop's figures,
    including those that are not gated metrics (simulate_s, the max errors)."""
    print("# run: " + " ".join(f"{k}={v!r}" if isinstance(v, str) and " " in v else f"{k}={v}"
                               for k, v in info.items()))
    for i, l in enumerate(loops):
        cols = {f"{n}_s": c.wall_s for n, c in l.children.items()}
        cols.update({f"{n}_rss_mb": c.maxrss_mb for n, c in l.children.items()})
        cols.update(l.figures)
        kind = "traced" if l.layers else "plain"
        print(f"# loop {i} {kind}: " + " ".join(f"{k}={v:.4g}" for k, v in cols.items()))
        for p in l.problems:
            print(f"# FAILED {p}")
    print(f"# failed_frac={result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} of {result['attempted']} commands)")
    for k, m in result["metrics"].items():
        print(f"{k:52s} {m['value']:.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "vibroident" / "cli.py").is_file():
        print(f"no program source at {src}/vibroident; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import vibroident

    if Path(vibroident.__file__).resolve().parent != (src / "vibroident").resolve():
        print(f"imported vibroident from {vibroident.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, check_outputs, setup_case

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        info = run_info(root, args)
        bench = Bench(root, work, w, check_outputs)
        bench.import_probe()        # compiles bytecode and warms the file cache
        setups, cases = [], []
        for i in range(SETUPS):
            t0 = time.perf_counter()
            cases.append(setup_case(w, work / f"case{i}", args.seed * 1000 + i))
            setups.append(time.perf_counter() - t0)
        probes = [bench.import_probe() for _ in range(3)] if args.trace else []
        pairs = measure(bench, cases, args.seconds, bool(args.trace))
        result, loops = report(setups, pairs, probes, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print_table(info, loops, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
