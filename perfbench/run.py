"""Run one benchmark workload against the package in this checkout.

    python3 perfbench/run.py --workload routes --seed 3 --seconds 25 --trace 0

A run repeats whole rounds of the workload until the next round would end
past ``--seconds``.  Each round imports the package afresh from ``src/``
(so every round starts with empty caches, as a command-line call does),
builds the workload's inputs from the seed, calls every operation, and
checks each output against the reference computations.  Times are scaled
to a nominal host speed by a reference loop sampled every half second (see
``HostClock``); the wall-clock values are kept in the report.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and the metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``.  A full report, with the spans of the last traced round, is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
PACKAGE = "cyclic_strata"
MODULES = ("semigroup", "strata", "polynomials", "schur", "certifier", "numerics", "cli")

# host_ref() on the host of the README's reference figures (2-core Intel Xeon,
# 2.1 GHz, Python 3.11) in its common, slower state; the reported times are
# scaled to it (see HostClock).
REF_NOMINAL_S = 0.030
# Least wall time between two reference samples during a round.
REF_INTERVAL_S = 0.5
# Set-ups timed before the first round, so that the median set-up time rests
# on several samples even when a run holds one or two rounds.
EXTRA_SETUPS = 8

sys.path.insert(0, str(BENCH_DIR))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CliResult  # noqa: E402

# Metrics whose value comes from the whole run rather than from one traced round.
RUN_LEVEL_LAYERS = ("process.gc_s", "host.ref_s", "trace.job_s", "trace.overhead_s")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def host_ref() -> float:
    """A fixed pure-Python Fraction loop; its time tracks the host's speed.

    The collector is off during the loop (which makes no cycles), so the size
    of the program's heap cannot change the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 3000):
            total += Fraction(1, i) * Fraction(i + 1, i + 2)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Reference-loop samples and the host-speed factor of the time between them.

    A wall time measured between two samples is reported as that time times
    ``REF_NOMINAL_S`` over the mean of the two samples: the time the same work
    would take with the host at its nominal speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> float:
        self.samples.append(host_ref())
        self.taken_at = time.perf_counter()
        return self.samples[-1]

    def scale(self, walls: list[float]) -> list[float]:
        """Take a new sample and scale ``walls``, timed since the previous one."""
        before = self.samples[-1]
        factor = REF_NOMINAL_S / ((before + self.sample()) / 2)
        return [w * factor for w in walls]


class GcClock:
    """Time spent in Python's cyclic collector while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.total = 0.0
        self._start = None
        gc.callbacks.append(self._callback)

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            if self.active:
                self.total += time.perf_counter() - self._start
            self._start = None

    def close(self):
        gc.callbacks.remove(self._callback)


def fresh_import() -> SimpleNamespace:
    """Import the package from ``src/`` with all of its module state new."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES
    })


@dataclass
class Round:
    setup_s: float
    op_names: list[str]
    op_s: list[float]  # host-normalized
    op_wall_s: list[float]
    gc_s: float  # host-normalized
    failed: int
    problems: list[str]
    traced: bool
    layers: dict = field(default_factory=dict)

    @property
    def job_s(self) -> float:
        return sum(self.op_s)

    @property
    def factor(self) -> float:
        """Mean host-speed factor of the round's operations."""
        return self.job_s / sum(self.op_wall_s)


def set_up(build, seed: int, traced: bool):
    start = time.perf_counter()
    modules = fresh_import()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(vars(modules))
    ops = build(modules, random.Random(seed))
    return time.perf_counter() - start, modules, ops, tracer


def run_round(build, seed: int, traced: bool, layer_names, host: HostClock,
              gc_clock: GcClock) -> tuple[Round, Tracer | None]:
    gc.collect()
    host.sample()
    setup_wall, modules, ops, tracer = set_up(build, seed, traced)
    [setup_s] = host.scale([setup_wall])
    op_s, op_wall, pending, problems, failed = [], [], [], [], 0
    gc_clock.total = 0.0
    for index, op in enumerate(ops):
        gc_clock.active = True
        start = time.perf_counter()
        try:
            result = tracer.run_op(index, op.call) if tracer else op.call()
        except Exception:
            pending.append(time.perf_counter() - start)
            failed += 1
            print(f"operation failed: {op.name}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        else:
            pending.append(time.perf_counter() - start)
            gc_clock.active = False
            if tracer is not None and isinstance(result, CliResult):
                tracer.counts["cli.output_bytes"] += len(result.text.encode())
            problems.extend(op.check(result))
        gc_clock.active = False
        if time.perf_counter() - host.taken_at >= REF_INTERVAL_S or index == len(ops) - 1:
            op_s += host.scale(pending)
            op_wall += pending
            pending = []
    out = Round(setup_s, [op.name for op in ops], op_s, op_wall, 0.0, failed, problems, traced)
    out.gc_s = gc_clock.total * out.factor
    if tracer is not None:
        out.layers = layer_values(tracer, modules, out.factor, layer_names)
    return out, tracer


def _layer_sum(totals: dict, layer: str):
    """Total of ``layer`` and of every layer under it (``schur`` covers ``schur.value``)."""
    return sum(v for k, v in totals.items() if k == layer or k.startswith(layer + "."))


def layer_values(tracer: Tracer, modules, factor: float, names) -> dict:
    """Per-layer values of a traced round; self times host-normalized by ``factor``.

    ``<layer>.s`` is the self time and ``<layer>.calls`` the call count of a
    layer and the layers under it; any other name is one of the tracer's
    work counters.
    """
    values = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if name in RUN_LEVEL_LAYERS:
            continue
        if kind == "s":
            values[name] = _layer_sum(tracer.self_s, layer) * factor
        elif kind == "calls":
            values[name] = _layer_sum(tracer.calls, layer)
        elif name == "schur.h_from_T.cache_entries":
            cache_info = getattr(modules.schur.h_from_T.__wrapped__, "cache_info", None)
            values[name] = cache_info().currsize if cache_info else 0
        else:
            values[name] = tracer.counts.get(name, 0)
    return values


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_level(ops_per_round: int) -> float:
    """Highest whole percentile that leaves ten operations beyond it in one round.

    Every run holds at least one round, so the level is the same on every run
    of a workload and always has at least ten operations beyond it.
    """
    return math.floor(100 * (1 - 10 / ops_per_round)) / 100


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build = WORKLOADS[args.workload]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    traced_run = bool(args.trace)
    gc_clock = GcClock()
    try:
        host = HostClock()
        setups = []
        for _ in range(EXTRA_SETUPS):
            setups += host.scale([set_up(build, args.seed, False)[0]])
        rounds: list[Round] = []
        last_tracer = None  # the latest traced round's spans, for the report
        start = time.perf_counter()
        while True:
            traced = traced_run and len(rounds) % 2 == 1
            if traced:
                last_tracer = None  # so that no two span lists are alive at once
            out, tracer = run_round(build, args.seed, traced, units, host, gc_clock)
            rounds.append(out)
            if traced:
                last_tracer = tracer
            elapsed = time.perf_counter() - start
            enough = len(rounds) >= (2 if traced_run else 1)
            if enough and elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
    finally:
        gc_clock.close()

    plain = [r for r in rounds if not r.traced]
    traced_rounds = [r for r in rounds if r.traced]
    setups += [r.setup_s for r in plain]
    all_ops = [t for r in plain for t in r.op_s]
    ops_per_round = len(rounds[0].op_s)
    level = tail_level(ops_per_round)
    attempted = sum(len(r.op_s) for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    if traced_run:
        untraced_job = statistics.fmean(r.job_s for r in plain)
        traced_job = statistics.fmean(r.job_s for r in traced_rounds)
        values = {
            "process.gc_s": statistics.median(r.gc_s for r in plain),
            "host.ref_s": statistics.median(host.samples),
            "trace.job_s": traced_job,
            "trace.overhead_s": traced_job - untraced_job,
        }
        values.update({name: statistics.median(r.layers[name] for r in traced_rounds)
                       for name in units if name not in RUN_LEVEL_LAYERS})
    else:
        values = {
            "setup_s": statistics.median(setups),
            "job_s": statistics.fmean(r.job_s for r in plain),
            "op_s.p50": statistics.median(all_ops),
            "op_s.tail": percentile(all_ops, level),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "ops_per_round": ops_per_round,
        "tail_percentile": round(100 * level), "python": sys.version.split()[0],
        "host_ref_s": host.samples, "round_job_s": [r.job_s for r in rounds],
        "round_job_wall_s": [sum(r.op_wall_s) for r in rounds], "setup_samples_s": setups,
    }
    print(json.dumps(info))
    report = {"info": info, "metrics": metrics, "problems": problems,
              "op_s": [list(zip(r.op_names, r.op_s)) for r in rounds]}
    if last_tracer is not None:
        report["spans"] = last_tracer.spans
        report["spans_dropped"] = last_tracer.spans_dropped
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
