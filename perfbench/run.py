#!/usr/bin/env python3
"""The repository benchmark: what users of the Hermes reproduction run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload single_core --seed 0 --seconds 20 --trace 0

Workloads and metrics are described in ``perfbench/README.md`` and
declared in ``BENCHMARK.json``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload once untraced, once with span
wrappers on every layer boundary (:mod:`layers`) and, on
``single_core``, once under the frame sampler, and prints the per-layer
metrics.  The last stdout line is the JSON result and the line before
it the environment; progress goes to stderr.

Seed 0 (the default) keeps the catalogue's pinned generator seeds, and
every result is checked against the digests in ``perfbench/pinned.json``
(regenerate with ``--pin`` after an intended model change).  Any other
seed offsets every generator seed and reshuffles the multicore mixes;
results are then checked for agreement between passes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINNED = BENCH_DIR / "pinned.json"
#: Scratch space for report caches and artifacts, removed on exit.
WORK_DIR = ROOT / ".perfbench"

WORKLOADS = ("single_core", "multicore", "report")

#: Environment variables that change what the program does, so a run
#: with any of them set would not measure the code as users run it.
REFUSED_ENV = ("REPRO_ENGINE", "REPRO_FAULTS", "REPRO_PARALLEL",
               "REPRO_RESULT_CACHE")

SINGLE_CORE_WORKLOADS = ("spec06.mcf_chase", "ligra.bfs", "cvp.server_int")
SINGLE_CORE_ACCESSES = 30_000
MULTICORE_CORES = 4
MULTICORE_ACCESSES = 5_000
#: The catalogue's default mix seed (``multicore_mix_names(seed=99)``).
MIX_SEED = 99
REPORT_ACCESSES = 500
REPORT_PER_CATEGORY = 1
REPORT_WORKERS = 2
#: Warm re-runs after each cold report pass.
WARM_RERUNS = 10
#: Set-ups timed (each in a fresh interpreter) for ``setup_s``.
SETUP_REPEATS = 3
#: A seed ``s`` adds ``s * SEED_STRIDE`` to every generator seed.
SEED_STRIDE = 1000

clock = time.perf_counter


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_repro() -> None:
    """Put the checkout's ``src`` first on the path and import it.

    Refuses an installed copy of the package: the benchmark measures
    the source next to it.
    """
    sys.path.insert(0, str(SRC))
    import repro
    location = Path(repro.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"imported repro from {location}, not from {SRC}")


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #

def _offset_seed(factory: Callable[[], Any], offset: int) -> Callable[[], Any]:
    def build() -> Any:
        generator = factory()
        generator.seed += offset
        return generator
    return build


@contextlib.contextmanager
def seeded_catalogue(seed: int) -> Iterator[None]:
    """Offset every catalogue generator's seed by ``seed * SEED_STRIDE``.

    Swaps the catalogue's spec table, so every ``make_trace`` call sees
    the new seeds, including those in report pool workers forked while
    it is active.  Seed 0 leaves the catalogue untouched.
    """
    from repro.workloads import suite
    pinned = suite._SPEC_INDEX
    if seed:
        suite._SPEC_INDEX = {
            name: dataclasses.replace(
                spec, factory=_offset_seed(spec.factory, seed * SEED_STRIDE))
            for name, spec in pinned.items()}
    try:
        yield
    finally:
        suite._SPEC_INDEX = pinned


def multicore_mixes(seed: int) -> List[List[str]]:
    """Every catalogue workload once, shuffled by ``seed`` into 4-core mixes.

    Covering the whole catalogue keeps the work per run fixed: mixes
    drawn with replacement differ in cost by up to 1.8x between seeds.
    """
    from repro.workloads.suite import workload_names
    names = workload_names()
    random.Random(MIX_SEED + seed).shuffle(names)
    count = len(names) // MULTICORE_CORES
    return [names[index * MULTICORE_CORES:(index + 1) * MULTICORE_CORES]
            for index in range(count)]


def make_inputs(workload: str, seed: int,
                make: Optional[Callable[..., Any]] = None) -> Dict[str, Any]:
    """Generate the workload's traces (report jobs generate their own)."""
    from repro.workloads.suite import make_trace
    make = make or make_trace
    if workload == "single_core":
        return {name: make(name, SINGLE_CORE_ACCESSES)
                for name in SINGLE_CORE_WORKLOADS}
    if workload == "multicore":
        return {name: make(name, MULTICORE_ACCESSES)
                for mix in multicore_mixes(seed) for name in mix}
    return {}


def setup(workload: str, seed: int) -> Dict[str, Any]:
    """Everything before the timed region: imports and trace generation."""
    import_repro()
    import repro.sim.multicore  # noqa: F401
    import repro.sim.simulator  # noqa: F401
    if workload == "report":
        import repro.report.generate  # noqa: F401
        import repro.experiments  # noqa: F401
    with seeded_catalogue(seed):
        return make_inputs(workload, seed)


def measure_setup(workload: str, seed: int) -> float:
    """Fastest wall time of a set-up in a fresh interpreter."""
    walls = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--seed", str(seed),
                        "--setup-only"],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        walls.append(clock() - start)
    return min(walls)


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #

def _sha256(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result: Any) -> str:
    """Digest of every simulated statistic of one result."""
    if hasattr(result, "per_core"):
        return _sha256({"config": result.config_label,
                        "workloads": list(result.workloads),
                        "per_core": [core.as_dict() for core in result.per_core],
                        "memory_controller": result.memory_controller,
                        "predictor": result.predictor})
    return _sha256({"config": result.config_label,
                    "workload": result.workload,
                    "core": result.core.as_dict(),
                    "hierarchy": result.hierarchy,
                    "memory_controller": result.memory_controller,
                    "predictor": result.predictor,
                    "hermes": result.hermes,
                    "llc": result.llc,
                    "prefetcher": result.prefetcher})


def read_artifacts(directory: Path) -> Dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted(directory.iterdir()) if path.is_file()}


def artifacts_digest(artifacts: Dict[str, bytes]) -> str:
    """Digest of the report's ``.json`` documents (names and bytes)."""
    digest = hashlib.sha256()
    for name, data in sorted(artifacts.items()):
        if name.endswith(".json"):
            digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


class Checker:
    """Counts operations and fails those whose output is wrong.

    ``expected`` maps an operation key to its digest: the pinned digests
    at seed 0; otherwise the first digest seen for the key, so every
    later pass (traced or not) must reproduce the first one.
    """

    def __init__(self, expected: Dict[str, str]) -> None:
        self.expected = dict(expected)
        self.attempted = 0
        self.failed = 0

    def op(self, key: str, run: Callable[[], Any],
           digest: Callable[[Any], str]) -> Any:
        """Run one operation; return its output, or None if it failed."""
        self.attempted += 1
        try:
            output = run()
            actual = digest(output)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            self.fail(key, f"{type(exc).__name__}: {exc}")
            return None
        expected = self.expected.setdefault(key, actual)
        if actual != expected:
            self.fail(key, f"digest {actual[:12]} != expected {expected[:12]}")
            return None
        return output

    def fail(self, key: str, why: str) -> None:
        self.failed += 1
        log(f"FAILED {key}: {why}")


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    start = clock()
    output = fn(*args, **kwargs)
    return output, clock() - start


def repeat(one_pass: Callable[[], float], seconds: float,
           minimum: int = 2) -> None:
    """Run passes while the next one fits in ``seconds`` (at least
    ``minimum``); ``one_pass`` returns its measured wall time."""
    walls: List[float] = []
    start = clock()
    while True:
        walls.append(one_pass())
        elapsed = clock() - start
        log(f"pass {len(walls)}: {walls[-1]:.3f}s")
        if len(walls) >= minimum and elapsed + statistics.mean(walls) > seconds:
            return


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is in KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


# ---------------------------------------------------------------------- #
# Simulation workloads
# ---------------------------------------------------------------------- #

def single_core_configs() -> List[Any]:
    from repro.sim.config import SystemConfig
    return [SystemConfig.no_prefetching(), SystemConfig.baseline("pythia"),
            SystemConfig.with_hermes("popet", prefetcher="spp")]


def multicore_configs() -> List[Any]:
    from repro.sim.config import SystemConfig
    return [SystemConfig.no_prefetching(),
            SystemConfig.with_hermes("popet", prefetcher="pythia")]


def simulation_ops(workload: str, seed: int,
                   traces: Dict[str, Any]) -> List[Tuple[str, Any, List[Any]]]:
    """(key, config, traces) per operation: a cell or a mix."""
    if workload == "single_core":
        return [(f"{config.label}|{name}", config, [traces[name]])
                for config in single_core_configs()
                for name in SINGLE_CORE_WORKLOADS]
    return [(f"{config.label}|mix{index}", config, [traces[n] for n in mix])
            for config in multicore_configs()
            for index, mix in enumerate(multicore_mixes(seed))]


def simulator(workload: str) -> Callable[..., Any]:
    from repro.sim.multicore import simulate_multicore
    from repro.sim.simulator import simulate_trace
    if workload == "single_core":
        return lambda config, traces: simulate_trace(config, traces[0])
    return simulate_multicore


Op = Tuple[str, Any, List[Any]]


def simulation_pass(ops: List[Op], simulate: Callable[..., Any],
                    checker: Checker,
                    walls: Optional[Dict[str, List[float]]] = None,
                    results: Optional[List[Any]] = None) -> float:
    """Run every op once; return the summed wall time of those that
    succeeded (each also appended to ``walls[key]``)."""
    total = 0.0
    for key, config, op_traces in ops:
        output = checker.op(key, lambda: timed(simulate, config, op_traces),
                            lambda out: result_digest(out[0]))
        if output is not None:
            total += output[1]
            if walls is not None:
                walls.setdefault(key, []).append(output[1])
            if results is not None:
                results.append(output[0])
    return total


def cold_pass(workload: str, seed: int, simulate: Callable[..., Any],
              checker: Checker, walls: Optional[Dict[str, List[float]]] = None,
              results: Optional[List[Any]] = None,
              make: Optional[Callable[..., Any]] = None
              ) -> Tuple[List[Op], float, float]:
    """Generate the traces afresh, as a new process would, and run every
    op; return the ops and the wall times of generation and simulation."""
    from repro.workloads.suite import clear_trace_cache
    clear_trace_cache()
    with seeded_catalogue(seed):
        traces, generation = timed(make_inputs, workload, seed, make)
    ops = simulation_ops(workload, seed, traces)
    return ops, generation, simulation_pass(ops, simulate, checker, walls,
                                            results)


def simulation_metrics(workload: str, seed: int, seconds: float,
                       checker: Checker) -> Dict[str, float]:
    """Each pass runs every op cold, then warm (traces memoised).

    Every time is the fastest sample of its op in the run: on a shared
    host, contention only ever adds time.
    """
    ops = simulation_ops(workload, seed, setup(workload, seed))
    simulate = simulator(workload)
    cold: Dict[str, List[float]] = {}
    warm: Dict[str, List[float]] = {}
    generation_walls: List[float] = []

    def one_pass() -> float:
        pass_ops, generation, cold_wall = cold_pass(workload, seed, simulate,
                                                    checker, cold)
        generation_walls.append(generation)
        return (generation + cold_wall
                + simulation_pass(pass_ops, simulate, checker, warm))

    repeat(one_pass, seconds)
    walls = {key: cold.get(key, []) + warm.get(key, []) for key, _, _ in ops}
    accesses = {key: sum(len(trace.accesses) for trace in op_traces)
                for key, _, op_traces in ops}
    rates = {key: accesses[key] / min(walls[key])
             for key in walls if walls[key]}
    configs = (single_core_configs() if workload == "single_core"
               else multicore_configs())
    bare, hermes = configs[0].label, configs[-1].label

    def rate(label: Optional[str]) -> float:
        chosen = [key for key in rates
                  if label is None or key.split("|")[0] == label]
        if not chosen:
            return 0.0
        if workload == "single_core":
            return layers.geomean([rates[key] for key in chosen])
        # Multicore: total accesses over the mixes' summed fastest walls.
        return (sum(accesses[key] for key in chosen)
                / sum(min(walls[key]) for key in chosen))

    return {
        "acc_per_s": rate(None),
        "bare_acc_per_s": rate(bare),
        "hermes_acc_per_s": rate(hermes),
        "cold_wall_s": (min(generation_walls)
                        + sum(min(samples) for samples in cold.values())),
        "warm_wall_s": sum(min(samples) for samples in warm.values()),
        "peak_rss_mb": peak_rss_mb(include_children=False),
    }


# ---------------------------------------------------------------------- #
# Report workload
# ---------------------------------------------------------------------- #

def report_setup(cache_dir: Path) -> Any:
    from repro.experiments.common import ExperimentSetup
    return ExperimentSetup(num_accesses=REPORT_ACCESSES,
                           per_category=REPORT_PER_CATEGORY, parallel=True,
                           max_workers=REPORT_WORKERS,
                           result_cache_dir=str(cache_dir))


@contextlib.contextmanager
def job_census(counts: Dict[str, int]) -> Iterator[None]:
    """Count the accesses of every job the runner executes (not served
    from the cache), by kind: ``all``, ``bare`` and ``hermes``.

    Wraps ``JobRunner.run_report`` once per sweep, so it adds no cost
    per simulated access.
    """
    from repro.runner.runner import JobRunner
    from repro.sim.config import SystemConfig
    bare_label = SystemConfig.no_prefetching().label
    original = JobRunner.run_report

    def run_report(self: Any, jobs: Any, *args: Any, **kwargs: Any) -> Any:
        jobs = list(jobs)
        results, report = original(self, jobs, *args, **kwargs)
        for job, outcome in zip(jobs, report.outcomes):
            if outcome.cached:
                continue
            accesses = job.num_accesses * (len(job.workload)
                                           if job.mode == "multicore" else 1)
            counts["all"] += accesses
            if job.config.label == bare_label:
                counts["bare"] += accesses
            if job.config.offchip_predictor is not None:
                counts["hermes"] += accesses
        return results, report

    JobRunner.run_report = run_report
    try:
        yield
    finally:
        JobRunner.run_report = original


def report_pass(work: Path, checker: Checker, warm_reruns: int,
                cold_walls: List[float], warm_walls: List[float],
                on_cold: Optional[Callable[[Path], None]] = None) -> float:
    """One cold pass into a fresh cache, then ``warm_reruns`` warm ones."""
    from repro.report.generate import generate_report
    cache = work / "cache"
    cold_dir = work / "cold"
    setup_ = report_setup(cache)
    cold = checker.op("report", lambda: timed(generate_report, None,
                                              out_dir=cold_dir, setup=setup_),
                      lambda out: artifacts_digest(read_artifacts(cold_dir)))
    if cold is None:
        return 0.0
    log(f"report cold pass: {cold[1]:.3f}s")
    cold_walls.append(cold[1])
    if on_cold is not None:
        on_cold(cache)
    cold_files = read_artifacts(cold_dir)
    total = cold[1]
    for rerun in range(warm_reruns):
        warm_dir = work / f"warm{rerun}"

        def check_warm(out: Tuple[Any, float], warm_dir: Path = warm_dir) -> str:
            summary = out[0]
            if summary.cache_misses:
                raise ValueError(f"warm pass missed the cache "
                                 f"{summary.cache_misses} time(s)")
            files = read_artifacts(warm_dir)
            if files != cold_files:
                raise ValueError("warm artifacts differ from the cold pass's")
            return artifacts_digest(files)

        warm = checker.op("report", lambda warm_dir=warm_dir: timed(
            generate_report, None, out_dir=warm_dir, setup=setup_), check_warm)
        if warm is not None:
            warm_walls.append(warm[1])
            total += warm[1]
    return total


@contextlib.contextmanager
def work_dir() -> Iterator[Path]:
    WORK_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def report_metrics(seed: int, seconds: float,
                   checker: Checker) -> Dict[str, float]:
    setup("report", seed)
    cold_walls: List[float] = []
    warm_walls: List[float] = []
    rates: Dict[str, List[float]] = {"all": [], "bare": [], "hermes": []}

    def one_pass() -> float:
        counts = {"all": 0, "bare": 0, "hermes": 0}
        cold_passes = len(cold_walls)
        with work_dir() as work, job_census(counts), seeded_catalogue(seed):
            wall = report_pass(work, checker, WARM_RERUNS, cold_walls,
                               warm_walls)
        if len(cold_walls) > cold_passes:
            for kind, accesses in counts.items():
                rates[kind].append(accesses / cold_walls[-1])
        return wall

    repeat(one_pass, seconds)
    return {
        "acc_per_s": max(rates["all"]),
        "bare_acc_per_s": max(rates["bare"]),
        "hermes_acc_per_s": max(rates["hermes"]),
        "cold_wall_s": min(cold_walls),
        # A warm re-run is short enough that whether a cyclic garbage
        # collection lands in it decides its time; the median of the
        # re-runs is steadier than the fastest.
        "warm_wall_s": statistics.median(warm_walls),
        "peak_rss_mb": peak_rss_mb(include_children=True),
    }


# ---------------------------------------------------------------------- #
# Traced runs
# ---------------------------------------------------------------------- #

def directory_bytes(path: Path) -> int:
    return sum(file.stat().st_size for file in path.rglob("*") if file.is_file())


def traced_metrics(workload: str, seed: int,
                   checker: Checker) -> Dict[str, float]:
    """One untraced pass, one traced pass and (single_core) one sampled
    pass of the workload; per-layer metrics of the traced pass."""
    from tracer import Sampler, Tracer, calibrate
    from repro.workloads.suite import make_trace
    setup(workload, seed)
    calibration = calibrate()
    log(f"tracer calibration: {calibration.inside * 1e9:.0f} ns inside, "
        f"{calibration.outside * 1e9:.0f} ns outside each span")
    tracer = Tracer()
    counters = layers.RunnerCounters()
    results: List[Any] = []
    cache_bytes = [0]

    def run_pass(traced: bool) -> float:
        """One pass (cold, for the report one warm re-run too), with the
        benchmark's own layer calls wrapped when ``traced``."""
        if workload != "report":
            simulate = simulator(workload)
            if traced:
                _, generation, simulation = cold_pass(
                    workload, seed, tracer.wrap("sim", simulate), checker,
                    results=results, make=tracer.wrap("workloads", make_trace))
            else:
                _, generation, simulation = cold_pass(workload, seed,
                                                      simulate, checker)
            return generation + simulation

        def on_cold(cache: Path) -> None:
            cache_bytes[0] = directory_bytes(cache)
        with work_dir() as work, seeded_catalogue(seed):
            start = clock()
            report_pass(work, checker, 1, [], [], on_cold)
            return clock() - start

    untraced = run_pass(traced=False)
    missing = layers.install(tracer, counters)
    try:
        traced = run_pass(traced=True)
    finally:
        tracer.restore()
    if missing:
        log(f"boundaries not found: {', '.join(missing)}")
    results.extend(counters.results)
    samples: Dict[str, float] = {}
    sample_count = 0
    if workload == "single_core":
        with Sampler(layers.classify_file) as sampler:
            run_pass(traced=False)
        samples, sample_count = sampler.shares(), sampler.samples
    metrics = layers.layer_metrics(tracer, calibration, counters)
    metrics["runner.cache_bytes"] = cache_bytes[0]
    metrics.update(layers.simulated_metrics(results))
    metrics.update(layers.sampled_metrics(samples, sample_count))
    metrics["trace.overhead_ratio"] = traced / untraced
    log(f"untraced {untraced:.2f}s, traced {traced:.2f}s")
    for name in sorted(metrics):
        if name.endswith(".share") and metrics[name]:
            log(f"  {name:32s} {metrics[name]:6.1%}")
    return metrics


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #

def declared_metrics(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def source_id() -> Dict[str, str]:
    """The commit when run in a git checkout, and a digest of ``src``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=30)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def environment() -> Dict[str, Any]:
    from repro.engine import numpy_or_none
    from repro.sim.config import SystemConfig
    numpy = numpy_or_none()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__ if numpy else "none",
            "engine": SystemConfig().engine, **source_id()}


def load_pinned(workload: str, seed: int) -> Dict[str, str]:
    if seed:
        return {}
    return json.loads(PINNED.read_text())[workload]


def pin() -> None:
    """Write the seed-0 digests of every workload to ``pinned.json``."""
    pinned: Dict[str, Dict[str, str]] = {}
    for workload in WORKLOADS:
        checker = Checker({})
        if workload == "report":
            setup(workload, 0)
            with work_dir() as work:
                report_pass(work, checker, 1, [], [])
        else:
            traces = setup(workload, 0)
            ops = simulation_ops(workload, 0, traces)
            simulation_pass(ops, simulator(workload), checker,
                            {key: [] for key, _, _ in ops})
        if checker.failed:
            raise SystemExit(f"{workload}: an operation failed; not pinning")
        pinned[workload] = checker.expected
    PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    log(f"wrote {PINNED}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite perfbench/pinned.json from seed 0")
    args = parser.parse_args(argv)
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        log(f"refusing to run: {', '.join(refused)} set; each changes what "
            f"is measured")
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.pin:
        import_repro()
        pin()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    import_repro()
    checker = Checker(load_pinned(args.workload, args.seed))
    if args.trace:
        metrics = traced_metrics(args.workload, args.seed, checker)
    else:
        if args.workload == "report":
            metrics = report_metrics(args.seed, args.seconds, checker)
        else:
            metrics = simulation_metrics(args.workload, args.seed,
                                         args.seconds, checker)
        metrics["setup_s"] = measure_setup(args.workload, args.seed)
    units = declared_metrics(bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    print("env " + json.dumps({"workload": args.workload, "seed": args.seed,
                               **environment()}, sort_keys=True))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
