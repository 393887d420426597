"""The repository benchmark: four workloads, golden-checked operations,
one host-time figure per end-to-end metric, and a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload slack --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` installs span wrappers
around each layer's public functions (see :mod:`perfbench.trace`) and
reports the per-layer ledger instead.  See ``perfbench/README.md`` for
why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from perfbench.stats import geomean, modeled_summary, percentile

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
OWN_GOLDEN = pathlib.Path(__file__).with_name("golden.json")
KERNEL_GOLDEN = ROOT / "benchmarks" / "golden_kernel.json"

WORKLOADS = ("lockstep", "slack", "checkpoint", "jobs")

#: Set-ups per invocation; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: The jobs mix: one fresh spec in every block of this many jobs.
JOBS_BLOCK = 10
#: The simulation workloads serve the same mix from their own report
#: cache: each fresh request is followed by this many repeat requests.
REPEATS_PER_FRESH = JOBS_BLOCK - 1
#: Minimum samples behind a p90 (ten beyond it) and behind a median.
MIN_HITS = 110
MIN_MISSES = 11
#: The traced run stops adding rounds past this many spans.
SPAN_CAP = 2_500_000


class Case(NamedTuple):
    """One simulation of a workload: its spec, and the case id and spec of
    its cycle-by-cycle reference (``None`` for a CC run)."""

    case_id: str
    spec: object
    reference: Optional[str] = None
    reference_spec: object = None


# --------------------------------------------------------------------- #
# Case catalogue
# --------------------------------------------------------------------- #


def _matrix(benchmark: str, scheme: str, cores: int, scale: float) -> Tuple[str, object]:
    from repro.harness.bench import BenchCase

    case = BenchCase(scheme, cores, scale, benchmark=benchmark)
    return case.case_id, case.spec()


def _case(benchmark: str, scheme: str, cores: int, scale: float) -> Case:
    case_id, spec = _matrix(benchmark, scheme, cores, scale)
    if scheme == "cc":
        return Case(case_id, spec)
    return Case(case_id, spec, *_matrix(benchmark, "cc", cores, scale))


def _checkpoint_cases() -> List[Case]:
    from repro.config import CheckpointConfig, SlackConfig, SpeculativeConfig

    _, base = _matrix("fft", "bounded", 8, 0.5)
    reference = _matrix("fft", "cc", 8, 0.5)
    capture = dataclasses.replace(base, checkpoint=CheckpointConfig(interval=100))
    rollback = dataclasses.replace(
        base,
        scheme=SpeculativeConfig(
            base=SlackConfig(bound=16), checkpoint=CheckpointConfig(interval=1000)
        ),
    )
    return [
        Case("fft-bounded-c8-s0.5-ckpt100", capture, *reference),
        Case("fft-speculative16-c8-s0.5-ckpt1000", rollback, *reference),
    ]


def simulation_cases(workload: str) -> List[Case]:
    if workload == "lockstep":
        return [_case("fft", scheme, 8, 0.5) for scheme in ("cc", "adaptive", "speculative")] + [
            _case(benchmark, "adaptive", 8, 0.5) for benchmark in ("ocean", "radix")
        ]
    if workload == "slack":
        return [
            _case("fft", "bounded", 8, 1.0),
            _case("fft", "bounded", 16, 0.5),
            _case("ocean", "bounded", 8, 0.5),
            _case("radix", "bounded", 8, 0.5),
        ]
    if workload == "checkpoint":
        return _checkpoint_cases()
    raise ValueError(f"not a simulation workload: {workload}")


def reference_specs(cases: List[Case]) -> Dict[str, object]:
    """The CC reference spec of every case, by case id (a CC case is its
    own reference)."""
    return {
        case.reference or case.case_id: case.reference_spec or case.spec
        for case in cases
    }


#: The jobs workload's repeat specs: CC and bounded pairs, small scale.
JOBS_BENCHMARKS = ("fft", "radix")
JOBS_CORES = 4
JOBS_SCALE = 0.05


def jobs_repeat_cases() -> List[Case]:
    return [
        _case(benchmark, scheme, JOBS_CORES, JOBS_SCALE)
        for benchmark in JOBS_BENCHMARKS
        for scheme in ("cc", "bounded")
    ]


def jobs_fresh_spec(seed: int):
    """A spec no earlier job used: the bounded fft case under another
    simulation seed, so its cache key is new."""
    _, spec = _matrix("fft", "bounded", JOBS_CORES, JOBS_SCALE)
    return dataclasses.replace(spec, seed=seed)


def own_golden_cases() -> Dict[str, object]:
    """Every case whose golden digest lives with the benchmark (cases the
    kernel golden matrix does not cover)."""
    kernel = json.loads(KERNEL_GOLDEN.read_text())
    cases: Dict[str, object] = {}
    for workload in ("lockstep", "slack", "checkpoint"):
        sim = simulation_cases(workload)
        cases.update({case.case_id: case.spec for case in sim})
        cases.update(reference_specs(sim))
    cases.update({case.case_id: case.spec for case in jobs_repeat_cases()})
    return {cid: spec for cid, spec in sorted(cases.items()) if cid not in kernel}


def load_goldens() -> Dict[str, str]:
    goldens = json.loads(OWN_GOLDEN.read_text())
    goldens.update(json.loads(KERNEL_GOLDEN.read_text()))
    return goldens


def update_goldens() -> None:
    from repro.harness.pool import execute_spec

    goldens = {}
    for case_id, spec in own_golden_cases().items():
        report, _ = execute_spec(spec)
        goldens[case_id] = report.digest()
        print(f"  {case_id:<40} {goldens[case_id]}")
    OWN_GOLDEN.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OWN_GOLDEN} ({len(goldens)} digests)")


# --------------------------------------------------------------------- #
# Correctness ledger
# --------------------------------------------------------------------- #


class Checks:
    """Attempted operations and the problems found with each.  A failed
    check is recorded against its operation; it never stops the run."""

    def __init__(self, goldens: Dict[str, str]) -> None:
        self.goldens = goldens
        self.ops: List[Tuple[str, List[str]]] = []

    def op(self, label: str, problems: List[str]) -> None:
        self.ops.append((label, problems))
        for problem in problems:
            print(f"FAILED {label}: {problem}", file=sys.stderr)

    def add(self, problems: List[str], problem: str) -> None:
        """Attach a problem found later to an already counted operation."""
        problems.append(problem)
        print(f"FAILED (late check): {problem}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for _, problems in self.ops if problems)

    def report_problems(self, case_id: str, spec, report) -> List[str]:
        """Golden digest, plus zero tracked violations for speculation."""
        problems = []
        expected = self.goldens.get(case_id)
        digest = report.digest()
        if expected is None:
            problems.append(f"no golden digest for {case_id}")
        elif digest != expected:
            problems.append(f"digest {digest} != golden {expected}")
        tracked = getattr(spec.scheme, "tracked", None)
        if tracked is not None:
            committed = sum(report.violation_counts.get(t, 0) for t in tracked)
            if committed:
                problems.append(f"speculative run committed {committed} violations")
        return problems


# --------------------------------------------------------------------- #
# Host context
# --------------------------------------------------------------------- #


def _steal_ticks() -> Optional[int]:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


class HostContext:
    """Noise context stamped on every result: the program's host
    fingerprint (CPUs, interpreter), the load average, and the CPU time
    the hypervisor stole during the run."""

    def __init__(self) -> None:
        self.steal_start = _steal_ticks()

    def stamp(self) -> Dict[str, object]:
        from repro.harness.hostinfo import host_fingerprint

        steal_end = _steal_ticks()
        try:
            loadavg = [float(v) for v in open("/proc/loadavg").read().split()[:3]]
        except (OSError, ValueError):
            loadavg = None
        return dict(
            host_fingerprint(),
            loadavg=loadavg,
            steal_ticks=(
                steal_end - self.steal_start
                if steal_end is not None and self.steal_start is not None
                else None
            ),
        )


def peak_rss_mb() -> float:
    """The larger of this process's and its children's peak RSS (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


#: The program modules the benchmark drives; importing them is the first
#: part of every set-up.
PROGRAM_MODULES = (
    "repro.harness.bench",
    "repro.harness.pool",
    "repro.service.client",
    "repro.service.server",
    "repro.stats.accuracy",
)

_TIMED_IMPORT = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "start = time.perf_counter()\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds() -> float:
    """Import the program in a fresh interpreter and return how long the
    imports took (interpreter start-up excluded)."""
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_IMPORT, *PROGRAM_MODULES],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def wait_for_children(timeout_s: float = 30.0) -> None:
    """Reap every worker process the program spawned, then stop the
    multiprocessing resource tracker those spawns started and wait for it:
    left alone it would outlive this process by a moment."""
    import multiprocessing
    from multiprocessing import resource_tracker

    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


# --------------------------------------------------------------------- #
# Simulation workloads: lockstep, slack, checkpoint
# --------------------------------------------------------------------- #


class SimOp(NamedTuple):
    case_id: str
    report: object
    run_s: float
    miss_s: float  # the request's program work outside ``Simulation.run``
    problems: List[str]


def simulate_request(case: Case, key: str, cache, checks: Checks) -> SimOp:
    """One fresh request for a case's report, as the experiment runner
    serves it: the cache lookup misses, the case is built and simulated,
    and the report is stored.  The golden checks follow, untimed."""
    from repro.harness.pool import execute_spec

    start = time.perf_counter()
    entry = cache.get(key)
    report, run_s = execute_spec(case.spec)
    cache.put(key, report, run_s)
    miss_s = time.perf_counter() - start - run_s
    problems = [] if entry is None else ["cache hit on a fresh cache"]
    problems += checks.report_problems(case.case_id, case.spec, report)
    checks.op(case.case_id, problems)
    return SimOp(case.case_id, report, run_s, miss_s, problems)


def read_back(case: Case, key: str, cache, checks: Checks) -> float:
    """One repeat request, served from the cache: the stored report is
    read and re-verified against its own digest by the cache, then
    compared with the golden (untimed)."""
    start = time.perf_counter()
    entry = cache.get(key)
    elapsed = time.perf_counter() - start
    expected = checks.goldens.get(case.case_id)
    if entry is None:
        checks.op(f"{case.case_id} (cached)", ["report missing from the cache"])
    else:
        problems = [] if entry.digest == expected else [
            f"cached digest {entry.digest} != golden {expected}"
        ]
        checks.op(f"{case.case_id} (cached)", problems)
    return elapsed


def sim_round(cases, keys, rng, cache_dir, checks, hits) -> Tuple[List[SimOp], float]:
    """Each case once, in seeded order, through a fresh report cache: a
    fresh request, then :data:`REPEATS_PER_FRESH` repeat requests for the
    same case (their times are appended to ``hits``).  Every round holds
    each case's requests in the same numbers, so the mix of cases behind
    a percentile is the same in every run."""
    from repro.harness.cache import ReportCache

    order = list(cases)
    rng.shuffle(order)
    cache = ReportCache(cache_dir)
    ops = []
    start = time.perf_counter()
    for case in order:
        key = keys[case.case_id]
        ops.append(simulate_request(case, key, cache, checks))
        for _ in range(REPEATS_PER_FRESH):
            hits.append(read_back(case, key, cache, checks))
        # Runs disable the collector; collecting their cycles here, outside
        # every timed request, keeps the peak RSS to one simulation plus
        # the benchmark's own state.
        gc.collect()
    return ops, time.perf_counter() - start


def check_references(cases, ops, checks) -> Dict[str, object]:
    """Run (or reuse) each case's CC reference, golden-check it, and
    check that every run committed the reference's instruction count."""
    from repro.harness.pool import execute_spec

    reports = {}
    timed = {op.case_id: op.report for op in ops}
    for ref_id, spec in reference_specs(cases).items():
        if ref_id in timed:
            reports[ref_id] = timed[ref_id]
            continue
        report, _ = execute_spec(spec)
        checks.op(f"{ref_id} (reference)", checks.report_problems(ref_id, spec, report))
        reports[ref_id] = report
    by_id = {case.case_id: case for case in cases}
    for op in ops:
        case = by_id[op.case_id]
        reference = reports[case.reference or case.case_id]
        if op.report.instructions != reference.instructions:
            checks.add(
                op.problems,
                f"{op.case_id} committed {op.report.instructions} instructions, "
                f"CC reference {reference.instructions}",
            )
    return reports


def run_simulation(workload, seed, seconds, checks, work_dir, import_s, trace) -> Dict[str, object]:
    from repro.harness.cache import spec_key
    from repro.workloads import make_workload
    from repro.core.simulation import Simulation

    cases = simulation_cases(workload)
    rng = random.Random(seed)

    def set_up() -> Dict[str, str]:
        # The per-request path minus the run: keys, workload and program
        # build, and a Simulation for every case.
        keys = {}
        for case in cases:
            spec = case.spec
            keys[case.case_id] = spec_key(spec)
            Simulation(
                make_workload(spec.benchmark, num_threads=spec.num_threads, scale=spec.scale),
                scheme=spec.scheme, target=spec.target, host=spec.host,
                checkpoint=spec.checkpoint, detection=spec.detection, seed=spec.seed,
            )
        return keys

    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        keys = set_up()
        setups.append(imported + time.perf_counter() - start)

    if trace:
        return traced_simulation(cases, keys, rng, seconds, checks, work_dir, workload)

    ops: List[SimOp] = []
    hits: List[float] = []
    round_walls: List[float] = []
    loop_start = time.perf_counter()
    while (
        time.perf_counter() - loop_start < seconds
        or len(hits) < MIN_HITS
        or len(ops) < MIN_MISSES
    ):
        round_ops, wall = sim_round(
            cases, keys, rng, work_dir / f"r{len(round_walls)}", checks, hits
        )
        ops += round_ops
        round_walls.append(wall)

    references = check_references(cases, ops, checks)
    first = {}
    for op in ops:
        first.setdefault(op.case_id, op.report)
    pairs = [
        (first[case.case_id], references[case.reference])
        for case in cases
        if case.reference is not None
    ]
    run_s: Dict[str, List[float]] = {}
    misses: Dict[str, List[float]] = {}
    for op in ops:
        run_s.setdefault(op.case_id, []).append(op.run_s)
        misses.setdefault(op.case_id, []).append(op.miss_s)
    miss_total = sum(op.miss_s for op in ops)
    # sim_kips is a total over the run: a mean moves in proportion to the
    # share of slow host periods, where a median of a two-mode mixture
    # jumps between the modes.  The request metrics time only the
    # program's cache and build work around the runs, never the run wall;
    # cases differ in that work, so the miss figure is a geomean of
    # per-case medians rather than the median of a mixture of cases.
    metrics = {
        "sim_kips": sum(op.report.instructions for op in ops)
        / sum(op.run_s for op in ops) / 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "jobs_per_s": (len(ops) + len(hits)) / (miss_total + sum(hits)),
        "hit_ms_p90": 1000.0 * percentile(hits, 90),
        "miss_ms_p50": 1000.0 * geomean(percentile(v, 50) for v in misses.values()),
    }
    metrics.update(modeled_summary(pairs))
    detail = {
        "rounds": len(round_walls),
        "round_walls_s": round_walls,
        "setups_s": setups,
        "import_s": import_s,
        "hits": len(hits),
        "hit_ms_p50": 1000.0 * percentile(hits, 50),
        "hit_ms_deciles": [1000.0 * q for q in statistics.quantiles(hits, n=10)],
        "per_case": {
            cid: {
                "kips_p50": first[cid].instructions / statistics.median(runs) / 1000.0,
                "miss_ms_p50": 1000.0 * percentile(misses[cid], 50),
                "runs": len(runs),
            }
            for cid, runs in run_s.items()
        },
    }
    return {"metrics": metrics, "detail": detail}


def traced_pairs(step, seconds: float, min_pairs: int, workload: str):
    """Alternate an untraced and a traced call of ``step`` (which returns
    its wall seconds) for ``seconds``, then write out every span.  Returns
    the tracer, the main thread's span buffer, and the trace metrics that
    compare the traced walls with the untraced ones."""
    from perfbench.trace import SpanTracer

    tracer = SpanTracer()
    tracer.install()
    main = tracer.buffer()
    plain: List[float] = []
    traced: List[float] = []
    try:
        start = time.perf_counter()
        while len(traced) < min_pairs or (
            time.perf_counter() - start < seconds and tracer.span_count() < SPAN_CAP
        ):
            plain.append(step())
            tracer.enabled = True
            try:
                traced.append(step())
            finally:
                tracer.enabled = False
    finally:
        tracer.uninstall()
    tracer.write_json(OUT_DIR / f"spans-{workload}.json.gz")
    ledger = tracer.ledger(main)
    metrics = service_layers(ledger, tracer)
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(plain) - 1.0)
    metrics["trace.unattributed_s"] = (sum(traced) - ledger.main_root_s) / len(traced)
    detail = {
        "traced_pairs": len(traced),
        "plain_walls_s": plain,
        "traced_walls_s": traced,
        "spans": tracer.span_count(),
        "self_s": {k: v / len(traced) for k, v in sorted(ledger.self_s.items())},
    }
    return ledger, metrics, detail


def traced_simulation(cases, keys, rng, seconds, checks, work_dir, workload):
    """Per-layer ledger of the simulation workloads: untraced and traced
    rounds of the same cases alternate; counts come from one traced round."""
    rounds: List[List[SimOp]] = []

    def step() -> float:
        round_ops, wall = sim_round(cases, keys, rng, work_dir / f"t{len(rounds)}", checks, [])
        rounds.append(round_ops)
        return wall

    ledger, metrics, detail = traced_pairs(step, seconds, 1, workload)
    check_references(cases, [op for ops in rounds for op in ops], checks)
    traced_rounds = len(rounds) // 2
    metrics.update(simulation_layers(ledger, traced_rounds, [op.report for op in rounds[1]]))
    return {"metrics": metrics, "detail": detail}


def simulation_layers(ledger, rounds: int, reports) -> Dict[str, float]:
    """Per-layer metrics of one round of simulations: span times averaged
    over the traced rounds, counts taken from one round's reports."""
    per_round = 1.0 / rounds if rounds else 0.0
    steps = sum(r.core_steps + r.manager_steps for r in reports)
    cycles = sum(r.target_cycles for r in reports)
    violations = sum(sum(r.violation_counts.values()) for r in reports)
    speculative = [r for r in reports if r.scheme.startswith("speculative")]
    committed = sum(r.target_cycles for r in speculative)
    wasted = sum(r.wasted_target_cycles for r in speculative)
    replayed = sum(r.replay_target_cycles for r in speculative)
    scheduler_s = ledger.self_of("core.scheduler.run") * per_round
    return {
        "core.scheduler.self_s": scheduler_s,
        "core.scheduler.ns_per_step": 1e9 * scheduler_s / steps if steps else 0.0,
        "core.scheduler.steps": steps,
        "core.threads.core_step_self_s": ledger.self_of("core.threads.core_step") * per_round,
        "core.threads.manager_step_self_s": (
            ledger.self_of("core.threads.manager_step") * per_round
        ),
        "core.manager.service_s": ledger.total_s.get("core.manager.service", 0.0) * per_round,
        "memory.bus.requests": sum(r.bus_requests for r in reports),
        "core.violations.per_mcycle": 1e6 * violations / cycles if cycles else 0.0,
        "cpu.model_s": ledger.target_model_s * per_round,
        "memory.l1.miss_rate": statistics.mean(r.l1_miss_rate for r in reports) if reports else 0.0,
        "memory.l2.miss_rate": statistics.mean(r.l2_miss_rate for r in reports) if reports else 0.0,
        "core.snapshot.take_s": ledger.total_s.get("core.snapshot.take", 0.0) * per_round,
        "core.snapshot.takes": sum(r.checkpoints for r in reports),
        "core.snapshot.restore_s": ledger.total_s.get("core.snapshot.restore", 0.0) * per_round,
        "core.snapshot.restores": sum(r.rollbacks for r in reports),
        "core.checkpoint.cost_ms": 1000.0 * sum(
            r.checkpoint_cost_s + r.rollback_cost_s for r in reports
        ),
        "core.speculative.useful_frac": (
            committed / (committed + wasted) if speculative else 1.0
        ),
        "core.speculative.replay_frac": replayed / committed if committed else 0.0,
        "workloads.build_s": (
            ledger.total_s.get("workloads.make_workload", 0.0)
            + ledger.total_s.get("workloads.simulation_init", 0.0)
        ) * per_round,
    }


def service_layers(ledger, tracer) -> Dict[str, float]:
    """Harness and service per-layer metrics (0 where a layer is unused)."""

    def p50_ms(name: str) -> float:
        durations = ledger.durations.get(name)
        return 1000.0 * statistics.median(durations) if durations else 0.0

    spawn = tracer.values.get("harness.pool.run_one") or []
    gets = tracer.values.get("harness.cache.get") or []
    return {
        "harness.pool.spawn_ms_p50": 1000.0 * statistics.median(spawn) if spawn else 0.0,
        "harness.cache.get_ms_p50": p50_ms("harness.cache.get"),
        "harness.cache.put_ms_p50": p50_ms("harness.cache.put"),
        "harness.cache.hit_frac": sum(gets) / len(gets) if gets else 0.0,
        "service.protocol.codec_ms_p50": p50_ms("service.protocol.codec"),
        "service.store.append_ms_p50": p50_ms("service.store.record_state"),
        "service.client.roundtrip_ms_p50": p50_ms("service.client.request"),
    }


# --------------------------------------------------------------------- #
# Jobs workload
# --------------------------------------------------------------------- #


class JobsClient:
    """One closed-loop client on one connection to an in-process daemon
    with one worker slot, fsync on, and its own cache, WAL and socket."""

    def __init__(self, directory: pathlib.Path) -> None:
        from repro.service.client import ServiceClient
        from repro.service.server import ServiceConfig, ServiceDaemon

        directory.mkdir(parents=True)
        socket_path = directory / "s"
        try:
            socket_path = socket_path.relative_to(pathlib.Path.cwd())
        except ValueError:
            pass  # unix socket paths are short enough either way here
        config = ServiceConfig(
            socket_path=socket_path,
            cache_dir=directory / "cache",
            wal_path=directory / "jobs.wal",
            jobs=1,
            fsync=True,
        )
        self.daemon = ServiceDaemon(config).start()
        self.client = ServiceClient(self.daemon.address).connect()

    def request(self, spec) -> Tuple[object, Dict[str, object], List[str]]:
        """Submit one spec and fetch its verified report."""
        from repro.core.report import SimulationReport

        job_id = self.client.submit(spec)["job_id"]
        doc = self.client.result(job_id, wait=True)
        report = SimulationReport.from_dict(doc["report"])
        problems = []
        if report.digest() != doc["digest"]:
            problems.append("fetched report does not reproduce its wire digest")
        return report, doc, problems

    def close(self) -> None:
        self.client.close()
        self.daemon.stop()


class JobSample(NamedTuple):
    fresh: bool
    latency_s: float
    instructions: int  # fresh jobs only: the run's committed instructions
    run_s: float  # and the worker's reported run wall


def run_jobs(seed, seconds, checks, work_dir, import_s, trace) -> Dict[str, object]:
    from repro.harness.pool import execute_spec
    from repro.service.protocol import ServiceError

    repeat = jobs_repeat_cases()
    fresh_reference = next(c for c in repeat if c.case_id == _matrix(
        "fft", "cc", JOBS_CORES, JOBS_SCALE)[0])
    rng = random.Random(seed)
    used_seeds = {c.spec.seed for c in repeat}

    def warm(service: JobsClient) -> Dict[str, object]:
        reports = {}
        for case in repeat:
            report, doc, problems = service.request(case.spec)
            problems += checks.report_problems(case.case_id, case.spec, report)
            if doc.get("source") != "run":
                problems.append(f"warm-up job served from {doc.get('source')}, not run")
            checks.op(f"{case.case_id} (warm-up)", problems)
            reports[case.case_id] = report
        return reports

    setups = []
    service = None
    for k in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        imported = import_seconds()
        start = time.perf_counter()
        service = JobsClient(work_dir / f"k{k}")
        reports = warm(service)
        setups.append(imported + time.perf_counter() - start)
    setup_s = statistics.median(setups)

    def job(fresh: bool) -> JobSample:
        if fresh:
            sim_seed = rng.randrange(1, 2**31)
            while sim_seed in used_seeds:
                sim_seed = rng.randrange(1, 2**31)
            used_seeds.add(sim_seed)
            spec, case = jobs_fresh_spec(sim_seed), None
        else:
            case = rng.choice(repeat)
            spec = case.spec
        label = case.case_id if case else f"fresh seed {spec.seed}"
        start = time.perf_counter()
        try:
            report, doc, problems = service.request(spec)
        except ServiceError as exc:
            checks.op(label, [f"service error {exc.code}: {exc.message}"])
            return JobSample(fresh, time.perf_counter() - start, 0, 0.0)
        latency = time.perf_counter() - start
        source = doc.get("source")
        instructions, run_s = 0, 0.0
        if fresh:
            if source != "run":
                problems.append(f"fresh spec served from {source}")
            expected = reports[fresh_reference.case_id].instructions
            if report.instructions != expected:
                problems.append(
                    f"committed {report.instructions} instructions, CC reference {expected}"
                )
            if doc.get("wall_s"):
                instructions, run_s = report.instructions, float(doc["wall_s"])
            first_fresh.setdefault("spec", spec)
            first_fresh.setdefault("digest", doc["digest"])
        else:
            if source != "cache":
                problems.append(f"repeat spec served from {source}, not the cache")
            problems += checks.report_problems(case.case_id, spec, report)
        checks.op(label, problems)
        return JobSample(fresh, latency, instructions, run_s)

    def block() -> Tuple[List[JobSample], float]:
        fresh_at = rng.randrange(JOBS_BLOCK)
        start = time.perf_counter()
        samples = [job(i == fresh_at) for i in range(JOBS_BLOCK)]
        return samples, time.perf_counter() - start

    first_fresh: Dict[str, object] = {}
    try:
        if trace:
            result = traced_jobs(block, seconds)
        else:
            samples: List[JobSample] = []
            loop_start = time.perf_counter()
            while (
                time.perf_counter() - loop_start < seconds
                or sum(1 for s in samples if not s.fresh) < MIN_HITS
                or sum(1 for s in samples if s.fresh) < MIN_MISSES
            ):
                samples += block()[0]
            loop_s = time.perf_counter() - loop_start
            hits = [s.latency_s for s in samples if not s.fresh]
            misses = [s.latency_s for s in samples if s.fresh]
            fresh = [s for s in samples if s.fresh and s.instructions]
            pairs = [
                (reports[case.case_id], reports[case.reference])
                for case in repeat
                if case.reference is not None
            ]
            metrics = {
                "sim_kips": sum(s.instructions for s in fresh)
                / sum(s.run_s for s in fresh) / 1000.0,
                "setup_s": setup_s,
                "jobs_per_s": len(samples) / loop_s,
                "hit_ms_p90": 1000.0 * percentile(hits, 90),
                "miss_ms_p50": 1000.0 * percentile(misses, 50),
            }
            metrics.update(modeled_summary(pairs))
            result = {
                "metrics": metrics,
                "detail": {
                    "jobs": len(samples),
                    "hits": len(hits),
                    "misses": len(misses),
                    "hit_ms_p50": 1000.0 * percentile(hits, 50),
                    "hit_ms_deciles": [1000.0 * q for q in statistics.quantiles(hits, n=10)],
                    "loop_s": loop_s,
                    "setups_s": setups,
                    "import_s": import_s,
                },
            }
    finally:
        service.close()
        wait_for_children()

    if not trace:
        result["metrics"]["peak_rss_mb"] = peak_rss_mb()  # workers reaped
    # The first fresh spec, run locally, must match the service's report.
    if first_fresh:
        report, _ = execute_spec(first_fresh["spec"])
        problems = []
        if report.digest() != first_fresh["digest"]:
            problems.append(
                f"local digest {report.digest()} != service digest {first_fresh['digest']}"
            )
        checks.op("first fresh spec (local run)", problems)
    return result


def traced_jobs(block, seconds) -> Dict[str, object]:
    """Per-layer ledger of ``jobs``: untraced and traced blocks alternate.
    The simulations run in spawned workers, outside the trace."""
    ledger, metrics, detail = traced_pairs(lambda: block()[1], seconds, 2, "jobs")
    metrics.update(simulation_layers(ledger, detail["traced_pairs"], []))
    return {"metrics": metrics, "detail": detail}


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #

def metric_units(trace: int) -> Dict[str, str]:
    """Name -> unit of the metrics a run reports, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-goldens", action="store_true",
        help="re-record perfbench/golden.json after an intended semantics change",
    )
    args = parser.parse_args(argv)
    if not args.update_goldens and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None, started: Optional[float] = None) -> int:
    started = time.perf_counter() if started is None else started
    args = parse_args(argv)
    host = HostContext()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not KERNEL_GOLDEN.is_file():
        print(
            f"perfbench: the program sources (src/repro) and its golden matrix "
            f"(benchmarks/golden_kernel.json) must be present under {ROOT}",
            file=sys.stderr,
        )
        return 2
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    # Isolation: the report cache is never the user's; every service cache,
    # WAL and socket is created under this invocation's own directory.
    os.environ["REPRO_CACHE_DIR"] = str(work_dir / "repro-cache")
    sys.path.insert(0, str(ROOT / "src"))
    for name in PROGRAM_MODULES:
        importlib.import_module(name)

    if args.update_goldens:
        update_goldens()
        return 0
    import_s = time.perf_counter() - started

    checks = Checks(load_goldens())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "jobs":
            result = run_jobs(args.seed, args.seconds, checks, work_dir, import_s, args.trace)
        else:
            result = run_simulation(
                args.workload, args.seed, args.seconds, checks, work_dir, import_s, args.trace
            )
    finally:
        wait_for_children()
        shutil.rmtree(work_dir, ignore_errors=True)

    units = metric_units(args.trace)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    detail = dict(result["detail"], host=host.stamp(), workload=args.workload,
                  seed=args.seed, trace=args.trace, failures=[
                      {"op": label, "problems": problems}
                      for label, problems in checks.ops if problems
                  ])
    for name, value in metrics.items():
        print(f"  {name:<36} {value:14.6g} {units[name]}")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0
