"""In-memory span tracer for the traced benchmark run.

Timing wrappers are installed from here around public functions of each
layer, so the program itself carries no benchmark probes.  Every wrapped
call records one span (name, start, end, parent) in a per-thread buffer;
a layer's self time is its spans' durations minus the child spans they
contain.  Spans are kept in compact arrays and written out as JSON when
the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pathlib
import sys
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple


def _spawn_overhead(result, duration_s: float):
    """``run_one`` span minus the wall time the worker reports."""
    return duration_s - result.wall_s


def _cache_hit(result, duration_s: float):
    return result is not None


#: (span name, module, attribute) — the public calls timed per layer.  An
#: optional fourth element derives a value from each call's result.
TRACE_POINTS: Tuple[tuple, ...] = (
    ("core.scheduler.run", "repro.core.scheduler", "Scheduler.run"),
    ("core.threads.core_step", "repro.core.threads", "CoreRunner.step"),
    ("core.threads.manager_step", "repro.core.threads", "ManagerRunner.step"),
    ("core.threads.manager_step", "repro.core.threads", "SubManagerRunner.step"),
    ("core.manager.service", "repro.core.manager", "ManagerState.service"),
    ("cpu.cycle", "repro.cpu.core", "CoreModel.cycle"),
    ("cpu.commit_burst", "repro.cpu.core", "CoreModel.commit_burst"),
    ("memory.l1.access_line", "repro.memory.l1", "L1Cache.access_line"),
    ("core.snapshot.take", "repro.core.snapshot", "take"),
    ("core.snapshot.restore", "repro.core.snapshot", "restore"),
    ("workloads.make_workload", "repro.workloads.registry", "make_workload"),
    ("workloads.simulation_init", "repro.core.simulation", "Simulation.__init__"),
    ("harness.pool.run_one", "repro.harness.pool", "ParallelExecutor.run_one",
     _spawn_overhead),
    ("harness.cache.get", "repro.harness.cache", "ReportCache.get", _cache_hit),
    ("harness.cache.put", "repro.harness.cache", "ReportCache.put"),
    ("service.protocol.codec", "repro.service.protocol", "spec_to_wire"),
    ("service.protocol.codec", "repro.service.protocol", "spec_from_wire"),
    ("service.protocol.codec", "repro.core.report", "SimulationReport.to_dict"),
    ("service.protocol.codec", "repro.core.report", "SimulationReport.from_dict"),
    ("service.store.record_state", "repro.service.store", "JobStore.record_state"),
    ("service.client.request", "repro.service.client", "ServiceClient.request"),
)

#: Spans of the target model (CoreModel and its L1).
TARGET_MODEL = frozenset({"cpu.cycle", "cpu.commit_burst", "memory.l1.access_line"})


class _Buffer:
    """One thread's spans, as parallel arrays; ``stack`` holds open spans."""

    __slots__ = ("thread", "name", "parent", "start", "end", "stack")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []

    def __len__(self) -> int:
        return len(self.name)


class SpanTracer:
    """Collects spans from wrapped calls while :attr:`enabled` is set."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: List[_Buffer] = []
        #: Values derived from call results, per span name.
        self.values: Dict[str, List[object]] = {}
        self.enabled = False
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def buffer(self) -> _Buffer:
        """This thread's span buffer (created on first use)."""
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.current_thread().name)
            with self._lock:
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, name: str, fn: Callable, derive: Optional[Callable] = None):
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter
        values = self.values.setdefault(name, []) if derive else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            buf = tracer.buffer()
            stack = buf.stack
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0.0)
            stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                stack.pop()
            if values is not None:
                values.append(derive(result, buf.end[idx] - buf.start[idx]))
            return result

        return traced

    def span_count(self) -> int:
        return sum(len(buf) for buf in self.buffers)

    # -- installation --------------------------------------------------- #

    def install(self, points=TRACE_POINTS) -> None:
        """Wrap every trace point.  A module-level function is replaced in
        its defining module and in every ``repro`` module that imported
        it by name."""
        for point in points:
            name, module_name, attr = point[:3]
            derive = point[3] if len(point) > 3 else None
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, derive))
                else:
                    wrapped = self.wrap(name, raw, derive)
                self._patch(owner, meth, raw, wrapped)
            else:
                raw = getattr(module, attr)
                wrapped = self.wrap(name, raw, derive)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                        getattr(mod, attr, None) is raw
                    ):
                        self._patch(mod, attr, raw, wrapped)

    def _patch(self, owner, attr: str, raw, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    # -- analysis ------------------------------------------------------- #

    def ledger(self, main: Optional[_Buffer] = None) -> "Ledger":
        return Ledger.from_buffers(self.names, self.buffers, main)

    def write_json(self, path: pathlib.Path) -> None:
        """All spans, per thread, as gzip-compressed columnar JSON (times
        in integer nanoseconds from the earliest span), streamed in chunks
        so a large trace never exists as Python lists."""
        starts = [buf.start[0] for buf in self.buffers if len(buf)]
        origin = min(starts) if starts else 0.0

        def column(fh, values, convert) -> None:
            fh.write("[")
            for lo in range(0, len(values), 65536):
                if lo:
                    fh.write(",")
                fh.write(",".join(map(convert, values[lo:lo + 65536])))
            fh.write("]")

        def ns(t: float) -> str:
            return str(round((t - origin) * 1e9))

        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write('{"names":' + json.dumps(self.names) + ',"threads":[')
            for k, buf in enumerate(self.buffers):
                fh.write(("," if k else "") + '{"thread":' + json.dumps(buf.thread))
                for key, values, convert in (
                    ("name", buf.name, str),
                    ("parent", buf.parent, str),
                    ("start_ns", buf.start, ns),
                    ("end_ns", buf.end, ns),
                ):
                    fh.write(f',"{key}":')
                    column(fh, values, convert)
                fh.write("}")
            fh.write("]}")


class Ledger:
    """Per-name span aggregates: inclusive and self seconds, every
    duration, and the target model's inclusive time."""

    def __init__(self) -> None:
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.durations: Dict[str, array] = {}
        self.target_model_s = 0.0
        #: Seconds covered by root spans of the ``main`` buffer.
        self.main_root_s = 0.0

    @classmethod
    def from_buffers(cls, names, buffers, main=None) -> "Ledger":
        ledger = cls()
        for buf in buffers:
            n = len(buf)
            dur = array("d", (buf.end[i] - buf.start[i] for i in range(n)))
            child = array("d", bytes(8 * n))
            parents = buf.parent
            for i in range(n):
                p = parents[i]
                if p >= 0:
                    child[p] += dur[i]
            for i in range(n):
                name = names[buf.name[i]]
                ledger.total_s[name] = ledger.total_s.get(name, 0.0) + dur[i]
                ledger.self_s[name] = ledger.self_s.get(name, 0.0) + dur[i] - child[i]
                ledger.durations.setdefault(name, array("d")).append(dur[i])
                p = parents[i]
                if name in TARGET_MODEL and (
                    p < 0 or names[buf.name[p]] not in TARGET_MODEL
                ):
                    ledger.target_model_s += dur[i]
                if buf is main and p < 0:
                    ledger.main_root_s += dur[i]
        return ledger

    def self_of(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)
