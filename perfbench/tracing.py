"""Spans around the program's public functions, recorded from outside.

Nothing in the program is edited: :func:`install` replaces public
functions and methods of ``repro`` modules with wrappers that record a
span (name, start, end, parent span, job id) per call, and a few
counts next to them.  Spans stay in memory until :meth:`Recorder.dump`
writes them out at the end of a process.

A span's *self time* is its duration minus the time its child spans
cover; summing self times per span name splits a process's wall time
into layers without double counting.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Recorder:
    """Thread-safe in-memory span and counter store."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: [name, start, end, parent index or -1, job id or None]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_job(self, job) -> None:
        """Tag later spans of this thread with ``job`` (None clears)."""
        self._local.job = job

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        record = [name, self.clock(), None, parent,
                  getattr(self._local, "job", None)]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            stack.pop()
            record[2] = self.clock()

    def add(self, counter: str, value=1) -> None:
        with self._lock:
            self.counts[counter] += value

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(recorder, result,
        args, kwargs)`` runs on each successful return (for counts)."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with recorder.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(recorder, result, args, kwargs)
            return result

        traced.__perfbench_wrapped__ = fn
        return traced

    # -- output ------------------------------------------------------------

    def payload(self) -> dict:
        with self._lock:
            spans = [list(s) for s in self.spans if s[2] is not None]
            counts = dict(self.counts)
        return {"spans": spans, "counts": counts}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.payload(), handle)


def load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    Children of one parent run on the parent's thread one after
    another, so their durations add without overlap.
    """
    child_time: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _job) in enumerate(spans):
        totals[name] += max(0.0, (end - start) - child_time[index])
    return dict(totals)


def durations(spans, name: str) -> list[float]:
    """Wall duration of every span called ``name``."""
    return [end - start for n, start, end, _p, _j in spans if n == name]


# -- installation ------------------------------------------------------------


def _count_instructions(rec, built, args, kwargs):
    rec.add("workloads.instructions", len(built.program.instructions))


def _count_renamed(rec, renamed, args, kwargs):
    rec.add("compiler.renamed", int(renamed))


def _count_grid(rec, result, args, kwargs):
    pipeline = args[0]
    rec.add("timing.instructions",
            len(pipeline.program.instructions) * len(pipeline.configs))


def _count_simulate(rec, result, args, kwargs):
    rec.add("timing.instructions", len(args[0].instructions))


def _note_lease(rec, grant, args, kwargs):
    # spans on a worker carry the shard they work for as their job id
    rec.set_job(None if grant is None else grant.shard_id)


def _patch_function(recorder, module_name: str, attr: str, name: str,
                    after=None) -> None:
    """Replace a module-level function everywhere ``repro`` bound it
    (``from x import f`` copies the reference into other modules)."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    wrapper = recorder.wrap(name, original, after)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro"
                               or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def _patch_method(recorder, module_name: str, cls_name: str, attr: str,
                  name: str, after=None) -> None:
    cls = getattr(importlib.import_module(module_name), cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr,
                classmethod(recorder.wrap(name, raw.__func__, after)))
    else:
        setattr(cls, attr, recorder.wrap(name, raw, after))


#: (module, class or None, attribute, span name, count hook)
CORE_TARGETS = (
    ("repro.engine.cache", None, "code_version", "cache.code_version",
     None),
    ("repro.engine.cache", "ResultCache", "__init__", "cache.open", None),
    ("repro.engine.store", "SegmentStore", "__init__", "cache.open",
     None),
    ("repro.engine.cache", "ResultCache", "get_many", "cache.get_many",
     None),
    ("repro.engine.cache", "ResultCache", "put_many", "cache.put_many",
     None),
    ("repro.engine.cache", "ResultCache", "get", "cache.get", None),
    ("repro.engine.cache", "ResultCache", "put", "cache.put", None),
    ("repro.engine", "Engine", "run_many", "engine.run_many", None),
    ("repro.engine", "Engine", "run", "engine.run", None),
    ("repro.engine.backends.inline", "InlineBackend", "execute",
     "backends.execute", None),
    ("repro.engine.backends.process", "ProcessBackend", "execute",
     "backends.execute", None),
    ("repro.engine.backends.remote", "RemoteBackend", "execute",
     "backends.execute", None),
    ("repro.workloads.base", "Benchmark", "build", "workloads.generate",
     _count_instructions),
    ("repro.compiler.pipeline", None, "run", "compiler.pipeline", None),
    ("repro.compiler.pipeline", None, "verify_marks", "compiler.verify",
     None),
    ("repro.compiler.pipeline", None, "coverage_regions",
     "compiler.verify", None),
    ("repro.compiler.pipeline", None, "rename_false_deps",
     "compiler.rename", _count_renamed),
    ("repro.timing.predecode", None, "decode", "timing.decode", None),
    ("repro.timing.grid", "GridPipeline", "run", "timing.simulate",
     _count_grid),
    ("repro.timing.pipeline", None, "simulate", "timing.simulate",
     _count_simulate),
    ("repro.harness.experiments", "ExperimentResult", "render",
     "harness.render", None),
)

SERVICE_TARGETS = (
    ("repro.engine.backends.workqueue", "WorkQueue", "enqueue",
     "queue.enqueue", None),
    ("repro.engine.backends.workqueue", "WorkQueue", "collect",
     "queue.collect", None),
    ("repro.engine.backends.workqueue", "WorkQueue", "lease",
     "queue.lease", None),
    ("repro.engine.backends.workqueue", "WorkQueue", "complete",
     "queue.complete", None),
    ("repro.service.scheduler", "BatchScheduler", "submit",
     "scheduler.submit", None),
    ("repro.service.server", "ServiceServer", "_post_work_lease",
     "server.lease", None),
    ("repro.service.server", "ServiceServer", "_post_work_complete",
     "server.complete", None),
    ("repro.service.server", "ServiceServer", "_get_job",
     "server.get_job", None),
    ("repro.service.server", "ServiceServer", "_stats_payload",
     "server.stats", None),
    ("repro.service.client", "ServiceClient", "submit", "client.submit",
     None),
    ("repro.service.client", "ServiceClient", "poll", "client.poll",
     None),
    ("repro.service.client", "ServiceClient", "wait", "client.wait",
     None),
    ("repro.service.client", "ServiceClient", "lease_work",
     "client.lease", _note_lease),
    ("repro.service.client", "ServiceClient", "complete_work",
     "client.complete", None),
) + tuple(
    ("repro.service.schema", cls, attr, f"wire.{kind}", None)
    for cls in ("JobRequest", "JobResult", "WorkLeaseGrant",
                "WorkCompletion")
    for attr, kind in (("to_wire", "encode"), ("from_wire", "decode")))


def install(recorder: Recorder, service: bool = False) -> None:
    """Wrap the core layers (and the service layers when asked).

    Importing the service package costs time a plain ``repro all``
    never pays, so it is only wrapped in processes that use it.
    """
    targets = CORE_TARGETS + (SERVICE_TARGETS if service else ())
    # import every module first so _patch_function sees all the
    # ``from x import f`` copies it has to replace
    for module_name, *_rest in targets:
        importlib.import_module(module_name)
    for module_name, cls_name, attr, name, after in targets:
        if cls_name is None:
            _patch_function(recorder, module_name, attr, name, after)
        else:
            _patch_method(recorder, module_name, cls_name, attr, name,
                          after)
    experiments = importlib.import_module("repro.harness.experiments")
    for exp_id, func in list(experiments.EXPERIMENTS.items()):
        experiments.EXPERIMENTS[exp_id] = recorder.wrap(
            "harness.experiment", func)
