"""The traced benchmark run still finds everything it wraps.

``perfbench/tracing.py`` splits a benchmark run into layers by wrapping
``repro`` functions and methods by name, and counts instructions via
``len(....program.instructions)``.  It lives outside ``src/`` and is
loaded here read-only, so a rename or a container change in the
program that would break a ``--trace 1`` run fails tier-1 instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from repro.engine.keys import RunSpec
from repro.engine.parallel import build_configs
from repro.timing.grid import GridPipeline
from repro.workloads import get_benchmark

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracing):
    targets = tracing.CORE_TARGETS + tracing.SERVICE_TARGETS
    for module_name, cls_name, attr, _name, _after in targets:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), (module_name, cls_name, attr)
        assert callable(getattr(owner, attr)), (module_name, cls_name, attr)


def test_instruction_counters_work_on_columnar_programs(tracing):
    recorder = tracing.Recorder()
    built = get_benchmark("gsm_encode").build("mom3d")
    tracing._count_instructions(recorder, built, (), {})
    assert recorder.counts["workloads.instructions"] == len(built.program)

    configs = [build_configs(RunSpec("gsm_encode", "mom3d", "vector", lat))
               for lat in (20, 40)]
    pipeline = GridPipeline(built.program, configs)
    tracing._count_grid(recorder, None, (pipeline,), {})
    tracing._count_simulate(recorder, None, (built.program,), {})
    assert recorder.counts == Counter({
        "workloads.instructions": 2806,
        "timing.instructions": 2806 * 2 + 2806})
