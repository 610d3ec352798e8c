"""Golden record of the paper grid: absolute numbers, not just parity.

The differential suites compare timing models with each other, so a
change in a layer both sides share (workloads, memsys, the trace
build) moves both and still passes.  This test pins every point
``repro all`` simulates to a committed digest of its
``RunStats.to_dict()``, so any change to a reproduced number fails
here until the record is regenerated on purpose.

To regenerate after an intended change in the numbers (and say why in
the change description)::

    PYTHONPATH=src python tests/test_golden_paper_grid.py
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path

from repro.engine import Engine, Sweep, parallel
from repro.harness import Runner, run_all
from repro.harness.experiments import (all_specs, fig3_sweep, fig9_sweeps,
                                       table1_sweep)
from repro.workloads import benchmark_names
from repro.workloads.base import Benchmark

GOLDEN = Path(__file__).resolve().parent / "golden" / "paper_grid.json"

#: benchmarks of the Fig. 10 latency panels (``experiments.fig10``)
FIG10_BENCHES = ("mpeg2_encode", "mpeg2_decode", "jpeg_encode",
                 "gsm_encode")


def paper_specs(seed: int = 0) -> list:
    """Every spec ``repro all`` resolves, deduplicated, in grid order.

    Written out by hand rather than read from ``experiments.GRIDS``:
    it is the oracle ``experiments.all_specs`` is checked against."""
    benches = tuple(benchmark_names())
    sweeps = (
        fig3_sweep(seed), *fig9_sweeps(seed), table1_sweep(seed),
        # fig6 / table4 / fig11
        Sweep(benchmarks=benches, codings=("mom",),
              memsystems=("multibank", "vector"), seed=seed),
        Sweep(benchmarks=benches, codings=("mom3d",),
              memsystems=("vector",), seed=seed),
        # fig7
        Sweep(benchmarks=benches, codings=("mom", "mom3d"),
              memsystems=("vector",), seed=seed),
        # fig10
        Sweep(benchmarks=FIG10_BENCHES, codings=("mom", "mom3d"),
              memsystems=("vector",), l2_latencies=(20, 40, 60),
              seed=seed),
    )
    return list(dict.fromkeys(spec for sweep in sweeps
                              for spec in sweep.specs()))


def spec_key(spec) -> str:
    """A spec's identity without its seed."""
    overrides = ",".join(f"{k}={v}" for k, v in spec.overrides)
    return (f"{spec.benchmark}/{spec.coding}/{spec.memsys}/"
            f"{spec.l2_latency}/{'warm' if spec.warm else 'cold'}/"
            f"{overrides}")


def stats_digest(stats) -> str:
    blob = json.dumps(stats.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def grid_digests() -> dict[str, str]:
    """Simulate the paper grid from scratch; ``{spec key: digest}``."""
    results = Engine(use_cache=False).run_many(paper_specs())
    return {spec_key(spec): stats_digest(stats)
            for spec, stats in sorted(results.items(),
                                      key=lambda kv: spec_key(kv[0]))}


def test_paper_grid_matches_golden_record():
    golden = json.loads(GOLDEN.read_text())
    digests = grid_digests()
    assert len(golden) == 46
    assert sorted(digests) == sorted(golden), "paper grid changed shape"
    moved = [key for key in golden if digests[key] != golden[key]]
    assert not moved, f"{len(moved)} paper points changed: {moved}"


def test_all_specs_is_the_paper_grid():
    assert set(all_specs()) == set(paper_specs())
    assert set(all_specs(seed=3)) == set(paper_specs(seed=3))


def test_cold_run_all_is_one_dispatch_building_each_trace_once(
        monkeypatch):
    """``run_all`` prefetches the whole evaluation in one dispatch, so
    each of the 15 traces (5 benchmarks x 3 codings) is built once."""
    builds = []
    real_build = Benchmark.build

    def counting_build(self, coding, seed=0, **kwargs):
        builds.append((self.name, coding, seed))
        return real_build(self, coding, seed, **kwargs)

    monkeypatch.setattr(Benchmark, "build", counting_build)
    monkeypatch.setattr(parallel, "_WORKLOADS", OrderedDict())
    runner = Runner(use_cache=False)
    run_all(runner)
    assert runner.engine.stats.dispatches == 1
    assert runner.engine.stats.simulations == 46
    assert len(builds) == 15
    assert len(set(builds)) == 15


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(grid_digests(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
