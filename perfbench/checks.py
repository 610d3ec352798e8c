"""Output checks and the model-error figure.

* :func:`repro_all_specs` — the unique spec set a ``repro all``
  simulates (46 points), built from the harness's own grids.
* :func:`stats_digests` — one digest per spec of its
  ``RunStats.to_dict()``, keyed without the seed, so results compare
  across runs, processes and commits.  The golden copies in
  ``golden/`` were recorded at seed 0; the trace seed only changes the
  sample data the media kernels process, never the instruction stream
  or its addresses, so every seed must reproduce them exactly.
* :func:`model_error_pct` — mean relative error of the reproduced
  Table 1, Table 4 and Fig. 9/10 facts against the paper's reported
  values in ``repro.harness.paper``.

Requires ``src`` on ``sys.path`` (``run.py`` arranges it).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

#: benchmarks of the paper's Fig. 10 panels (``harness.experiments.fig10``)
FIG10_BENCHES = ("mpeg2_encode", "mpeg2_decode", "jpeg_encode",
                 "gsm_encode")

_ENGINE_LINE = re.compile(r"^\[engine\] (.*)$", re.M)


def repro_all_specs(seed: int) -> list:
    """Every spec ``repro all`` resolves, deduplicated, in grid order."""
    from repro.engine import Sweep
    from repro.harness.experiments import (fig3_sweep, fig9_sweeps,
                                           table1_sweep)
    from repro.workloads import benchmark_names

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
    """A spec's identity without its seed (results do not name it)."""
    overrides = ",".join(f"{k}={v}" for k, v in spec.overrides)
    return (f"{spec.benchmark}/{spec.coding}/{spec.memsys}/"
            f"{spec.l2_latency}/{'warm' if spec.warm else 'cold'}/"
            f"{overrides}")


def stats_digest(stats) -> str:
    blob = json.dumps(stats.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def stats_digests(results) -> dict[str, str]:
    """``{spec key: digest}`` for a ``{RunSpec: RunStats}`` mapping."""
    return {spec_key(spec): stats_digest(stats)
            for spec, stats in sorted(results.items(),
                                      key=lambda kv: spec_key(kv[0]))}


def engine_counters(stderr: str) -> dict[str, int]:
    """The last ``[engine] k=v ...`` line of a command's stderr."""
    lines = _ENGINE_LINE.findall(stderr)
    if not lines:
        return {}
    out = {}
    for pair in lines[-1].split():
        key, _, value = pair.partition("=")
        if value.isdigit():
            out[key] = int(value)
    return out


def golden_stdout() -> str:
    return (GOLDEN / "repro_all.txt").read_text()


def golden_digests() -> dict[str, str]:
    return json.loads((GOLDEN / "stats.json").read_text())


def read_results(cache_dir, specs) -> dict:
    """Results a CLI run stored for ``specs`` (missing ones omitted)."""
    from repro.engine import ResultCache

    return ResultCache(cache_dir).get_many(specs)


def _rel(measured: float, reported: float) -> float:
    return abs(measured - reported) / abs(reported)


def model_error_pct(results: dict, seed: int) -> float:
    """Mean relative error (%) of the reproduced numeric facts.

    ``results`` maps every spec of :func:`repro_all_specs` to its
    statistics.  Table 4's counts are for scaled-down traces, so its
    per-benchmark *ratios* between memory systems are compared, as the
    harness itself advises.
    """
    from repro.engine import RunSpec
    from repro.harness import paper

    def run(bench, coding, memsys, lat=20):
        return results[RunSpec(benchmark=bench, coding=coding,
                               memsys=memsys, l2_latency=lat, seed=seed)]

    def slowdown(bench, coding, memsys):
        return (run(bench, coding, memsys).cycles
                / run(bench, "mom", "ideal").cycles)

    errors = []
    for bench, reported in paper.TABLE1.items():
        mom = run(bench, "mom", "vector").veclen
        m3d = run(bench, "mom3d", "vector").veclen
        measured = (mom.dim1, mom.dim2, m3d.dim1, m3d.dim2, m3d.dim3,
                    m3d.max_slices_per_load)
        errors += [_rel(m, r) for m, r in zip(measured, reported)
                   if r is not None]
    for bench, reported in paper.TABLE4_MILLIONS.items():
        mb = run(bench, "mom", "multibank").l2_activity
        vc = run(bench, "mom", "vector").l2_activity
        v3 = run(bench, "mom3d", "vector").l2_activity
        errors.append(_rel(vc / mb,
                           reported["vector"] / reported["multibank"]))
        errors.append(_rel(v3 / vc,
                           reported["vector3d"] / reported["vector"]))
    benches = paper.BENCHMARKS
    facts = paper.FIG9_FACTS
    columns = {
        "mmx_ideal": [slowdown(b, "mmx", "ideal") for b in benches],
        "vector": [slowdown(b, "mom", "vector") for b in benches],
        "multibank": [slowdown(b, "mom", "multibank") for b in benches],
        "vector3d": [slowdown(b, "mom3d", "vector") for b in benches],
    }
    errors.append(_rel(sum(columns["mmx_ideal"]) / len(benches),
                       facts["mmx_ideal_avg"]))
    for name in ("vector", "multibank", "vector3d"):
        col = columns[name]
        errors.append(_rel(sum(col) / len(col), facts[f"{name}_avg"]))
        lo, hi = facts[f"{name}_range"]
        errors += [_rel(min(col), lo), _rel(max(col), hi)]
    improvement = 1 - (slowdown("mpeg2_encode", "mom3d", "vector")
                       / slowdown("mpeg2_encode", "mom", "vector"))
    errors.append(_rel(improvement, facts["mpeg2_encode_improvement"]))
    f10 = paper.FIG10_FACTS
    for coding, key in (("mom", "mom_20to40"), ("mom3d", "mom3d_20to40")):
        ratios = [run(b, coding, "vector", 40).cycles
                  / run(b, coding, "vector", 20).cycles
                  for b in FIG10_BENCHES]
        errors.append(_rel(sum(ratios) / len(ratios), f10[key]))
    for bench, reported in f10["speedup_at_60"].items():
        speedup = (run(bench, "mom", "vector", 60).cycles
                   / run(bench, "mom3d", "vector", 60).cycles) - 1
        errors.append(_rel(speedup, reported))
    return 100.0 * sum(errors) / len(errors)
