"""Trace construction benchmark: build + verify + core decode.

Every cold ``repro all`` builds the 15 paper traces (5 benchmarks x 3
codings) before it simulates anything: the workload generator emits
the trace through :class:`~repro.isa.builder.ProgramBuilder`
(``build``), the trace analysis verifies its loop marks into
signatures (``verify``, :func:`repro.compiler.pipeline.run`) and the
timing layer lowers it once into its configuration-independent core
(``decode``, ``predecode._decode_core``).  This bench times those three
layers per trace and records them in ``BENCH_build.json``.

Each round runs in a fresh interpreter: one untimed warm-up pass over
the 15 traces (imports, numpy, the allocator), then one timed pass in
an order rotated by one trace per round, so slow drift on a noisy
host spreads over every trace instead of landing on one.  The record
holds the best-of, median and interquartile spread of the per-round
totals, the same split per phase and per coding, and instructions per
second at the best round.

``--baseline SRC`` times a second source tree (for example a checkout
of the previous commit) in the same way, alternating the two trees
round by round, and records its summary and the best-of speedup next
to the current tree's.

``MIN_RATE`` is the soft CI gate: the ``bench-build`` job emits a
warning annotation (not a failure) when the best-round rate falls
below it.

Run directly (``python benchmarks/bench_trace_build.py [--rounds N]
[--baseline SRC] [--out PATH]``) or via pytest
(``pytest benchmarks/bench_trace_build.py``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_OUT = ROOT / "BENCH_build.json"
#: rounds per tree (at least 5: the spread needs quartiles)
ROUNDS = 7
#: soft gate, instructions per second at the best round: twice the
#: rate of the object-per-instruction trace build this layout replaced
#: (103k/s on a 2-core x86 VM)
MIN_RATE = 200_000
PHASES = ("build", "verify", "decode")


def _one_round(shift: int) -> dict:
    """Warm up, then time build/verify/decode of every trace once."""
    from repro.compiler import pipeline as trace_pipeline
    from repro.timing import predecode
    from repro.workloads import CODINGS, benchmark_names, get_benchmark

    traces = [(bench, coding) for bench in benchmark_names()
              for coding in CODINGS]
    clock = time.perf_counter
    record = {"phases": dict.fromkeys(PHASES, 0.0),
              "codings": dict.fromkeys(CODINGS, 0.0),
              "instructions": dict.fromkeys(CODINGS, 0)}
    shift %= len(traces)
    for timed, order in ((False, traces),
                         (True, traces[shift:] + traces[:shift])):
        for bench, coding in order:
            t0 = clock()
            program = get_benchmark(bench).build(coding, 0,
                                                 analyze=False).program
            t1 = clock()
            trace_pipeline.run(program)
            t2 = clock()
            predecode._decode_core(program)
            t3 = clock()
            if timed:
                for name, seconds in zip(PHASES, (t1 - t0, t2 - t1,
                                                  t3 - t2)):
                    record["phases"][name] += seconds
                record["codings"][coding] += t3 - t0
                record["instructions"][coding] += len(program)
    return record


def _round_in(src: Path, shift: int) -> dict:
    """One round of the tree at ``src``, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--one-round",
         str(shift)], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"best": round(min(values), 4), "median": round(median, 4),
            "iqr": round(q3 - q1, 4)}


def _summarize(records: list[dict]) -> dict:
    totals = [sum(r["phases"].values()) for r in records]
    counts = records[0]["instructions"]
    return {
        "instructions": sum(counts.values()),
        "seconds": _summary(totals),
        "instructions_per_s": round(sum(counts.values()) / min(totals)),
        "by_phase": {name: _summary([r["phases"][name] for r in records])
                     for name in PHASES},
        "by_coding": {coding: dict(_summary([r["codings"][coding]
                                             for r in records]),
                                   instructions=count)
                      for coding, count in counts.items()},
    }


def run_benchmark(rounds: int = ROUNDS, out: Path = BENCH_OUT,
                  baseline: Path | None = None) -> dict:
    trees = {"current": ROOT / "src"}
    if baseline is not None:
        trees["baseline"] = Path(baseline).resolve()
    records: dict[str, list[dict]] = {name: [] for name in trees}
    for k in range(rounds):
        names = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for name in names:
            records[name].append(_round_in(trees[name], k))

    payload = {
        "workload": ("build + verify + core decode of the 15 paper "
                     "traces (5 benchmarks x 3 codings, seed 0), "
                     "serial, one fresh interpreter per round after an "
                     "untimed warm-up pass"),
        "rounds": rounds,
        "soft_gate_instructions_per_s": MIN_RATE,
        **_summarize(records["current"]),
    }
    if baseline is not None:
        base = _summarize(records["baseline"])
        payload["baseline"] = base
        payload["speedup_best"] = round(
            base["seconds"]["best"] / payload["seconds"]["best"], 2)
        payload["speedup_median"] = round(
            base["seconds"]["median"] / payload["seconds"]["median"], 2)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_trace_build_rate():
    payload = run_benchmark()
    print()
    print(json.dumps(payload, indent=2))
    assert payload["instructions"] == 167_598, payload
    if payload["instructions_per_s"] < MIN_RATE:
        print(f"::warning title=bench-build::trace build rate "
              f"{payload['instructions_per_s']} instructions/s is below "
              f"the {MIN_RATE} target on this runner")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--out", type=Path, default=BENCH_OUT)
    parser.add_argument("--baseline", type=Path, default=None,
                        help="source directory of a tree to compare with")
    parser.add_argument("--one-round", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one_round is not None:
        print(json.dumps(_one_round(args.one_round)))
    else:
        print(json.dumps(run_benchmark(args.rounds, args.out,
                                       args.baseline), indent=2))
