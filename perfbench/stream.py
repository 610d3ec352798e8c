"""The fleet's job stream: which specs each open-loop job asks for.

Three jobs in four are *hits*: one to four specs of the paper grid
the fleet has just computed, served from the coordinator's memo and
store with no simulation.  The rest are *misses*: one spec the fleet
has never seen (a new L2 latency, a ``window``/``l2_line``/
``mb_banks``/``simd_lanes`` override point, or a trace seed no worker
has built) plus up to two cached specs.  Miss kinds rotate through a
fixed cycle and benchmarks through a shuffled round, so every seed
gives the same mix of work; the seed picks the order and the values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: one job in MISS_EVERY holds an uncached spec
MISS_EVERY = 4
MISS_KINDS = ("latency", "window", "l2_line", "new_seed", "mb_banks",
              "latency", "simd_lanes", "window")
#: codings of miss specs: their traces build and simulate in tens of
#: milliseconds, so a miss costs about as much as a paper-grid point
MISS_CODINGS = ("mom", "mom3d")


@dataclass(frozen=True)
class StreamJob:
    specs: tuple
    #: the uncached spec of a miss job, None for a hit
    miss: object = None


def make_stream(seed: int, leg: int, grid: list, count: int,
                benchmarks: list[str]) -> list[StreamJob]:
    """``count`` jobs for fleet leg ``leg`` of run ``seed``."""
    from repro.engine import RunSpec

    rng = random.Random(f"perfbench-stream:{seed}:{leg}")
    grid_seed = grid[0].seed
    seen = set(grid)
    jobs = []
    round_: list[str] = []
    misses = 0
    # one miss in each block of MISS_EVERY jobs, at a random place:
    # a fixed place would keep every miss at the same phase of the
    # workers' lease-poll cycle
    miss_at = {block + rng.randrange(MISS_EVERY)
               for block in range(0, count, MISS_EVERY)}
    for index in range(count):
        if index not in miss_at:
            jobs.append(StreamJob(specs=tuple(
                rng.sample(grid, rng.randint(1, 4)))))
            continue
        kind = MISS_KINDS[misses % len(MISS_KINDS)]
        misses += 1
        while True:
            if not round_:
                round_ = list(benchmarks)
                rng.shuffle(round_)
            bench = round_.pop()
            coding = rng.choice(MISS_CODINGS)
            memsys = rng.choice(("vector", "multibank"))
            latency, seed_, overrides = 20, grid_seed, {}
            if kind == "latency":
                latency = rng.choice([lat for lat in range(21, 200)
                                      if lat not in (40, 60)])
            elif kind == "window":
                overrides = {"window": rng.choice((32, 48, 64, 96, 192,
                                                   256))}
            elif kind == "l2_line":
                overrides = {"l2_line": rng.choice((64, 256))}
            elif kind == "mb_banks":
                memsys = "multibank"
                overrides = {"mb_banks": rng.choice((2, 4, 8, 16))}
            elif kind == "simd_lanes":
                lanes = rng.choice((1, 2, 8))
                overrides = {"simd_lanes": lanes, "d3_move_lanes": lanes}
            else:  # new_seed: a trace no worker has built yet
                memsys = "vector"
                seed_ = grid_seed + 1000 + 100 * leg + misses
            spec = RunSpec(benchmark=bench, coding=coding, memsys=memsys,
                           l2_latency=latency, seed=seed_,
                           overrides=overrides)
            if spec not in seen:
                break
        seen.add(spec)
        extra = rng.sample(grid, rng.randint(0, 2))
        jobs.append(StreamJob(specs=(spec, *extra), miss=spec))
    return jobs
