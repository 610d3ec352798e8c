"""Modulo-scheduled trace analysis: loop signatures + register renaming.

Workload generators mark their emission loops with
:meth:`repro.isa.builder.ProgramBuilder.loop`.  The module offers two
analyses over a built program; only the first runs when a trace is
built (:func:`run`, from ``Benchmark.build``):

1. **Verify marks into iteration signatures.**  A mark survives only if
   every iteration has the same *shape*: per body slot the opcode,
   operand registers, element type, vector length, memory stride and
   kernel tag are identical across trips, and effective addresses
   advance by a per-slot constant each trip.  Immediates may differ --
   the timing layer never reads them.  Verified marks become
   :class:`repro.compiler.loopnest.LoopSignature` records on
   ``program.loops``; the timing layer's pre-decode lowers one body and
   replicates it.  That periodized decode is the signatures' only
   consumer.

2. **Rename away false WAR/WAW dependences** (:func:`rename_false_deps`,
   not on the build path).  Media loop bodies recycle a handful of
   architectural temporaries (``v0``/``v1``/``r4``...) every few
   instructions; the hardware renames these, so the in-order hazard
   scan in pre-decode is pessimistic about them.  For each verified
   loop the renamer rewrites repeated intra-body definitions of
   non-carried registers onto registers that are provably free over
   the region, using the *same* map for every iteration (so signatures
   stay valid and live-outs are preserved by letting the final
   definition keep the architectural name).  Renaming never changes
   dataflow -- the hypothesis suite checks executor equivalence on
   random bodies.  It also changes no paper-grid ``RunStats``: renamed
   or not, all 46 ``repro all`` points match the golden record, while
   renaming the 15 paper traces costs 1.4-1.6 s and the simulations
   run no faster on the renamed traces (2-core x86 host).  So traces
   are built without it.

The pass is advisory end to end: unverifiable marks are dropped and
unrenameable registers are skipped, never errors.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.compiler.dependence import body_def_use, register_events
from repro.compiler.loopnest import LoopSignature
from repro.isa.opcodes import Opcode
from repro.isa.registers import LOGICAL_COUNTS, RegClass, Register, r, v

#: Register classes the renamer may touch.  ACC and VEC3D are tiny
#: (2 names) and architecturally special; CONTROL (VL/VS) is implicit
#: state read by every vector instruction.
_RENAMEABLE = (RegClass.SCALAR, RegClass.VECTOR)

_MAKE = {RegClass.SCALAR: r, RegClass.VECTOR: v}

#: Opcodes whose destination write is conditional (a *partial* def):
#: the new value may be the old one, so the def must stay in whatever
#: register currently holds it rather than opening a new live range.
_PARTIAL_DEF_OPS = frozenset({Opcode.CMOV})


def verify_marks(program) -> list[LoopSignature]:
    """Turn the builder's raw loop marks into verified signatures.

    Returns signatures sorted by ``(start, -end)`` (outer loops before
    the loops they contain).  Marks that cannot be verified -- ragged
    iteration spacing beyond a uniform prefix, non-uniform bodies,
    non-affine address progressions -- are silently dropped, as are
    marks partially overlapping an already-kept signature.
    """
    shape = tuple(getattr(program, name) for name in _SHAPE_COLUMNS)
    raw: list[LoopSignature] = []
    for starts, end in program.loop_marks:
        sig = _verify_one(shape, program.ea, starts, end)
        if sig is not None:
            raw.append(sig)
    raw.sort(key=lambda s: (s.start, -s.end))
    kept: list[LoopSignature] = []
    for sig in raw:
        ok = True
        for prev in kept:
            if prev.end <= sig.start or sig.end <= prev.start:
                continue  # disjoint
            if prev.contains(sig) or sig.contains(prev):
                continue  # properly nested
            ok = False  # partial overlap: keep the earlier/outer one
            break
        if ok and (not kept or kept[-1] != sig):
            kept.append(sig)
    return kept


#: Program columns that must repeat exactly in every trip of a loop
#: (everything the timing layer reads except the effective address).
_SHAPE_COLUMNS = ("op", "dst_ids", "src_ids", "etype", "vl", "stride",
                  "wwords", "back", "pstride", "tag")


def _verify_one(shape, ea, starts, end) -> LoopSignature | None:
    """Verify one raw mark; None if no uniform >= 2-trip prefix exists.

    Compares whole column slices: each later trip's slice of every
    ``shape`` column must equal body 0's, and each body slot's
    effective addresses (a stride-``length`` slice of the ``ea``
    column) must be all None or an arithmetic progression.
    """
    length = starts[1] - starts[0]
    if length <= 0:
        return None
    trips = 1
    while trips < len(starts) and starts[trips] - starts[trips - 1] == length:
        trips += 1
    if trips == len(starts) and end - starts[-1] != length:
        trips -= 1  # final iteration is ragged: exclude it
    if trips < 2:
        return None
    s0 = starts[0]
    stop = s0 + trips * length
    for column in shape:
        body = column[s0:s0 + length]
        for base in range(s0 + length, stop, length):
            if column[base:base + length] != body:
                return None
    steps = [0] * length
    for j in range(length):
        slot = ea[s0 + j:stop:length]
        first = slot[0]
        if first is None:
            if slot.count(None) != trips:
                return None
            continue
        if None in slot:
            return None
        step = slot[1] - first
        if step:
            if slot != list(range(first, first + trips * step, step)):
                return None
        elif slot.count(first) != trips:
            return None
        steps[j] = step
    return LoopSignature(start=s0, body_len=length, trips=trips,
                         ea_steps=tuple(steps))


def coverage_regions(signatures) -> list[LoopSignature]:
    """Greedy outermost disjoint subset of a sorted signature list.

    This is the partition trace consumers replicate over: each region
    is as large as possible, and no trace slot belongs to two regions.
    """
    kept: list[LoopSignature] = []
    last_end = -1
    for sig in signatures:
        if sig.start >= last_end:
            kept.append(sig)
            last_end = sig.end
    return kept


def rename_false_deps(program, regions) -> int:
    """Break intra-body false WAW/WAR dependences in each region.

    For every outermost region, registers that are written several
    times per iteration but never carried across iterations get their
    earlier definitions moved onto registers free over the whole
    region; the final definition keeps the architectural name so
    live-outs (and the per-iteration signature) are untouched.  The
    same map is applied to every trip.  Returns the number of
    instructions rewritten.
    """
    ins = program.instructions
    if not regions:
        return 0
    events = register_events(ins)
    changed = 0
    for region in regions:
        changed += _rename_region(program, events, region)
    if changed:
        program.version += 1
    return changed


def _free_over(events, reg: Register, lo: int, hi: int) -> bool:
    """True if ``reg`` has no event in [lo, hi) and can absorb a stray
    value afterwards (its next event at or past ``hi`` is a def)."""
    ev = events.get(reg)
    if not ev:
        return True
    pos = bisect_left(ev, (lo,))
    if pos == len(ev):
        return True
    index, is_def = ev[pos]
    return index >= hi and is_def


def _rename_region(program, events, region: LoopSignature) -> int:
    ins = program.instructions
    lo, hi = region.start, region.end
    length, trips = region.body_len, region.trips
    carried, def_sites = body_def_use(ins, lo, length)

    # Candidate registers: several full defs per trip, never carried,
    # renameable class, and (for vectors) a single vector length across
    # every body touch -- partial-width writes make sub-register
    # liveness visible, which renaming must not disturb.
    candidates = []
    for reg, sites in def_sites.items():
        if reg.cls not in _RENAMEABLE or reg in carried:
            continue
        chains = _def_chains(ins, lo, reg, sites)
        if len(chains) < 2:
            continue
        if reg.cls is RegClass.VECTOR and not _uniform_vl(ins, lo, length, reg):
            continue
        candidates.append((reg, chains))
    if not candidates:
        return 0

    # Free registers of each class over the region.
    pool: dict[RegClass, list[Register]] = {}
    for cls in _RENAMEABLE:
        make = _MAKE[cls]
        pool[cls] = [make(idx) for idx in range(LOGICAL_COUNTS[cls])
                     if _free_over(events, make(idx), lo, hi)]

    # Give the registers with the most breakable defs first pick.
    candidates.sort(key=lambda item: -len(item[1]))
    slot_map: dict[int, dict[Register, Register]] = {}
    for reg, chains in candidates:
        free = pool[reg.cls]
        want = min(len(chains) - 1, len(free))
        if want == 0:
            continue
        temps = free[:want]
        del free[:want]
        # Earlier chains cycle through the temps; the last keeps reg.
        for chain_no, chain in enumerate(chains[:-1]):
            new = temps[chain_no % len(temps)]
            for slot in chain:
                slot_map.setdefault(slot, {})[reg] = new

    if not slot_map:
        return 0

    # Lower the per-chain choices into per-slot operand rewrites for
    # one body, tracking the current name of each renamed register.
    current: dict[Register, Register] = {}
    rewrites: list[tuple[int, tuple, tuple] | None] = [None] * length
    for slot in range(length):
        inst = ins[lo + slot]
        srcs = tuple(current.get(s, s) for s in inst.srcs)
        picks = slot_map.get(slot, {})
        partial = inst.op in _PARTIAL_DEF_OPS
        for dst in inst.dsts:
            if dst in picks:
                current[dst] = picks[dst]
            elif not partial:
                # a def chain keeping the architectural name ends any
                # earlier temp mapping; partial defs extend the range
                current.pop(dst, None)
        dsts = tuple(current.get(d, d) for d in inst.dsts)
        if srcs != inst.srcs or dsts != inst.dsts:
            rewrites[slot] = (slot, dsts, srcs)

    changed = 0
    for item in rewrites:
        if item is None:
            continue
        slot, dsts, srcs = item
        for k in range(trips):
            program.set_registers(lo + k * length + slot, dsts, srcs)
            changed += 1
    return changed


def _def_chains(ins, lo: int, reg: Register, sites: list[int]):
    """Group a register's body def slots into rename chains.

    A conditional (partial) def cannot open a new live range -- it may
    preserve the old value -- so it extends its predecessor's chain.
    """
    chains: list[list[int]] = []
    for slot in sites:
        if chains and ins[lo + slot].op in _PARTIAL_DEF_OPS:
            chains[-1].append(slot)
        else:
            chains.append([slot])
    return chains


def _uniform_vl(ins, lo: int, length: int, reg: Register) -> bool:
    """All body touches of ``reg`` at one vector length?"""
    seen = None
    for slot in range(length):
        inst = ins[lo + slot]
        if reg in inst.dsts or reg in inst.srcs:
            if seen is None:
                seen = inst.vl
            elif inst.vl != seen:
                return False
    return True


def run(program):
    """The build-path pass: verify marks and publish signatures.

    Invoked by ``Benchmark.build`` on every generated trace.  Sets
    ``program.loops`` and returns ``program``; the instructions are
    left exactly as the generator emitted them.  Renaming
    (:func:`rename_false_deps`) is not applied here: on the paper grid
    it changes no ``RunStats`` and costs more trace-build time than
    the simulation time it saves.
    """
    program.loops = verify_marks(program)
    return program
