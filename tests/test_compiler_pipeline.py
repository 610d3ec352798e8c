"""Property tests for the modulo-scheduled trace analysis pass.

Random loop bodies are drawn to recycle a handful of architectural
registers — exactly the false WAR/WAW structure media kernels exhibit.
The renamer must (a) leave dataflow untouched under the functional
simulator; mark verification must (b) recover an iteration signature
matching what was actually emitted, and (c) periodized decode over
the verified loops must reproduce the unperiodized decode.  The
build-path pass must also leave every generated instruction as
emitted (renaming is not part of it).
"""

import copy

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import pipeline
from repro.isa import ElemType, Opcode, ProgramBuilder, r, v
from repro.isa.registers import RegClass
from repro.vm import Executor, FlatMemory
from repro.workloads import benchmark_names, get_benchmark

#: Registers the random bodies recycle (a tight window forces repeated
#: intra-body definitions, i.e. false WAW/WAR dependences); the
#: renamer may pull temps from the other 28 scalar / 13 vector names.
_SCALARS = 4
_VECTORS = 3
_VL = 4

_KINDS = ("li", "add", "addi", "mul", "slt", "cmov", "simd",
          "ld", "st", "vld", "vst")


@st.composite
def _bodies(draw, min_size=3, max_size=10):
    """One loop body: (kind, dst-ish, src-ish, small immediate) ops."""
    count = draw(st.integers(min_size, max_size))
    return [(draw(st.sampled_from(_KINDS)),
             draw(st.integers(0, _SCALARS - 1)),
             draw(st.integers(0, _SCALARS - 1)),
             draw(st.integers(0, 31)))
            for _ in range(count)]


def _emit_body(b, body, base_ea=0):
    for kind, a, c, e in body:
        if kind == "li":
            b.li(r(a), e + 1)
        elif kind == "add":
            b.add(r(a), r(c), r((a + c) % _SCALARS))
        elif kind == "addi":
            b.addi(r(a), r(c), e)
        elif kind == "mul":
            b.mul(r(a), r(c), r((a + 1) % _SCALARS))
        elif kind == "slt":
            b.slt(r(a), r(c), r((a + c) % _SCALARS))
        elif kind == "cmov":
            b.cmov(r(a), r(c), r((a + 2) % _SCALARS))
        elif kind == "simd":
            b.simd(Opcode.PADDW, v(a % _VECTORS), v(c % _VECTORS),
                   v((a + c) % _VECTORS), etype=ElemType.I16)
        elif kind == "ld":
            b.ld(r(a), ea=base_ea + 0x2000 + e * 8)
        elif kind == "st":
            b.st(r(a), ea=base_ea + 0x2000 + e * 8)
        elif kind == "vld":
            b.vld(v(a % _VECTORS), ea=base_ea + 0x3000 + e * 16,
                  stride=8, etype=ElemType.I16)
        else:
            b.vst(v(a % _VECTORS), ea=base_ea + 0x3000 + e * 16,
                  stride=8, etype=ElemType.I16)


def _build(body, trips, moving=False):
    """A marked emission loop over ``body``, with seeded live-ins."""
    b = ProgramBuilder("pipeline-prop")
    b.setvl(_VL)
    for i in range(_SCALARS):
        b.li(r(i), 7 * i + 1)
    with b.loop() as lp:
        for k in range(trips):
            lp.begin()
            _emit_body(b, body, base_ea=k * 4096 if moving else 0)
    return b.program


def _value_trace(program):
    """The dynamic dataflow of a run: per instruction, the values its
    destinations hold right after it executes, plus final memory.

    Renaming relabels *which* register carries a value, never the
    value itself, so two dataflow-equivalent programs produce the
    same trace slot for slot.  (Final machine state is deliberately
    not compared: a register that no later instruction reads is dead,
    and the renamer is allowed to park a temp value there.)
    """
    mem = FlatMemory(1 << 16)
    ex = Executor(mem)
    trace = []
    for inst in program.instructions:
        ex.step(inst)
        produced = []
        for dst in inst.dsts:
            if dst.cls is RegClass.SCALAR:
                produced.append(ex.state.read_scalar(dst))
            elif dst.cls is RegClass.VECTOR:
                produced.append(tuple(ex.state.read_vector(dst, _VL)))
            elif dst.cls is RegClass.ACC:
                produced.append(ex.state.read_acc(dst))
        trace.append((inst.op, tuple(produced)))
    return trace, mem


def _assert_same_dataflow(baseline, renamed):
    trace1, mem1 = _value_trace(baseline)
    trace2, mem2 = _value_trace(renamed)
    assert np.array_equal(mem1.data, mem2.data), \
        "renaming changed stored bytes"
    assert len(trace1) == len(trace2)
    for i, (a, b) in enumerate(zip(trace1, trace2)):
        assert a == b, (i, baseline.instructions[i],
                        renamed.instructions[i], a, b)


@given(body=_bodies(), trips=st.integers(2, 8), moving=st.booleans())
@settings(max_examples=40, deadline=None)
def test_rename_preserves_dataflow(body, trips, moving):
    """The renamed program computes the same values into the same
    architectural registers and memory as the original."""
    baseline = _build(body, trips, moving=moving)
    renamed = copy.deepcopy(baseline)
    regions = pipeline.coverage_regions(pipeline.verify_marks(renamed))
    pipeline.rename_false_deps(renamed, regions)
    _assert_same_dataflow(baseline, renamed)


@given(body=_bodies(), trips=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_verified_signature_matches_emission(body, trips):
    """verify_marks recovers exactly the loop that was emitted."""
    program = _build(body, trips)
    prelude = 1 + _SCALARS  # setvl + live-in seeds
    signatures = pipeline.verify_marks(program)
    assert len(signatures) == 1
    sig = signatures[0]
    assert sig.start == prelude
    assert sig.body_len == len(body)
    assert sig.trips == trips
    assert sig.end == prelude + trips * len(body)
    # stationary buffers: every per-slot address step is zero
    assert all(step == 0 for step in sig.ea_steps)


@given(body=_bodies(), trips=st.integers(3, 8))
@settings(max_examples=25, deadline=None)
def test_moving_buffers_have_affine_steps(body, trips):
    """Per-iteration shifted buffers verify with a uniform EA step."""
    program = _build(body, trips, moving=True)
    signatures = pipeline.verify_marks(program)
    assert len(signatures) == 1
    for slot, step in enumerate(signatures[0].ea_steps):
        inst = program.instructions[signatures[0].start + slot]
        assert step == (4096 if inst.ea is not None else 0)


def test_rename_breaks_false_waw_and_keeps_liveouts():
    """A body redefining one register several times gets its earlier
    definitions moved off the architectural name; the final definition
    keeps it, so live-outs are untouched."""
    b = ProgramBuilder("waw")
    with b.loop() as lp:
        for _ in range(6):
            lp.begin()
            b.li(r(1), 5)
            b.st(r(1), ea=0x100)
            b.li(r(1), 9)
            b.st(r(1), ea=0x108)
            b.li(r(1), 13)
    program = b.program
    version = program.version
    baseline = copy.deepcopy(program)
    regions = pipeline.coverage_regions(pipeline.verify_marks(program))
    changed = pipeline.rename_false_deps(program, regions)
    assert changed > 0
    assert program.version == version + 1  # decode memos invalidated
    sig = regions[0]
    body = program.instructions[sig.start:sig.start + sig.body_len]
    defs_of_r1 = [inst for inst in body if r(1) in inst.dsts]
    assert len(defs_of_r1) == 1, "earlier defs must leave r1"
    assert r(1) in body[-1].dsts, "the final def keeps the name"
    # each store still sees the value of its own preceding li
    _assert_same_dataflow(baseline, program)


@pytest.mark.parametrize("bench", benchmark_names())
def test_build_analysis_only_publishes_loops(bench):
    """The build-path pass leaves the generated instructions alone: an
    analyzed build equals the raw (``analyze=False``) build except for
    its verified ``program.loops``."""
    analyzed = get_benchmark(bench).build("mom3d").program
    raw = get_benchmark(bench).build("mom3d", analyze=False).program
    assert analyzed.instructions == raw.instructions
    assert analyzed.name == raw.name
    assert analyzed.version == raw.version
    assert analyzed.loop_marks == raw.loop_marks
    assert raw.loops == []
    assert analyzed.loops == pipeline.verify_marks(raw) != []


@pytest.mark.parametrize("coding", ("mmx", "mom", "mom3d"))
@pytest.mark.parametrize("bench", benchmark_names())
def test_periodized_decode_matches_unperiodized(bench, coding):
    """``program.loops`` has one consumer, periodized decode: lowering
    one body per verified loop and replicating it must reproduce the
    sequential decode of the raw (``analyze=False``) build.  Hazard
    runs are the one deliberate difference — they break at iteration
    boundaries — so each periodized run must lie inside a sequential
    one."""
    from bisect import bisect_right

    from repro.timing.predecode import _decode_core

    analyzed = get_benchmark(bench).build(coding).program
    raw = get_benchmark(bench).build(coding, analyze=False).program
    assert analyzed.loops and not raw.loops
    periodized = _decode_core(analyzed)
    sequential = _decode_core(raw)

    assert periodized.n == sequential.n
    assert periodized.rows == sequential.rows
    assert np.array_equal(periodized.kind_arr, sequential.kind_arr)
    assert np.array_equal(periodized.vl_arr, sequential.vl_arr)
    assert periodized.mem_geometry == sequential.mem_geometry
    assert periodized.requests == sequential.requests
    assert periodized.by_class == sequential.by_class
    assert periodized.by_opcode == sequential.by_opcode
    assert periodized.veclen_events == sequential.veclen_events
    assert periodized.rf3d_words == sequential.rf3d_words
    assert periodized.rf3d_reads == sequential.rf3d_reads
    assert periodized.has_dvload3 == sequential.has_dvload3

    starts = [lo for lo, _hi in sequential.runs]
    for lo, hi in periodized.runs:
        j = bisect_right(starts, lo) - 1
        assert j >= 0 and sequential.runs[j][1] >= hi, (lo, hi)
