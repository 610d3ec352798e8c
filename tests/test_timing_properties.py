"""Property-based equivalence tests for the batched timing model.

Hypothesis generates short random ``Program``s mixing scalar memory,
2D/3D vector memory, uSIMD arithmetic, accumulator reductions, control
and branches — with random strides, vector lengths and element widths —
and asserts that the batched pipeline's ``RunStats`` equal the
reference pipeline's on every draw.  A separate property pins
``touch_sequence`` to the naive double-loop oracle it replaced.

Run under the fixed ``ci`` profile (registered in ``conftest.py``) in
CI: ``pytest --hypothesis-profile=ci``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.keys import RunSpec
from repro.engine.parallel import build_configs
from repro.isa import (ElemType, Opcode, Program, ProgramBuilder, acc, d3,
                       r, v)
from repro.timing import simulate
from repro.timing.predecode import touch_sequence

_SIMD_TWO_SRC = (Opcode.PADDB, Opcode.PADDW, Opcode.PMULLW,
                 Opcode.PAVGB, Opcode.PSADBW, Opcode.PUNPCKLBW)

_EA = st.integers(min_value=0, max_value=1 << 18)
_STRIDE = st.integers(min_value=-512, max_value=1024)


@st.composite
def _programs(draw):
    builder = ProgramBuilder("prop")
    count = draw(st.integers(min_value=1, max_value=48))
    for _ in range(count):
        kind = draw(st.sampled_from(
            ("int", "int", "simd", "simd", "vld", "vst", "ld", "st",
             "dvload3", "dvmov3", "setvl", "branch", "acc")))
        if kind == "int":
            builder.addi(r(draw(st.integers(0, 7))),
                         r(draw(st.integers(0, 7))),
                         draw(st.integers(0, 255)))
        elif kind == "simd":
            builder.simd(draw(st.sampled_from(_SIMD_TWO_SRC)),
                         v(draw(st.integers(0, 15))),
                         v(draw(st.integers(0, 15))),
                         v(draw(st.integers(0, 15))),
                         etype=draw(st.sampled_from(
                             (ElemType.U8, ElemType.I16))))
        elif kind == "vld":
            builder.vld(v(draw(st.integers(0, 15))), ea=draw(_EA),
                        stride=draw(_STRIDE),
                        etype=draw(st.sampled_from(
                            (ElemType.U8, ElemType.I16, None))))
        elif kind == "vst":
            builder.vst(v(draw(st.integers(0, 15))), ea=draw(_EA),
                        stride=draw(_STRIDE))
        elif kind == "ld":
            builder.ld(r(draw(st.integers(0, 7))), ea=draw(_EA))
        elif kind == "st":
            builder.st(r(draw(st.integers(0, 7))), ea=draw(_EA))
        elif kind == "dvload3":
            builder.dvload3(d3(draw(st.integers(0, 1))), ea=draw(_EA),
                            stride=draw(_STRIDE),
                            wwords=draw(st.integers(1, 16)),
                            back=draw(st.booleans()))
        elif kind == "dvmov3":
            builder.dvmov3(v(draw(st.integers(0, 15))),
                           d3(draw(st.integers(0, 1))),
                           pstride=draw(st.integers(-64, 64)))
        elif kind == "setvl":
            builder.setvl(draw(st.integers(1, 16)))
        elif kind == "branch":
            builder.branch()
        else:  # acc
            a = acc(draw(st.integers(0, 1)))
            if draw(st.booleans()):
                builder.clracc(a)
            else:
                builder.vpsadacc(a, v(draw(st.integers(0, 15))),
                                 v(draw(st.integers(0, 15))))
    return builder.program


@given(program=_programs(),
       memsys_name=st.sampled_from(("ideal", "vector", "multibank")),
       l2_latency=st.sampled_from((5, 20, 60)),
       warm=st.booleans())
@settings(deadline=None, max_examples=60)
def test_batched_matches_reference_on_random_programs(
        program, memsys_name, l2_latency, warm):
    spec = RunSpec(benchmark="gsm_encode", coding="mom3d",
                   memsys=memsys_name, l2_latency=l2_latency)
    proc, memsys = build_configs(spec)
    reference = simulate(program, proc, memsys, warm=warm,
                         model="reference")
    batched = simulate(program, proc, memsys, warm=warm, model="batched")
    assert batched.to_dict() == reference.to_dict(), \
        batched.diff(reference)


@given(program=_programs(), warm=st.booleans())
@settings(deadline=None, max_examples=30)
def test_batched_matches_reference_on_mmx(program, warm):
    """The MMX routing (all media through the L1) agrees as well."""
    program = Program([inst for inst in program
                       if inst.op not in (Opcode.DVLOAD3, Opcode.DVMOV3)],
                      name=program.name)
    spec = RunSpec(benchmark="gsm_encode", coding="mmx",
                   memsys="multibank")
    proc, memsys = build_configs(spec)
    reference = simulate(program, proc, memsys, warm=warm,
                         model="reference")
    batched = simulate(program, proc, memsys, warm=warm, model="batched")
    assert batched.to_dict() == reference.to_dict(), \
        batched.diff(reference)


def _naive_touch_sequence(ea, count, stride, width, line_bytes):
    """The double loop ``touch_sequence`` replaced: element k's lines
    ascending, consecutive duplicates collapsed."""
    naive = []
    for k in range(count):
        addr = ea + k * stride
        first = addr - addr % line_bytes
        last = (addr + width - 1) - (addr + width - 1) % line_bytes
        current = first
        while current <= last:
            if not naive or naive[-1] != current:
                naive.append(current)
            current += line_bytes
    return naive


@given(ea=st.integers(0, 1 << 20),
       count=st.integers(0, 24),
       stride=st.integers(-512, 1024),
       width=st.sampled_from((8, 16, 24, 64, 128)),
       line_bytes=st.sampled_from((32, 64, 128)))
@settings(deadline=None, max_examples=300)
def test_touch_sequence_matches_naive_double_loop(ea, count, stride,
                                                  width, line_bytes):
    assert touch_sequence(ea, count, stride, width, line_bytes) == \
        _naive_touch_sequence(ea, count, stride, width, line_bytes)
