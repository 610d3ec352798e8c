"""Unit tests for instruction construction, validation and the builder."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import IsaError
from repro.isa import (
    ElemType,
    ExecClass,
    Instruction,
    Opcode,
    Program,
    ProgramBuilder,
    acc,
    r,
    v,
    d3,
)
from repro.isa.registers import Register


def test_memory_instruction_requires_ea():
    inst = Instruction(op=Opcode.VLD, dsts=(v(0),), stride=8, vl=4)
    with pytest.raises(IsaError):
        inst.validate()


def test_vld_requires_stride():
    inst = Instruction(op=Opcode.VLD, dsts=(v(0),), ea=0x100, vl=4)
    with pytest.raises(IsaError):
        inst.validate()


def test_dvload3_wwords_range():
    bad = Instruction(op=Opcode.DVLOAD3, dsts=(d3(0),), ea=0, stride=8,
                      vl=4, wwords=17)
    with pytest.raises(IsaError):
        bad.validate()
    good = Instruction(op=Opcode.DVLOAD3, dsts=(d3(0),), ea=0, stride=8,
                       vl=4, wwords=16)
    good.validate()


def test_dvmov3_requires_pstride():
    inst = Instruction(op=Opcode.DVMOV3, dsts=(v(0),), srcs=(d3(0),), vl=4)
    with pytest.raises(IsaError):
        inst.validate()


def test_exec_class_mapping():
    assert Instruction(op=Opcode.ADD).exec_class is ExecClass.INT
    assert Instruction(op=Opcode.PADDB).exec_class is ExecClass.SIMD
    assert Instruction(op=Opcode.VLD).exec_class is ExecClass.VMEM
    assert Instruction(op=Opcode.DVLOAD3).exec_class is ExecClass.V3DLOAD
    assert Instruction(op=Opcode.DVMOV3).exec_class is ExecClass.V3DMOVE


def test_builder_tracks_vl():
    b = ProgramBuilder("t")
    b.setvl(8)
    b.vld(v(0), ea=0x1000, stride=64)
    assert b.program.instructions[-1].vl == 8
    b.setvl(2)
    b.simd(Opcode.PADDB, v(1), v(0), v(0), etype=ElemType.U8)
    assert b.program.instructions[-1].vl == 2


def test_builder_setvl_range():
    b = ProgramBuilder()
    with pytest.raises(IsaError):
        b.setvl(0)
    with pytest.raises(IsaError):
        b.setvl(17)


def test_builder_tagging():
    b = ProgramBuilder()
    with b.tagged("kernel_a"):
        b.li(r(0), 1)
    b.li(r(1), 2)
    assert b.program.instructions[0].tag == "kernel_a"
    assert b.program.instructions[1].tag == ""


def test_builder_cmov_reads_dst():
    b = ProgramBuilder()
    b.cmov(r(2), r(0), r(1))
    inst = b.program.instructions[-1]
    assert r(2) in inst.srcs  # old value is an input


def test_program_count_by_class():
    b = ProgramBuilder()
    b.li(r(0), 1)
    b.setvl(4)
    b.vld(v(0), ea=0, stride=8)
    hist = b.program.count_by_class()
    assert hist[ExecClass.INT] == 1
    assert hist[ExecClass.VMEM] == 1


def test_program_append_validates():
    program = Program()
    with pytest.raises(IsaError):
        program.append(Instruction(op=Opcode.VLD, dsts=(v(0),), stride=8))


def test_accumulator_ops_read_accumulator():
    b = ProgramBuilder()
    b.setvl(4)
    b.vpsadacc(acc(0), v(0), v(1))
    inst = b.program.instructions[-1]
    assert acc(0) in inst.srcs and acc(0) in inst.dsts


# -- the record contract ------------------------------------------------------

_VLD = Instruction(op=Opcode.VLD, dsts=(v(0),), srcs=(r(1),), ea=0x100,
                   stride=8, vl=4, etype=ElemType.I16, tag="k")


def test_instruction_is_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        _VLD.ea = 0x200
    with pytest.raises(dataclasses.FrozenInstanceError):
        del _VLD.tag
    # no new attributes either (the error type is CPython's business)
    with pytest.raises((AttributeError, TypeError)):
        _VLD.extra = 1


def test_instruction_is_slotted():
    assert not hasattr(_VLD, "__dict__")


def test_instruction_equal_and_hashable_by_value():
    twin = Instruction(op=Opcode.VLD, dsts=(v(0),), srcs=(r(1),),
                       ea=0x100, stride=8, vl=4, etype=ElemType.I16,
                       tag="k")
    assert twin == _VLD and hash(twin) == hash(_VLD)
    assert twin != dataclasses.replace(_VLD, tag="")
    assert len({twin, _VLD, dataclasses.replace(_VLD, ea=0x108)}) == 2


def test_instruction_copies_and_pickles():
    for clone in (copy.copy(_VLD), copy.deepcopy(_VLD),
                  pickle.loads(pickle.dumps(_VLD))):
        assert clone == _VLD


@pytest.mark.parametrize("inst,text", [
    (_VLD, "vld v0 r1 @0x100 s=8 vl=4"),
    (Instruction(op=Opcode.LI, dsts=(r(3),), imm=-42), "li r3 #-42"),
    (Instruction(op=Opcode.NOP), "nop"),
])
def test_instruction_repr(inst, text):
    assert repr(inst) == text


@pytest.mark.parametrize("inst,message", [
    (Instruction(op=Opcode.LD, dsts=(r(0),)),
     "ld: memory op requires ea"),
    (Instruction(op=Opcode.ST, srcs=(r(0),)),
     "st: memory op requires ea"),
    # the ea check comes first
    (Instruction(op=Opcode.VLD, dsts=(v(0),), vl=4),
     "vld: memory op requires ea"),
    (Instruction(op=Opcode.VLD, dsts=(v(0),), ea=0, vl=4),
     "vld: requires stride"),
    (Instruction(op=Opcode.VST, srcs=(v(0),), ea=0, stride=8, vl=17),
     "vst: vl must be 1..16"),
    (Instruction(op=Opcode.VST, srcs=(v(0),), ea=0, stride=8, vl=0),
     "vst: vl must be 1..16"),
    (Instruction(op=Opcode.DVLOAD3, dsts=(d3(0),), ea=0, wwords=2),
     "dvload3: requires stride"),
    (Instruction(op=Opcode.DVLOAD3, dsts=(d3(0),), ea=0, stride=8),
     "dvload3: wwords must be 1..16"),
    (Instruction(op=Opcode.DVLOAD3, dsts=(d3(0),), ea=0, stride=8,
                 wwords=0),
     "dvload3: wwords must be 1..16"),
    (Instruction(op=Opcode.DVMOV3, dsts=(v(0),), srcs=(d3(0),)),
     "dvmov3: requires pstride"),
])
def test_validate_messages(inst, message):
    with pytest.raises(IsaError) as info:
        inst.validate()
    assert str(info.value) == message


def test_validate_accepts_every_other_opcode_bare():
    needs = {Opcode.LD, Opcode.ST, Opcode.VLD, Opcode.VST, Opcode.DVLOAD3,
             Opcode.DVMOV3}
    for op in Opcode:
        if op not in needs:
            Instruction(op=op).validate()


def test_memory_and_exec_class_flags_cover_every_opcode():
    memory = {Opcode.LD, Opcode.ST, Opcode.VLD, Opcode.VST, Opcode.DVLOAD3}
    for op in Opcode:
        inst = Instruction(op=op)
        assert inst.is_memory is (op in memory)
        assert isinstance(inst.exec_class, ExecClass)


# -- emit-time validation: builder and Program.append agree ------------------


def _program_lengths(program):
    return [len(column) for column in program.columns()]


@pytest.mark.parametrize("emit,inst,message", [
    (lambda b: b.ld(r(0), ea=None),
     Instruction(op=Opcode.LD, dsts=(r(0),)),
     "ld: memory op requires ea"),
    (lambda b: b.vld(v(0), ea=0x100, stride=None, vl=4),
     Instruction(op=Opcode.VLD, dsts=(v(0),), ea=0x100, vl=4),
     "vld: requires stride"),
    (lambda b: b.vst(v(0), ea=0, stride=8, vl=17),
     Instruction(op=Opcode.VST, srcs=(v(0),), ea=0, stride=8, vl=17),
     "vst: vl must be 1..16"),
    (lambda b: b.vld(v(0), ea=0, stride=8, vl=0),
     Instruction(op=Opcode.VLD, dsts=(v(0),), ea=0, stride=8, vl=0),
     "vld: vl must be 1..16"),
    (lambda b: b.dvload3(d3(0), ea=0, stride=8, wwords=17, vl=4),
     Instruction(op=Opcode.DVLOAD3, dsts=(d3(0),), ea=0, stride=8, vl=4,
                 wwords=17),
     "dvload3: wwords must be 1..16"),
    (lambda b: b.dvload3(d3(0), ea=0, stride=8, wwords=0, vl=4),
     Instruction(op=Opcode.DVLOAD3, dsts=(d3(0),), ea=0, stride=8, vl=4,
                 wwords=0),
     "dvload3: wwords must be 1..16"),
    (lambda b: b.dvmov3(v(0), d3(0), pstride=None, vl=4),
     Instruction(op=Opcode.DVMOV3, dsts=(v(0),), srcs=(d3(0),), vl=4),
     "dvmov3: requires pstride"),
])
def test_rejected_emit_is_loud_and_atomic(emit, inst, message):
    """The builder and ``Program.append`` reject a row with the message
    ``Instruction.validate`` gives (``test_validate_messages``), and
    write none of its columns."""
    b = ProgramBuilder()
    b.li(r(1), 7)
    before = _program_lengths(b.program)
    version = b.program.version
    with pytest.raises(IsaError) as info:
        emit(b)
    assert str(info.value) == message
    assert _program_lengths(b.program) == before == [1] * len(before)
    assert b.program.version == version

    program = Program([Instruction(op=Opcode.NOP)])
    with pytest.raises(IsaError) as info:
        program.append(inst)
    assert str(info.value) == message
    assert _program_lengths(program) == [1] * len(before)


# -- the columnar program and its views --------------------------------------


def test_program_views_round_trip_through_the_columns():
    insts = [_VLD,
             Instruction(op=Opcode.LI, dsts=(r(3),), imm=-42, tag="t"),
             Instruction(op=Opcode.DVLOAD3, dsts=(d3(1),), ea=0x40,
                         stride=-720, vl=8, wwords=3, back=True,
                         etype=ElemType.U8),
             Instruction(op=Opcode.DVMOV3, dsts=(v(2),), srcs=(d3(1),),
                         vl=8, pstride=-8),
             Instruction(op=Opcode.VPSADACC, dsts=(acc(1),),
                         srcs=(v(0), v(1), acc(1)), vl=4,
                         etype=ElemType.U8)]
    program = Program(insts, name="p")
    assert len(program) == len(insts) == program.version
    assert list(program) == insts
    assert program.instructions == insts
    assert program.instructions[1:3] == insts[1:3]
    assert program[-1] == insts[-1] == program.instructions[-1]
    assert program.dst_ids[0] == (v(0).rid,)
    assert program.ea[2] == 0x40
    with pytest.raises(IndexError):
        program[len(insts)]
    assert Program(insts, name="p") == program
    assert Program(insts[:-1], name="p") != program


def test_program_instructions_is_read_only():
    program = Program([_VLD])
    with pytest.raises(TypeError):
        program.instructions[0] = _VLD
    with pytest.raises(AttributeError):
        program.instructions = [_VLD]


def test_built_program_stores_no_instruction_objects():
    """A built trace is columns of plain values: no ``Instruction``
    (or ``Register``) object is held until a view is asked for."""
    b = ProgramBuilder()
    b.setvl(4)
    b.vld(v(0), ea=0x100, stride=8, base=r(2))
    b.simd(Opcode.PADDB, v(1), v(0), v(0), etype=ElemType.U8)
    held = [value for column in b.program.columns() for value in column]
    held += [x for ids in b.program.dst_ids + b.program.src_ids
             for x in ids]
    assert not any(isinstance(x, (Instruction, Register)) for x in held)
    assert b.program.src_ids[1] == (r(2).rid,)
    assert b.program[1].srcs == (r(2),)
