"""The trace-level instruction record and the columnar program container.

The simulator is trace driven, mirroring the paper's ATOM-based
methodology: workload generators emit the *dynamic* instruction stream
(loops fully unrolled along the executed path), and memory instructions
carry their concrete effective addresses.  Register names are still
recorded so the timing model can track true data dependences.

A :class:`Program` stores its trace as struct-of-arrays: one growable
column per instruction field (``op``, ``dst_ids``/``src_ids`` as dense
register ids, ``imm``, ``etype``, ``vl``, ``ea``, ``stride``,
``wwords``, ``back``, ``pstride``, ``tag``), the paper's dense-vector
layout applied to the trace.  The hot consumers -- loop verification
(:mod:`repro.compiler.pipeline`) and pre-decode
(:mod:`repro.timing.predecode`) -- read the columns directly.  An
:class:`Instruction` is an immutable *view* of one row, created only
when asked for (``program[i]``, iteration, ``program.instructions``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import IsaError
from repro.isa.datatypes import ElemType
from repro.isa.opcodes import EXEC_CLASS, MEMORY_OPS, ExecClass, Opcode
from repro.isa.registers import REGISTER_OF_ID, Register

# Per-opcode validation requirements, checked in this order.
_NEEDS_EA = 1  # memory op: effective address
_NEEDS_STRIDE = 2  # strided vector memory op: stride and 1 <= vl <= 16
_NEEDS_WWORDS = 4  # dvload3: element width 1..16 words
_NEEDS_PSTRIDE = 8  # dvmov3: pointer stride

# The per-instruction lookups key these tables by ``id(op)``: enum
# members are singletons, and hashing an int is several times cheaper
# than the Python-level ``Enum.__hash__``.
CHECKS_ID = {
    id(op): ((_NEEDS_EA if op in MEMORY_OPS else 0)
             | (_NEEDS_STRIDE if op in (Opcode.VLD, Opcode.VST,
                                        Opcode.DVLOAD3) else 0)
             | (_NEEDS_WWORDS if op is Opcode.DVLOAD3 else 0)
             | (_NEEDS_PSTRIDE if op is Opcode.DVMOV3 else 0))
    for op in Opcode}
_MEMORY_ID = frozenset(id(op) for op in MEMORY_OPS)
_EXEC_CLASS_ID = {id(op): cls for op, cls in EXEC_CLASS.items()}


def check_fields(op: Opcode, vl: int, ea, stride, wwords,
                 pstride) -> None:
    """Raise :class:`IsaError` if ``op`` lacks a field it requires.

    The one validation rule for every way into a trace: the builder,
    :meth:`Program.append` and :meth:`Instruction.validate` all call
    it (the builder only for opcodes with a nonzero ``CHECKS_ID``).
    """
    checks = CHECKS_ID.get(id(op), 0)
    if checks & _NEEDS_EA and ea is None:
        raise IsaError(f"{op.value}: memory op requires ea")
    if checks & _NEEDS_STRIDE:
        if stride is None:
            raise IsaError(f"{op.value}: requires stride")
        if not 1 <= vl <= 16:
            raise IsaError(f"{op.value}: vl must be 1..16")
    if checks & _NEEDS_WWORDS:
        if wwords is None or not 1 <= wwords <= 16:
            raise IsaError("dvload3: wwords must be 1..16")
    if checks & _NEEDS_PSTRIDE and pstride is None:
        raise IsaError("dvmov3: requires pstride")


@dataclass(frozen=True, slots=True)
class Instruction:
    """One dynamic instruction.

    Fields that do not apply to a given opcode are left at their
    defaults; :meth:`validate` enforces the per-opcode requirements.
    Built traces do not hold these records: :class:`Program` creates
    one per row on request.

    Attributes:
        op: The opcode.
        dsts: Destination registers (written).
        srcs: Source registers (read).
        imm: Immediate operand (LI/ADDI/shift counts/lane index/64-bit
            broadcast pattern).
        etype: Packed element type for uSIMD operations.
        vl: Vector length at trace time (1 for scalar and MMX-mode ops).
        ea: Effective address for memory operations.
        stride: Byte stride between vector elements (VLD/VST/DVLOAD3).
        wwords: DVLOAD3 element width in 64-bit words (1..16).
        back: DVLOAD3 flag -- initialize the 3D pointer at the *end* of
            the element (for walking the third dimension backwards).
        pstride: DVMOV3 signed pointer stride in bytes.
        tag: Optional kernel label used for statistics attribution.
    """

    op: Opcode
    dsts: tuple[Register, ...] = ()
    srcs: tuple[Register, ...] = ()
    imm: int | None = None
    etype: ElemType | None = None
    vl: int = 1
    ea: int | None = None
    stride: int | None = None
    wwords: int | None = None
    back: bool = False
    pstride: int | None = None
    tag: str = ""

    @property
    def exec_class(self) -> ExecClass:
        """Pipeline resource class for this instruction."""
        return _EXEC_CLASS_ID[id(self.op)]

    @property
    def is_memory(self) -> bool:
        """True if the instruction touches simulated memory."""
        return id(self.op) in _MEMORY_ID

    def validate(self) -> None:
        """Raise :class:`IsaError` if required fields are missing."""
        check_fields(self.op, self.vl, self.ea, self.stride, self.wwords,
                     self.pstride)

    def __repr__(self) -> str:
        parts = [self.op.value]
        if self.dsts:
            parts.append(",".join(map(repr, self.dsts)))
        if self.srcs:
            parts.append(",".join(map(repr, self.srcs)))
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.ea is not None:
            parts.append(f"@{self.ea:#x}")
        if self.stride is not None:
            parts.append(f"s={self.stride}")
        if self.vl != 1:
            parts.append(f"vl={self.vl}")
        return " ".join(parts)


#: The columns of a :class:`Program`, in :class:`Instruction` field
#: order (registers as dense id tuples).
COLUMNS = ("op", "dst_ids", "src_ids", "imm", "etype", "vl", "ea",
           "stride", "wwords", "back", "pstride", "tag")


def register_ids(regs) -> tuple[int, ...]:
    """Dense ids of a register tuple (see ``Register.rid``)."""
    return tuple([reg.rid for reg in regs])


class Program:
    """A dynamic instruction trace, stored as columns.

    Column ``c`` holds field ``c`` of every instruction in trace order
    (see :data:`COLUMNS`); ``dst_ids``/``src_ids`` hold tuples of dense
    register ids.  Rows are appended, and every way in validates
    first, so a rejected row leaves all columns untouched; only
    :meth:`set_registers` changes a row in place.
    """

    def __init__(self, instructions=(), name: str = ""):
        #: Human-readable name (workload + coding), used in reports.
        self.name = name
        #: Mutation counter: bumped once per appended row (and once by
        #: a pass that rewrites rows in place) so per-program memos
        #: (the timing layer's pre-decode cache) can detect that a
        #: trace changed after it was lowered.
        self.version = 0
        #: Raw loop-iteration boundary marks recorded by the builder:
        #: ``(iteration_start_indices, end_index)`` per marked loop.
        #: The compiler pass (:mod:`repro.compiler.pipeline`) verifies
        #: them and publishes the verified subset as :attr:`loops`.
        self.loop_marks: list = []
        #: Verified :class:`repro.compiler.loopnest.LoopSignature`
        #: records, sorted by start (outer loops before the inner loops
        #: they contain).  The trace consumer (periodized pre-decode)
        #: treats an empty list as "no periodic structure declared".
        self.loops: list = []
        self.op: list[Opcode] = []
        self.dst_ids: list[tuple[int, ...]] = []
        self.src_ids: list[tuple[int, ...]] = []
        self.imm: list[int | None] = []
        self.etype: list[ElemType | None] = []
        self.vl: list[int] = []
        self.ea: list[int | None] = []
        self.stride: list[int | None] = []
        self.wwords: list[int | None] = []
        self.back: list[bool] = []
        self.pstride: list[int | None] = []
        self.tag: list[str] = []
        self.extend(instructions)

    def append_row(self, op, dst_ids, src_ids, imm, etype, vl, ea,
                   stride, wwords, back, pstride, tag) -> None:
        """Append one already validated row (the builder's path)."""
        self.op.append(op)
        self.dst_ids.append(dst_ids)
        self.src_ids.append(src_ids)
        self.imm.append(imm)
        self.etype.append(etype)
        self.vl.append(vl)
        self.ea.append(ea)
        self.stride.append(stride)
        self.wwords.append(wwords)
        self.back.append(back)
        self.pstride.append(pstride)
        self.tag.append(tag)
        self.version += 1

    def append(self, inst: Instruction) -> None:
        """Validate one instruction and append it as a row."""
        inst.validate()
        self.append_row(inst.op, register_ids(inst.dsts),
                        register_ids(inst.srcs), inst.imm, inst.etype,
                        inst.vl, inst.ea, inst.stride, inst.wwords,
                        inst.back, inst.pstride, inst.tag)

    def extend(self, insts) -> None:
        """Validate and append several instructions."""
        for inst in insts:
            self.append(inst)

    def set_registers(self, index: int, dsts, srcs) -> None:
        """Rewrite the operand registers of row ``index`` in place.

        Does not bump :attr:`version`; a rewriting pass bumps it once
        when it is done.
        """
        self.dst_ids[index] = register_ids(dsts)
        self.src_ids[index] = register_ids(srcs)

    def __len__(self) -> int:
        return len(self.op)

    def __getitem__(self, index: int) -> Instruction:
        if index < 0:
            index += len(self.op)
        if not 0 <= index < len(self.op):
            raise IndexError("program index out of range")
        regs = REGISTER_OF_ID
        return Instruction(
            self.op[index], tuple([regs[x] for x in self.dst_ids[index]]),
            tuple([regs[x] for x in self.src_ids[index]]),
            self.imm[index], self.etype[index], self.vl[index],
            self.ea[index], self.stride[index], self.wwords[index],
            self.back[index], self.pstride[index], self.tag[index])

    def __iter__(self):
        return map(self.__getitem__, range(len(self.op)))

    @property
    def instructions(self) -> "InstructionsView":
        """Read-only sequence of :class:`Instruction` views."""
        return InstructionsView(self)

    def columns(self) -> tuple[list, ...]:
        """Every column, in :data:`COLUMNS` order."""
        return tuple(getattr(self, name) for name in COLUMNS)

    def count_by_class(self) -> dict[ExecClass, int]:
        """Histogram of instructions per pipeline class."""
        hist: dict[ExecClass, int] = {}
        for op in self.op:
            cls = _EXEC_CLASS_ID[id(op)]
            hist[cls] = hist.get(cls, 0) + 1
        return hist

    def __eq__(self, other) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self.name == other.name and self.columns() == other.columns()

    __hash__ = None

    def __repr__(self) -> str:
        return f"Program(name={self.name!r}, instructions={len(self)})"


class InstructionsView(Sequence):
    """``program.instructions``: the rows of a program as
    :class:`Instruction` views (read-only; slices are lists)."""

    __slots__ = ("_program",)

    def __init__(self, program: Program):
        self._program = program

    def __len__(self) -> int:
        return len(self._program)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._program[i]
                    for i in range(*index.indices(len(self._program)))]
        return self._program[index]

    def __iter__(self):
        return iter(self._program)

    def __eq__(self, other) -> bool:
        if isinstance(other, InstructionsView):
            return self._program.columns() == other._program.columns()
        if isinstance(other, Sequence) and not isinstance(other, str):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"<{len(self)} instructions of {self._program!r}>"
