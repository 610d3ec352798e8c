"""Register architecture of the MOM + 3D extension ISA.

The register classes follow the paper's Table 3:

* 32 scalar integer registers (``r0``..``r31``),
* 16 logical 2D vector (MOM) registers of 16 x 64-bit elements
  (``v0``..``v15``) — the same file serves the MMX-style configuration,
  where only element 0 of each register is used,
* 2 logical 192-bit accumulator registers (``acc0``, ``acc1``),
* 2 logical 3D vector registers of 16 elements x 128 bytes
  (``d0``, ``d1``), each with an associated 7-bit pointer register,
* the Vector Length (``vl``) and Vector Stride (``vs``) control
  registers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import IsaError

#: MOM register geometry: number of 64-bit elements per 2D register.
MOM_ELEMS = 16
#: Bytes per MOM register element.
MOM_ELEM_BYTES = 8
#: 3D register geometry: number of elements per 3D register.
D3_ELEMS = 16
#: Bytes per 3D register element (one L2 cache line).
D3_ELEM_BYTES = 128
#: Width, in bits, of a 3D pointer register (addresses 0..127 bytes).
D3_POINTER_BITS = 7
#: Accumulator width in bits (sized for 8 x 24-bit partial SADs).
ACC_BITS = 192


class RegClass(enum.Enum):
    """Architectural register classes."""

    SCALAR = "r"
    VECTOR = "v"
    ACC = "acc"
    VEC3D = "d"
    CONTROL = "c"


#: Number of architectural (logical) registers per class.
LOGICAL_COUNTS = {
    RegClass.SCALAR: 32,
    RegClass.VECTOR: 16,
    RegClass.ACC: 2,
    RegClass.VEC3D: 2,
    RegClass.CONTROL: 2,  # vl, vs
}

#: Dense register ids: ``1 + class_code * _REGS_PER_CLASS + index``.
#: Programs store operands as these ids (see
#: :class:`repro.isa.instructions.Program`) and the timing model's
#: scoreboard is indexed by them; id 0 is reserved as "no register".
_REGS_PER_CLASS = 32
_CLASS_CODE = {cls: code for code, cls in enumerate(RegClass)}
#: one past the largest register id
REG_ID_LIMIT = 1 + len(_CLASS_CODE) * _REGS_PER_CLASS


@dataclass(frozen=True)
class Register:
    """A named architectural register (class + index)."""

    cls: RegClass
    index: int
    #: dense register id (derived from class and index)
    rid: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        limit = LOGICAL_COUNTS[self.cls]
        if not 0 <= self.index < limit:
            raise IsaError(
                f"register index {self.index} out of range for class "
                f"{self.cls.value} (0..{limit - 1})"
            )
        object.__setattr__(self, "rid", 1 + _CLASS_CODE[self.cls]
                           * _REGS_PER_CLASS + self.index)

    def __repr__(self) -> str:
        if self.cls is RegClass.CONTROL:
            return ("vl", "vs")[self.index]
        return f"{self.cls.value}{self.index}"


#: Interned register instances: every ``r(i)``/``v(i)``/... call for a
#: valid index returns the same object.  Registers are frozen value
#: objects, so sharing is safe; it saves an allocation per operand in
#: the trace builders, and instruction views map a dense id back to
#: its one register object (:data:`REGISTER_OF_ID`).
_INTERNED: dict[RegClass, tuple[Register, ...]] = {
    cls: tuple(Register(cls, i) for i in range(count))
    for cls, count in LOGICAL_COUNTS.items()
}


#: interned register of every dense id (None for unused ids)
REGISTER_OF_ID: list[Register | None] = [None] * REG_ID_LIMIT
for _regs in _INTERNED.values():
    for _reg in _regs:
        REGISTER_OF_ID[_reg.rid] = _reg

_SCALARS = _INTERNED[RegClass.SCALAR]
_VECTORS = _INTERNED[RegClass.VECTOR]
_ACCS = _INTERNED[RegClass.ACC]
_D3S = _INTERNED[RegClass.VEC3D]

# Each constructor indexes its class's table directly.  Negative,
# out-of-range and non-int indexes fall through to ``Register``, which
# validates them (a negative index must not wrap around the table).


def r(index: int) -> Register:
    """Scalar integer register ``r{index}``."""
    try:
        if index >= 0:
            return _SCALARS[index]
    except (IndexError, TypeError):
        pass
    return Register(RegClass.SCALAR, index)


def v(index: int) -> Register:
    """2D vector (MOM) register ``v{index}``."""
    try:
        if index >= 0:
            return _VECTORS[index]
    except (IndexError, TypeError):
        pass
    return Register(RegClass.VECTOR, index)


def acc(index: int) -> Register:
    """Accumulator register ``acc{index}``."""
    try:
        if index >= 0:
            return _ACCS[index]
    except (IndexError, TypeError):
        pass
    return Register(RegClass.ACC, index)


def d3(index: int) -> Register:
    """3D vector register ``d{index}``."""
    try:
        if index >= 0:
            return _D3S[index]
    except (IndexError, TypeError):
        pass
    return Register(RegClass.VEC3D, index)


#: The Vector Length control register.
VL = _INTERNED[RegClass.CONTROL][0]
#: The Vector Stride control register.
VS = _INTERNED[RegClass.CONTROL][1]
