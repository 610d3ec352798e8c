"""Unit tests for the register architecture."""

import pytest

from repro.errors import IsaError
from repro.isa import RegClass, Register, VL, VS, acc, d3, r, v


def test_scalar_constructor():
    reg = r(5)
    assert reg.cls is RegClass.SCALAR
    assert reg.index == 5
    assert repr(reg) == "r5"


def test_vector_constructor():
    assert repr(v(15)) == "v15"
    assert v(0).cls is RegClass.VECTOR


def test_acc_and_3d_constructors():
    assert repr(acc(1)) == "acc1"
    assert repr(d3(0)) == "d0"


def test_control_registers():
    assert repr(VL) == "vl"
    assert repr(VS) == "vs"


@pytest.mark.parametrize("ctor,bad", [(r, 32), (v, 16), (acc, 2), (d3, 2)])
def test_out_of_range_indices_rejected(ctor, bad):
    with pytest.raises(IsaError):
        ctor(bad)


@pytest.mark.parametrize("ctor", [r, v, acc, d3])
def test_negative_indices_rejected(ctor):
    with pytest.raises(IsaError):
        ctor(-1)


def test_registers_hashable_and_equal():
    assert r(3) == Register(RegClass.SCALAR, 3)
    assert len({v(1), v(1), v(2)}) == 2


@pytest.mark.parametrize("ctor,bad,message", [
    (r, -1, "register index -1 out of range for class r (0..31)"),
    (v, 16, "register index 16 out of range for class v (0..15)"),
    (acc, 2, "register index 2 out of range for class acc (0..1)"),
    (d3, -3, "register index -3 out of range for class d (0..1)"),
])
def test_out_of_range_messages(ctor, bad, message):
    with pytest.raises(IsaError) as info:
        ctor(bad)
    assert str(info.value) == message


@pytest.mark.parametrize("ctor,cls", [(r, RegClass.SCALAR),
                                      (v, RegClass.VECTOR),
                                      (acc, RegClass.ACC),
                                      (d3, RegClass.VEC3D)])
def test_constructors_intern_valid_indexes(ctor, cls):
    for index in range(2):
        assert ctor(index) is ctor(index)
        assert ctor(index) == Register(cls, index)
    assert ctor(True) is ctor(1)  # bool is an int


def test_non_int_index_takes_the_constructor_path():
    with pytest.raises(TypeError):
        r("a")
    with pytest.raises(TypeError):
        v(None)
    odd = r(2.5)
    assert odd == Register(RegClass.SCALAR, 2.5) and repr(odd) == "r2.5"
