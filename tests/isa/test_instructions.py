"""Unit tests for instruction descriptors and the program DSL."""

import pytest

from repro.errors import IsaError, ProgramError
from repro.isa.instructions import (
    ATOMIC_KINDS,
    GSU_KINDS,
    Instr,
    Kind,
    MEMORY_KINDS,
)
from repro.isa.masks import Mask
from repro.isa.program import ThreadCtx, check_program


class TestInstrConstruction:
    def test_alu_count(self):
        assert Instr.alu(3).count == 3
        with pytest.raises(IsaError):
            Instr.alu(0)

    def test_valu_requires_callable(self):
        with pytest.raises(IsaError):
            Instr.valu("not callable")

    def test_load_store(self):
        load = Instr.load(0x100)
        assert load.kind is Kind.LOAD and load.addr == 0x100
        store = Instr.store(0x104, 7)
        assert store.value == 7

    def test_negative_address_rejected(self):
        with pytest.raises(IsaError):
            Instr.load(-4)

    def test_ll_sc_default_sync(self):
        assert Instr.ll(0x10).sync
        assert Instr.sc(0x10, 1).sync

    def test_vgather_defaults_full_mask(self):
        g = Instr.vgather(0x100, [0, 1, 2, 3])
        assert g.mask == Mask.all_ones(4)

    def test_vscatter_width_mismatch(self):
        with pytest.raises(IsaError):
            Instr.vscatter(0x100, [0, 1], [1.0])

    def test_vscattercond_mask_width_checked(self):
        with pytest.raises(IsaError):
            Instr.vscattercond(0x100, [0, 1], [1, 2], Mask.all_ones(3))

    def test_glsc_instructions_default_sync(self):
        gl = Instr.vgatherlink(0x100, [0, 1])
        sc = Instr.vscattercond(0x100, [0, 1], [5, 6])
        assert gl.sync and sc.sync

    def test_negative_index_rejected(self):
        with pytest.raises(IsaError):
            Instr.vgather(0x100, [0, -1])

    def test_empty_indices_rejected(self):
        with pytest.raises(IsaError):
            Instr.vgather(0x100, [])

    def test_barrier(self):
        b = Instr.barrier()
        assert b.kind is Kind.BARRIER and b.sync

    def test_repr_mentions_kind(self):
        assert "vgatherlink" in repr(Instr.vgatherlink(0x40, [0]))


def _fn():
    return 0


_M2 = Mask(0b10, 2)

#: One constructor call per kind with the record it must build, fields
#: in declaration order: kind, count, fn, addr, value, base, indices,
#: values, mask, sync.
_FIELDS = [
    (Instr.alu(3),
     (Kind.ALU, 3, None, None, None, None, None, None, None, False)),
    (Instr.valu(_fn, 2, sync=True),
     (Kind.VALU, 2, _fn, None, None, None, None, None, None, True)),
    (Instr.load(0x40),
     (Kind.LOAD, 1, None, 0x40, None, None, None, None, None, False)),
    (Instr.store(0x44, 7),
     (Kind.STORE, 1, None, 0x44, 7, None, None, None, None, False)),
    (Instr.ll(0x48),
     (Kind.LL, 1, None, 0x48, None, None, None, None, None, True)),
    (Instr.sc(0x48, 9),
     (Kind.SC, 1, None, 0x48, 9, None, None, None, None, True)),
    (Instr.vload(0x80, 4),
     (Kind.VLOAD, 4, None, 0x80, None, None, None, None, None, False)),
    (Instr.vstore(0x80, [1, 2], _M2),
     (Kind.VSTORE, 1, None, 0x80, None, None, None, (1, 2), _M2, False)),
    (Instr.vgather(0x100, [3, 4], _M2),
     (Kind.VGATHER, 1, None, None, None, 0x100, (3, 4), None, _M2, False)),
    (Instr.vscatter(0x100, [3, 4], [5, 6]),
     (Kind.VSCATTER, 1, None, None, None, 0x100, (3, 4), (5, 6),
      Mask.all_ones(2), False)),
    (Instr.vgatherlink(0x100, [3, 4]),
     (Kind.VGATHERLINK, 1, None, None, None, 0x100, (3, 4), None,
      Mask.all_ones(2), True)),
    (Instr.vscattercond(0x100, [3, 4], [5, 6], _M2),
     (Kind.VSCATTERCOND, 1, None, None, None, 0x100, (3, 4), (5, 6), _M2,
      True)),
    (Instr.barrier(),
     (Kind.BARRIER, 1, None, None, None, None, None, None, None, True)),
]


class TestInstrRecord:
    def test_one_constructor_per_kind(self):
        assert [instr.kind for instr, _ in _FIELDS] == list(Kind)

    @pytest.mark.parametrize(
        "instr,fields", _FIELDS, ids=[k.name for k in Kind]
    )
    def test_fields_in_order(self, instr, fields):
        assert type(instr) is Instr
        assert tuple(instr) == fields

    def test_fields_are_read_only(self):
        alu = Instr.alu()
        with pytest.raises(AttributeError):
            alu.count = 5
        with pytest.raises(AttributeError):
            Instr.load(64).addr = 128
        assert alu.count == 1
        assert Instr.alu() is alu

    def test_keyword_construction_defaults(self):
        barrier = Instr(Kind.BARRIER, sync=True)
        assert tuple(barrier) == tuple(Instr.barrier())


class TestKindSets:
    def test_gsu_kinds_are_memory_kinds(self):
        assert GSU_KINDS <= MEMORY_KINDS

    def test_atomic_kinds(self):
        assert Kind.LL in ATOMIC_KINDS
        assert Kind.VSCATTERCOND in ATOMIC_KINDS
        assert Kind.VGATHER not in ATOMIC_KINDS


class TestThreadCtx:
    def test_identity_validation(self):
        with pytest.raises(ProgramError):
            ThreadCtx(4, 4, 4)

    def test_masks(self):
        ctx = ThreadCtx(0, 1, 4)
        assert ctx.all_ones() == Mask.all_ones(4)
        assert ctx.zeros() == Mask.zeros(4)
        assert ctx.prefix_mask(2) == Mask(0b0011, 4)
        assert ctx.prefix_mask(99) == Mask.all_ones(4)
        assert ctx.prefix_mask(0) == Mask.zeros(4)

    def test_vload_uses_ctx_width(self):
        ctx = ThreadCtx(0, 1, 8)
        assert ctx.vload(0x100).count == 8

    def test_vgatherlink_builds_instr(self):
        ctx = ThreadCtx(0, 1, 2)
        instr = ctx.vgatherlink(0x100, [3, 5])
        assert instr.kind is Kind.VGATHERLINK
        assert instr.indices == (3, 5)

    def test_check_program_accepts_generator_fn(self):
        def prog(ctx):
            yield ctx.alu()

        check_program(prog)

    def test_check_program_rejects_non_callable(self):
        with pytest.raises(ProgramError):
            check_program(42)
