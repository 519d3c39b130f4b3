"""Unit tests for the kernel trace IR."""

import pytest

from repro.trace.trace import (
    CTATrace,
    KernelTrace,
    OP_ALU,
    OP_BAR,
    OP_LOAD,
    OP_SMEM,
    OP_STORE,
    instruction_count,
)


def simple_kernel(programs):
    return KernelTrace(name="t", ctas=[CTATrace(warps=[list(p) for p in programs])])


class TestCounting:
    def test_alu_groups_count_each_instruction(self):
        program = [(OP_ALU, 5), (OP_LOAD, (0,)), (OP_SMEM, 3)]
        assert instruction_count(program) == 9

    def test_kernel_totals(self):
        kernel = simple_kernel([[(OP_ALU, 2)], [(OP_LOAD, (0,)), (OP_STORE, (0,))]])
        assert kernel.instruction_count() == 4
        assert kernel.memory_access_count() == 2

    def test_cta_and_warp_counts(self):
        kernel = simple_kernel([[(OP_ALU, 1)]] * 3)
        assert kernel.num_ctas == 1
        assert kernel.ctas[0].num_warps == 3

    def test_iter_warp_programs(self):
        kernel = simple_kernel([[(OP_ALU, 1)], [(OP_ALU, 2)]])
        assert len(list(kernel.iter_warp_programs())) == 2


class TestValidation:
    def test_valid_kernel_passes(self):
        kernel = simple_kernel([[(OP_ALU, 1), (OP_LOAD, (0, 128)), (OP_BAR, 0)]])
        kernel.validate()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="no CTAs"):
            KernelTrace(name="t", ctas=[]).validate()

    def test_empty_cta_rejected(self):
        with pytest.raises(ValueError, match="no warps"):
            KernelTrace(name="t", ctas=[CTATrace(warps=[])]).validate()

    def test_bad_alu_count(self):
        with pytest.raises(ValueError, match="positive int"):
            simple_kernel([[(OP_ALU, 0)]]).validate()

    def test_memory_op_needs_addresses(self):
        with pytest.raises(ValueError, match="lane addresses"):
            simple_kernel([[(OP_LOAD, ())]]).validate()

    def test_too_many_lanes(self):
        with pytest.raises(ValueError, match="lane addresses"):
            simple_kernel([[(OP_LOAD, tuple(range(33)))]]).validate()

    def test_unknown_opcode(self):
        with pytest.raises(ValueError, match="unknown opcode"):
            simple_kernel([[(99, 0)]]).validate()

    def test_validate_counts_instructions(self):
        programs = [
            [(OP_ALU, 3), (OP_LOAD, (0, 128)), (OP_SMEM, 2), (OP_BAR, 0)],
            [(OP_STORE, (0,)), (OP_ALU, 1)],
        ]
        kernel = simple_kernel(programs)
        kernel.validate()
        assert kernel.__dict__["_instruction_count"] == 9
        assert kernel.instruction_count() == sum(
            instruction_count(p) for p in programs
        )

    def test_failed_validation_caches_no_count(self):
        kernel = simple_kernel([[(OP_ALU, 2), (OP_ALU, 0)]])
        with pytest.raises(ValueError):
            kernel.validate()
        assert "_instruction_count" not in kernel.__dict__

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((OP_SMEM, 1.5), "ALU/SMEM count must be a positive int, got 1.5"),
            ((OP_STORE, tuple(range(33))),
             "memory op needs 1..32 lane addresses"),
            ((7, 0), "unknown opcode 7"),
        ],
    )
    def test_error_names_the_first_bad_instruction(self, bad, message):
        good = [(OP_ALU, 1), (OP_LOAD, (0,))]
        kernel = KernelTrace(name="k", ctas=[
            CTATrace(warps=[list(good)]),
            CTATrace(warps=[list(good), good + [bad, (99, 0)]]),
        ])
        with pytest.raises(ValueError) as err:
            kernel.validate()
        assert str(err.value) == f"k cta1 warp1 instr2: {message}"
