"""Microbenchmark loop builder tests."""

import random
from itertools import cycle

import pytest

from repro.errors import GenerationError
from repro.isa.operands import OperandKind
from repro.mbench.loops import (
    EPI_REPETITIONS,
    build_epi_loop,
    build_sequence_loop,
    find_loop_branch,
)


class TestEpiLoop:
    def test_paper_skeleton_shape(self, isa):
        program = build_epi_loop(isa, isa["CIB"])
        # 4000 repetitions + the loop-closing branch.
        assert len(program.loop_body) == EPI_REPETITIONS + 1
        assert program.trip_count is None  # endless loop

    def test_custom_repetitions(self, isa):
        program = build_epi_loop(isa, isa["CIB"], repetitions=50)
        assert len(program.loop_body) == 51

    def test_loop_closes_with_branch(self, isa):
        program = build_epi_loop(isa, isa["ADTR"], repetitions=10)
        assert program.loop_body[-1].definition.ends_group

    def test_no_dependencies_between_repetitions(self, isa):
        """Adjacent repetitions never write-read the same register."""
        program = build_epi_loop(isa, isa["CIB"], repetitions=30)
        # CIB reads two sources; check consecutive instances differ in
        # operand values where written operands exist.
        fixed_inst = next(
            inst for inst in isa if any(o.is_written for o in inst.operands)
        )
        program = build_epi_loop(isa, fixed_inst, repetitions=30)
        written_idx = [
            k for k, op in enumerate(fixed_inst.operands) if op.is_written
        ]
        for a, b in zip(program.loop_body[:-2], program.loop_body[1:-1]):
            for k in written_idx:
                read_ops = [
                    b.operand_values[j]
                    for j, op in enumerate(fixed_inst.operands)
                    if not op.is_written
                ]
                assert a.operand_values[k] not in read_ops

    def test_zero_repetitions_rejected(self, isa):
        with pytest.raises(GenerationError):
            build_epi_loop(isa, isa["CIB"], repetitions=0)


class TestSequenceLoop:
    def test_unrolling(self, isa):
        seq = (isa["CIB"], isa["CHHSI"])
        program = build_sequence_loop(isa, seq, unroll=5)
        assert len(program.loop_body) == 11  # 2*5 + branch

    def test_no_branch_variant(self, isa):
        program = build_sequence_loop(
            isa, (isa["SRNM"],), close_with_branch=False
        )
        assert len(program.loop_body) == 1

    def test_loop_definitions_view(self, isa):
        seq = (isa["CIB"],)
        program = build_sequence_loop(isa, seq, unroll=2)
        mnemonics = [d.mnemonic for d in program.loop_definitions]
        assert mnemonics[:2] == ["CIB", "CIB"]

    def test_empty_sequence_rejected(self, isa):
        with pytest.raises(GenerationError):
            build_sequence_loop(isa, ())

    def test_bad_unroll_rejected(self, isa):
        with pytest.raises(GenerationError):
            build_sequence_loop(isa, (isa["CIB"],), unroll=0)


class TestLoopBranchSelection:
    def test_prefers_branch_on_count(self, isa):
        branch = find_loop_branch(isa)
        assert branch.ends_group
        assert branch.mnemonic in ("BCT", "BCTG", "BRC", "J")

    def test_deterministic(self, isa):
        assert find_loop_branch(isa).mnemonic == find_loop_branch(isa).mnemonic


# -- exactness against a naive renderer ---------------------------------

def naive_renderer():
    """Render one instruction at a time, cycling every operand pool: the
    rotation the builders must reproduce element for element."""
    registers = {
        (OperandKind.GPR, True): cycle([f"r{i}" for i in range(4, 10)]),
        (OperandKind.GPR, False): cycle([f"r{i}" for i in range(10, 14)]),
        (OperandKind.FPR, True): cycle([f"f{i}" for i in range(4, 10)]),
        (OperandKind.FPR, False): cycle([f"f{i}" for i in range(10, 14)]),
        (OperandKind.VR, True): cycle([f"v{i}" for i in range(4, 10)]),
        (OperandKind.VR, False): cycle([f"v{i}" for i in range(10, 14)]),
    }
    memory = cycle([f"{disp}(r2)" for disp in range(0, 4096, 256)])

    def render(definition):
        values = []
        for operand in definition.operands:
            if operand.kind is OperandKind.IMMEDIATE:
                values.append("7")
            elif operand.kind is OperandKind.LABEL:
                values.append("fallthrough")
            elif operand.kind is OperandKind.MEMORY:
                values.append(next(memory))
            else:
                values.append(next(registers[operand.kind, operand.is_written]))
        return tuple(values)

    return render


def naive_elements(sequence, passes):
    render = naive_renderer()
    return [(d, render(d)) for _ in range(passes) for d in sequence]


def elements(program):
    return [(inst.definition, inst.operand_values) for inst in program.loop_body]


def closing_element(isa, label):
    branch = find_loop_branch(isa)
    return (branch, tuple(
        label if op.kind is OperandKind.LABEL else "r3" for op in branch.operands
    ))


class TestExactRendering:
    @pytest.mark.parametrize("repetitions", [1, 2, 7, 47, 48, 49, 400])
    def test_epi_loops_match_naive_rendering(self, isa, repetitions):
        # The naive rendering depends on the operand signature alone,
        # so it is derived once per signature.
        by_signature = {}
        for definition in isa:
            signature = tuple((op.kind, op.is_written) for op in definition.operands)
            if signature not in by_signature:
                by_signature[signature] = [
                    values for _, values in naive_elements((definition,), repetitions)
                ]
            expected = [(definition, values) for values in by_signature[signature]]
            expected.append(
                closing_element(isa, f"epi_{definition.mnemonic.lower()}")
            )
            program = build_epi_loop(isa, definition, repetitions=repetitions)
            assert elements(program) == expected, definition.mnemonic

    @pytest.mark.parametrize("unroll", [1, 3, 21])
    def test_sequence_loops_match_naive_rendering(self, isa, unroll):
        rng = random.Random(20140613 + unroll)
        definitions = list(isa)
        for _ in range(400):
            sequence = tuple(rng.choice(definitions) for _ in range(rng.randint(1, 8)))
            expected = naive_elements(sequence, unroll)
            open_loop = build_sequence_loop(
                isa, sequence, unroll=unroll, close_with_branch=False
            )
            assert elements(open_loop) == expected
            closed = build_sequence_loop(isa, sequence, unroll=unroll)
            assert elements(closed) == expected + [closing_element(isa, "seq_loop")]

    def test_stressmark_shaped_sequences_match_naive_rendering(self, isa):
        """Long single-pass sequences made of repeated phases (the
        stressmark builder's shape)."""
        high = (isa["VERLLQ"], isa["VERLLQ"], isa["CIB"], isa["AXBR2"])
        low = (isa["CIB"], isa["LG"])
        for high_reps, low_reps in [(1, 1), (5, 64), (64, 3), (64, 64)]:
            sequence = list(high) * high_reps + list(low) * low_reps
            program = build_sequence_loop(isa, sequence, unroll=1)
            assert elements(program) == naive_elements(sequence, 1) + [
                closing_element(isa, "seq_loop")
            ]
