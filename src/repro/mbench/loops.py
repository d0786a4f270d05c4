"""Loop builders for generated microbenchmarks.

The EPI skeleton follows the paper exactly: "an endless loop with 4000
repetitions of the instruction, without dependencies".  Dependence
freedom is achieved by rotating destination registers through a pool
and reading from registers outside it.

Rotation is periodic: every pool advances by the same amount on each
pass over a loop's sequence, so each instruction's operands repeat
after at most ``lcm(6, 4, 16) = 48`` passes.  Builders render one
period and tile it, which yields exactly the body a pass-by-pass
renderer would (equal instances, element for element) at a fraction
of the cost.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..errors import GenerationError
from ..isa.instruction import InstructionDef
from ..isa.isa import Isa
from ..isa.operands import OperandKind
from .program import InstructionInstance, Program

__all__ = [
    "build_epi_loop",
    "build_sequence_loop",
    "find_loop_branch",
    "EPI_REPETITIONS",
]

#: Repetitions of the profiled instruction in an EPI microbenchmark.
EPI_REPETITIONS = 4000

#: Register pools: destinations rotate through the first pool, sources
#: read from the second, so no generated instruction depends on another.
_DEST_GPRS = [f"r{i}" for i in range(4, 10)]
_SRC_GPRS = [f"r{i}" for i in range(10, 14)]
_DEST_FPRS = [f"f{i}" for i in range(4, 10)]
_SRC_FPRS = [f"f{i}" for i in range(10, 14)]
_DEST_VRS = [f"v{i}" for i in range(4, 10)]
_SRC_VRS = [f"v{i}" for i in range(10, 14)]
_MEM_SLOTS = [f"{disp}(r2)" for disp in range(0, 4096, 256)]

#: Every rotating pool, indexed by position in this tuple.
_POOLS = (
    _DEST_GPRS, _SRC_GPRS, _DEST_FPRS, _SRC_FPRS, _DEST_VRS, _SRC_VRS, _MEM_SLOTS,
)
_POOL_SIZES = tuple(len(values) for values in _POOLS)
#: (register kind, is_written) → the pool it draws from.
_REGISTER_POOL = {
    (OperandKind.GPR, True): 0,
    (OperandKind.GPR, False): 1,
    (OperandKind.FPR, True): 2,
    (OperandKind.FPR, False): 3,
    (OperandKind.VR, True): 4,
    (OperandKind.VR, False): 5,
}
_MEM_POOL = 6

_IMMEDIATE = "7"
#: Branch targets inside straight-line bodies fall through to the next
#: instruction (never-taken compare-and-branch keeps the front end busy
#: without redirecting fetch).
_SKIP_LABEL = "fallthrough"


def _operand_plan(
    definition: InstructionDef,
) -> tuple[tuple[str | tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """How to render *definition*'s operands, derived once per build.

    Returns the operand slots (a constant string, or ``(pool, k)``: the
    k-th draw this instruction makes from that pool), the pools it
    draws from, and how many draws it makes from each of them."""
    slots: list[str | tuple[int, int]] = []
    draws = [0] * len(_POOLS)
    for operand in definition.operands:
        kind = operand.kind
        if kind is OperandKind.IMMEDIATE:
            slots.append(_IMMEDIATE)
            continue
        if kind is OperandKind.LABEL:
            slots.append(_SKIP_LABEL)
            continue
        if kind is OperandKind.MEMORY:
            pool = _MEM_POOL
        else:
            pool = _REGISTER_POOL.get((kind, operand.is_written))
            if pool is None:  # pragma: no cover - enum is closed
                raise GenerationError(f"unsupported operand kind {kind}")
        slots.append((pool, draws[pool]))
        draws[pool] += 1
    pools = tuple(pool for pool, count in enumerate(draws) if count)
    return tuple(slots), pools, tuple(draws[pool] for pool in pools)


def _render_passes(
    sequence: Sequence[InstructionDef], passes: int
) -> list[InstructionInstance]:
    """*passes* copies of *sequence* with rotating operands.

    Pool positions are integers mod the pool length, and every pass
    moves each pool by the same step.  So the instruction in slot ``j``
    of the sequence finds the pools it draws from back in the same
    state every ``P_j`` passes (at most ``lcm(6, 4, 16) = 48``): its
    column of the body is rendered for one period and tiled.  Within
    this call, a slot starting from a state an earlier slot of the same
    instruction started from reuses that column, and an instruction met
    again with the same operands reuses that (frozen) instance.
    """
    width = len(sequence)
    plans = {
        key: _operand_plan(definition)
        for key, definition in dict(zip(map(id, sequence), sequence)).items()
    }
    step = [0] * len(_POOLS)
    for definition in sequence:
        _, pools, draws = plans[id(definition)]
        for pool, count in zip(pools, draws):
            step[pool] += count
    cycle = [size // math.gcd(size, count) for size, count in zip(_POOL_SIZES, step)]
    periods = {
        key: math.lcm(*(cycle[pool] for pool in pools))
        for key, (_, pools, _) in plans.items()
    }

    position = [0] * len(_POOLS)
    columns: dict[tuple[int, ...], list[InstructionInstance]] = {}
    instances: dict[int, dict[tuple[str, ...], InstructionInstance]] = {}
    body: list[InstructionInstance] = [None] * (passes * width)  # type: ignore[list-item]
    for j, definition in enumerate(sequence):
        key = id(definition)
        slots, pools, draws = plans[key]
        start = (key, *map(position.__getitem__, pools))
        column = columns.get(start)
        if column is None:
            n = min(periods[key], passes)
            # Operand values of passes 0..n-1, one list per operand.
            operands = [
                [slot] * n if isinstance(slot, str) else [
                    _POOLS[slot[0]][
                        (position[slot[0]] + slot[1] + t * step[slot[0]])
                        % _POOL_SIZES[slot[0]]
                    ]
                    for t in range(n)
                ]
                for slot in slots
            ]
            rendered = instances.setdefault(key, {})
            column = []
            for values in zip(*operands) if slots else [()]:
                instance = rendered.get(values)
                if instance is None:
                    instance = rendered[values] = InstructionInstance(definition, values)
                column.append(instance)
            column = columns[start] = (column * -(-passes // n))[:passes]
        body[j::width] = column
        for pool, count in zip(pools, draws):
            position[pool] = (position[pool] + count) % _POOL_SIZES[pool]
    return body


def find_loop_branch(isa: Isa) -> InstructionDef:
    """Pick the loop-closing branch-on-count instruction.

    Prefers ``BCT``-style branch-on-count mnemonics, then any
    group-ending branch; deterministic for a given ISA.
    """
    for mnemonic in ("BCT", "BCTG", "BRC", "J"):
        if mnemonic in isa:
            inst = isa[mnemonic]
            if inst.ends_group:
                return inst
    for inst in isa:
        if inst.ends_group:
            return inst
    raise GenerationError("ISA has no branch instruction to close loops")


def _close_loop(
    isa: Isa, body: list[InstructionInstance], label: str
) -> list[InstructionInstance]:
    branch = find_loop_branch(isa)
    values = tuple(
        label if op.kind is OperandKind.LABEL else "r3"
        for op in branch.operands
    ) if branch.operands else ()
    body.append(InstructionInstance(branch, values))
    return body


def build_epi_loop(
    isa: Isa,
    definition: InstructionDef,
    repetitions: int = EPI_REPETITIONS,
    trip_count: int | None = None,
) -> Program:
    """The EPI microbenchmark: *repetitions* dependence-free copies of
    one instruction, closed by a loop branch."""
    if repetitions < 1:
        raise GenerationError("repetitions must be >= 1")
    label = f"epi_{definition.mnemonic.lower()}"
    body = _close_loop(isa, _render_passes((definition,), repetitions), label)
    return Program(
        name=f"epi-{definition.mnemonic}",
        loop_body=body,
        trip_count=trip_count,
        loop_label=label,
    )


def build_sequence_loop(
    isa: Isa,
    sequence: Sequence[InstructionDef],
    unroll: int = 1,
    trip_count: int | None = None,
    name: str | None = None,
    close_with_branch: bool = True,
) -> Program:
    """A loop repeating *sequence* ``unroll`` times per iteration.

    Used by the max-power search (sequence evaluation) and by the
    stressmark builder (high/low activity phases).
    """
    if not sequence:
        raise GenerationError("sequence is empty")
    if unroll < 1:
        raise GenerationError("unroll must be >= 1")
    label = "seq_loop"
    body = _render_passes(sequence, unroll)
    if close_with_branch:
        body = _close_loop(isa, body, label)
    return Program(
        name=name or "seq-" + "-".join(d.mnemonic for d in sequence),
        loop_body=body,
        trip_count=trip_count,
        loop_label=label,
    )
