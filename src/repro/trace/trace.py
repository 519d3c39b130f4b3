"""Kernel trace intermediate representation.

A *kernel trace* is the unit of work the simulator executes: a grid of
CTAs, each CTA a list of per-warp instruction streams.  Traces are
produced by the synthetic benchmark generators
(:mod:`repro.trace.generators`) and are deliberately simple — plain
tuples in hot paths — because the simulator iterates them millions of
times.

Instruction encoding (tuples, first element is an opcode constant):

======== =======================  =========================================
opcode   payload                  semantics
======== =======================  =========================================
OP_ALU   ``count``                ``count`` back-to-back arithmetic instrs
OP_LOAD  ``(addr, addr, ...)``    global load; one byte address per active
                                  lane (<= 32); warp blocks until data
OP_STORE ``(addr, addr, ...)``    global store; write-through, non-blocking
OP_SMEM  ``count``                scratchpad accesses (fixed low latency)
OP_ATOM  ``(addr, addr, ...)``    atomic op at the memory partition's AOU
OP_BAR   ``0``                    CTA-wide barrier
======== =======================  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = [
    "OP_ALU",
    "OP_LOAD",
    "OP_STORE",
    "OP_SMEM",
    "OP_ATOM",
    "OP_BAR",
    "OP_NAMES",
    "Instruction",
    "WarpTrace",
    "CTATrace",
    "KernelTrace",
]

OP_ALU = 0
OP_LOAD = 1
OP_STORE = 2
OP_SMEM = 3
OP_ATOM = 4
OP_BAR = 5

OP_NAMES = {
    OP_ALU: "alu",
    OP_LOAD: "ld",
    OP_STORE: "st",
    OP_SMEM: "smem",
    OP_ATOM: "atom",
    OP_BAR: "bar",
}

#: One instruction: ``(opcode, payload)``.
Instruction = Tuple[int, object]

#: One warp's instruction stream.
WarpTrace = List[Instruction]

#: Opcodes whose payload is a lane-address tuple, and those whose payload
#: is an instruction count.
_MEMORY_OPS = (OP_LOAD, OP_STORE, OP_ATOM)
_COUNTED_OPS = (OP_ALU, OP_SMEM)


def instruction_count(program: WarpTrace) -> int:
    """Number of dynamic instructions in a warp program.

    ALU/SMEM groups of ``n`` count as ``n`` instructions; everything else
    counts as one.
    """
    total = 0
    for op, arg in program:
        if op in (OP_ALU, OP_SMEM):
            total += int(arg)
        else:
            total += 1
    return total


@dataclass
class CTATrace:
    """One cooperative thread array: a list of warp programs."""

    warps: List[WarpTrace]

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    def instruction_count(self) -> int:
        return sum(instruction_count(w) for w in self.warps)


@dataclass
class KernelTrace:
    """One kernel launch: the full grid plus identification metadata.

    Attributes:
        name: Benchmark short name (e.g. ``"SPMV"``).
        ctas: The grid, in launch order (the CTA scheduler walks this
            list round-robin across cores).
        scratchpad_per_cta: Bytes of scratchpad each CTA occupies (limits
            CTA concurrency per core alongside warp/thread caps).
        meta: Free-form generator metadata (footprints, seeds, ...).
    """

    name: str
    ctas: List[CTATrace]
    scratchpad_per_cta: int = 0
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def num_ctas(self) -> int:
        return len(self.ctas)

    def instruction_count(self) -> int:
        # Cached: traces are immutable once built, and warm-cache
        # sequence replays re-query this per kernel.
        cached = self.__dict__.get("_instruction_count")
        if cached is None:
            cached = sum(cta.instruction_count() for cta in self.ctas)
            self.__dict__["_instruction_count"] = cached
        return cached

    def memory_access_count(self) -> int:
        """Number of LOAD/STORE/ATOM warp instructions in the kernel."""
        n = 0
        for cta in self.ctas:
            for warp in cta.warps:
                for op, _ in warp:
                    if op in (OP_LOAD, OP_STORE, OP_ATOM):
                        n += 1
        return n

    def iter_warp_programs(self) -> Iterator[WarpTrace]:
        for cta in self.ctas:
            yield from cta.warps

    def validate(self, max_lanes: int = 32) -> None:
        """Sanity-check the trace; raises ``ValueError`` on malformed input.

        The same pass counts dynamic instructions and caches the count
        for :meth:`instruction_count`.
        """
        if not self.ctas:
            raise ValueError(f"kernel {self.name!r} has no CTAs")
        total = 0
        for c, cta in enumerate(self.ctas):
            if not cta.warps:
                raise ValueError(f"kernel {self.name!r} CTA {c} has no warps")
            for w, warp in enumerate(cta.warps):
                # One instruction each, plus count - 1 per ALU/SMEM group.
                total += len(warp)
                for op, arg in warp:
                    if op in _MEMORY_OPS:
                        if not arg or len(arg) > max_lanes:
                            self._reject(c, w, warp, max_lanes)
                    elif op in _COUNTED_OPS:
                        if not isinstance(arg, int) or arg < 1:
                            self._reject(c, w, warp, max_lanes)
                        total += arg - 1
                    elif op != OP_BAR:
                        self._reject(c, w, warp, max_lanes)
        self.__dict__["_instruction_count"] = total

    def _reject(self, c: int, w: int, warp: WarpTrace, max_lanes: int) -> None:
        """Raise :meth:`validate`'s error for the first bad instruction of
        warp ``w`` in CTA ``c``."""
        for i, (op, arg) in enumerate(warp):
            if op in _COUNTED_OPS:
                if not isinstance(arg, int) or arg < 1:
                    raise ValueError(
                        f"{self.name} cta{c} warp{w} instr{i}: "
                        f"ALU/SMEM count must be a positive int, got {arg!r}"
                    )
            elif op in _MEMORY_OPS:
                if not arg or len(arg) > max_lanes:
                    raise ValueError(
                        f"{self.name} cta{c} warp{w} instr{i}: "
                        f"memory op needs 1..{max_lanes} lane addresses"
                    )
            elif op != OP_BAR:
                raise ValueError(
                    f"{self.name} cta{c} warp{w} instr{i}: "
                    f"unknown opcode {op}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<KernelTrace {self.name}: {self.num_ctas} CTAs, "
            f"{self.instruction_count()} instrs>"
        )
