"""Reduction of generators to minimal observationally equivalent form.

Internal-event reduction finds the coarsest partition of the state set such
that, for every block A and symbol s, the mass x -> T(x, A x {s}) is
constant on each block (the finite form of keeping only the internal events
needed to reproduce the output process).  Internal-state reduction then
merges states whose rows over the surviving events are identical; on the
coarsest stable partition distinct blocks always carry distinct rows, so it
merges exactly the event blocks and :func:`minimal_reduction` is the
quotient by the coarsest lumping.  The predictive (causal) minimum of
:func:`~genred.process.causal_state_partition` can be coarser still: states
may generate the same process without any stable partition joining them.

Over a finite state set the coarsest stable partition is unique: stable
partitions are closed under finest common coarsening, which is what the
exhaustive all-partitions oracle in the tests re-derives independently.

Unreachable states are never pruned: the reductions must preserve the
processes generated from EVERY initial distribution, and those see every
state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import (
    DeterministicGenerator,
    Generator,
    Partition,
    from_deterministic,
    image,
    joint_rows,
)


def class_name(block: Sequence[str]) -> str:
    """Canonical name of a merged class: its smallest-index member, prefixed."""
    return f"c_{block[0]}"


class EventReducedGenerator:
    """A generator restricted to the events of a stable partition
    (:func:`event_reduction` always supplies the coarsest one): the one
    place where reduced rows are computed and certified.

    ``reduced_kernel[x][(i, s)]`` is the total mass from ``x`` into block
    ``i`` of the partition while emitting ``s``, computed on construction
    with :func:`~genred.core.image`.  Stability (each such mass constant
    across the states of any one block) is then checked; it is the defining
    property of the partition.  Kernel entries must be nonnegative, as
    :func:`~genred.core.validate` requires.
    """

    __slots__ = ("base", "partition", "reduced_kernel")

    def __init__(self, base: Generator, partition: Partition):
        self.base = base
        self.partition = partition
        index = {x: i for i, block in enumerate(partition.blocks) for x in block}
        self.reduced_kernel = {x: image(base.kernel[x], index) for x in base.states}
        for block in partition.blocks:
            first = self.reduced_kernel[block[0]]
            for x in block[1:]:
                if self.reduced_kernel[x] != first:
                    raise ValueError(
                        f"unstable partition: {x!r} and {block[0]!r} share a block "
                        "but differ on block-to-(block, symbol) mass"
                    )

    def __repr__(self) -> str:
        return (
            f"EventReducedGenerator(blocks={len(self.partition)}, "
            f"states={len(self.base.states)})"
        )


@dataclass(frozen=True)
class ReductionResult:
    """A reduced generator together with the map sending each original
    state to the class (reduced state) it fell into."""

    reduced: Generator
    quotient_map: Mapping[str, str]


def event_reduction(gen: Generator) -> EventReducedGenerator:
    """Coarsest stable partition by splitter-queue refinement (Valmari and
    Franceschinis, "Simple O(m log n) Time Markov Chain Lumping", 2010).

    Works on the backward integer rows of :func:`joint_rows`, so every mass
    is an exact integer.  Start from one queued block.  Pop a splitter B,
    sum each predecessor's mass into B per symbol, and split every touched
    block by that signature; the untouched remainder of a block keeps its
    id, so a split costs only the touched states.  The parts of a block
    that was queued are all queued; otherwise all but the largest are,
    since the mass into it is the mass into the old block minus the mass
    into the others, and the partition is already stable for the old
    block.  So each state enters O(log n) splitters: O(m log n) in all.
    A split only separates states with different mass into a union of
    coarsest-partition blocks, and an empty queue leaves the partition
    stable for each of its blocks: the fixpoint is the coarsest stable
    partition, whose reduced rows are then computed once.

    Kernel entries must be nonnegative, as :func:`~genred.core.validate`
    requires.  A zero mass counts as no mass, here and in
    :func:`~genred.core.image`, so signed entries that cancel are not
    rejected, but the result is only meaningful for valid kernels.
    """
    rows = list(joint_rows((gen,), backward=True)[1].values())
    members = [set(range(len(gen.states)))]
    block_of = [0] * len(gen.states)
    queued = [True]
    queue = deque([0])
    while queue:
        b = queue.popleft()
        queued[b] = False
        splitter = members[b]
        signature: dict[int, list[tuple[int, int]]] = {}
        for k, into in enumerate(rows):
            mass: dict[int, int] = {}
            for y in splitter:
                for x, w in into[y]:
                    mass[x] = mass.get(x, 0) + w
            for x, m in mass.items():
                if m:
                    signature.setdefault(x, []).append((k, m))
        touched: dict[int, dict[tuple, list[int]]] = {}
        for x, sig in signature.items():
            touched.setdefault(block_of[x], {}).setdefault(tuple(sig), []).append(x)
        for c, groups in touched.items():
            parts = sorted(groups.values(), key=len)
            if sum(map(len, parts)) == len(members[c]):
                parts.pop()  # no untouched remainder: the largest part keeps id c
            ids = [c]
            for part in parts:
                members[c].difference_update(part)
                for x in part:
                    block_of[x] = len(members)
                ids.append(len(members))
                members.append(set(part))
                queued.append(False)
            if not queued[c]:
                ids.remove(max(ids, key=lambda i: len(members[i])))
            for i in ids:
                if not queued[i]:
                    queued[i] = True
                    queue.append(i)
    partition = Partition.grouped(gen.states, lambda x: block_of[gen.state_index[x]])
    return EventReducedGenerator(gen, partition)


def sigma_observation_partition(dg: DeterministicGenerator) -> Partition:
    """Partition of a deterministic machine's states by their forward
    observation sequences (g(f(x)), g(f(f(x))), ...): the event partition of
    the machine's kernel form, which moves from x to f(x) emitting g(f(x))."""
    return event_reduction(from_deterministic(dg)).partition


def _quotient(erg: EventReducedGenerator) -> ReductionResult:
    """Merge each block into one state named by :func:`class_name`, whose
    row is its certified reduced row with block indices renamed to names."""
    names = [class_name(block) for block in erg.partition.blocks]
    kernel = {
        name: {(names[i], s): p for (i, s), p in erg.reduced_kernel[block[0]].items()}
        for name, block in zip(names, erg.partition.blocks)
    }
    quotient = {x: names[erg.partition.block_index(x)] for x in erg.base.states}
    return ReductionResult(Generator(names, erg.base.alphabet, kernel), quotient)


def state_reduction(gen: Generator) -> ReductionResult:
    """Merge states with identical kernel rows.

    The quotient kernel aggregates target states over their classes:
    the merged row sends mass sum over y' in [y] of T(x, (y', s)) to
    ([y], s).  Equal rows make a stable partition, certified by
    :class:`EventReducedGenerator` like every other.  ``validate(gen)``
    must be empty.
    """
    partition = Partition.grouped(gen.states, lambda x: tuple(gen.kernel[x].items()))
    return _quotient(EventReducedGenerator(gen, partition))


def minimal_reduction(gen: Generator) -> tuple[ReductionResult, EventReducedGenerator]:
    """Internal-event reduction, then the quotient by its blocks (the
    internal-state reduction of the event-reduced generator).

    The reduced generator produces exactly the same word distributions as
    the input for every initial distribution (pushed forward along the
    quotient map), and all of its reduced rows are pairwise distinct.
    ``validate(gen)`` must be empty.
    """
    erg = event_reduction(gen)
    return _quotient(erg), erg
