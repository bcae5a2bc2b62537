"""Reduction of generators to minimal observationally equivalent form.

Two reductions compose into the minimal one:

* internal-event reduction finds the coarsest partition of the state set
  such that, for every block A and symbol s, the mass x -> T(x, A x {s}) is
  constant on each block (the finite form of keeping only the internal
  events needed to reproduce the output process);
* internal-state reduction then merges states whose rows over the surviving
  events are identical.

Over a finite state set the coarsest stable partition is unique: stable
partitions are closed under finest common coarsening, which is what the
exhaustive all-partitions oracle in the tests re-derives independently.

Unreachable states are never pruned: the reductions must preserve the
processes generated from EVERY initial distribution, and those see every
state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import DeterministicGenerator, Generator, Partition, from_deterministic, image

ReducedRow = Mapping[tuple[int, str], Fraction]


def class_name(block: Sequence[str]) -> str:
    """Canonical name of a merged class: its smallest-index member, prefixed."""
    return f"c_{block[0]}"


class EventReducedGenerator:
    """A generator restricted to the events of a stable partition
    (:func:`event_reduction` always supplies the coarsest one).

    ``reduced_kernel[x][(i, s)]`` is the total mass from ``x`` into block
    ``i`` of the partition while emitting ``s``.  Stability (each such mass
    constant across the states of any one block) is re-checked on
    construction; it is the defining property of the partition.
    """

    __slots__ = ("base", "partition", "reduced_kernel")

    def __init__(
        self,
        base: Generator,
        partition: Partition,
        reduced_kernel: Mapping[str, ReducedRow],
    ):
        self.base = base
        self.partition = partition
        self.reduced_kernel = {
            x: dict(reduced_kernel[x]) for x in base.states
        }
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


def _classes(states: Sequence[str], rows: Mapping[str, Mapping]) -> list[list[str]]:
    """Group the states with equal rows, groups in order of first
    appearance (the canonical block order of :class:`Partition`)."""
    groups: dict[tuple, list[str]] = {}
    for x in states:
        groups.setdefault(tuple(sorted(rows[x].items())), []).append(x)
    return list(groups.values())


def event_reduction(gen: Generator) -> EventReducedGenerator:
    """Coarsest stable partition by refinement.

    Start from the one-block partition and repeatedly regroup the states by
    their signature (mass into each current block per symbol), until a
    fixpoint; at most |Q| rounds.  Each round refines the last (by induction:
    masses into the old blocks are sums of masses into the new ones), and a
    split never separates two states that the coarsest stable partition
    keeps together (their signature entries are sums of stable block masses,
    which agree), so every block remains a union of that partition's blocks
    and the fixpoint, being itself stable, is exactly the coarsest stable
    partition.  Blocks are numbered canonically in every round, so the
    fixpoint's signatures are the reduced kernel.
    """
    blocks = [list(gen.states)]
    while True:
        block_of = {x: i for i, block in enumerate(blocks) for x in block}
        rows = {x: image(gen.kernel[x], block_of) for x in gen.states}
        refined = _classes(gen.states, rows)
        if len(refined) == len(blocks):
            return EventReducedGenerator(gen, Partition(blocks, gen.states), rows)
        blocks = refined


def sigma_observation_partition(dg: DeterministicGenerator) -> Partition:
    """Partition of a deterministic machine's states by their forward
    observation sequences (g(f(x)), g(f(f(x))), ...): the event partition of
    the machine's kernel form, which moves from x to f(x) emitting g(f(x))."""
    return event_reduction(from_deterministic(dg)).partition


def _quotient(gen: Generator, partition: Partition) -> ReductionResult:
    """Merge each block into one state named by :func:`class_name`, whose
    row is its first member's row pushed through the quotient map."""
    names = [class_name(block) for block in partition.blocks]
    quotient = {x: names[partition.block_index(x)] for x in gen.states}
    kernel = {
        name: image(gen.kernel[block[0]], quotient)
        for name, block in zip(names, partition.blocks)
    }
    return ReductionResult(Generator(names, gen.alphabet, kernel), quotient)


def state_reduction(gen: Generator) -> ReductionResult:
    """Merge states with identical kernel rows.

    The quotient kernel aggregates target states over their classes:
    the merged row sends mass sum over y' in [y] of T(x, (y', s)) to
    ([y], s).
    """
    return _quotient(gen, Partition(_classes(gen.states, gen.kernel), gen.states))


def state_reduction_reduced(erg: EventReducedGenerator) -> ReductionResult:
    """Merge states of an event-reduced generator by equality of their rows
    over (block, symbol) events, emitting the quotient generator whose
    states are the classes.

    Because the partition is coarsest, distinct blocks always carry distinct
    rows, so the classes are exactly the partition blocks.
    """
    return _quotient(erg.base, erg.partition)


def minimal_reduction(gen: Generator) -> tuple[ReductionResult, EventReducedGenerator]:
    """Internal-event reduction followed by internal-state reduction.

    The reduced generator produces exactly the same word distributions as
    the input for every initial distribution (pushed forward along the
    quotient map), and all of its reduced rows are pairwise distinct.
    """
    erg = event_reduction(gen)
    return state_reduction_reduced(erg), erg
