"""Differential tests of the splitter-queue event refinement.

``event_reduction`` is refereed by ``helpers.naive_event_reduction``, the
round-based refinement (Fraction masses, every state regrouped in every
round), on the partition and on the reduced rows with their key order, and
on small inputs also by the all-partitions oracle.
"""

import random
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from genred import Generator, event_reduction, from_deterministic
from helpers import (
    coarsest_partition_oracle,
    lift,
    marked_cycle,
    naive_event_reduction,
    perturb,
    random_deterministic,
    random_generator,
    state_names,
    symbol_names,
)


def assert_matches_referee(gen: Generator):
    erg = event_reduction(gen)
    partition, rows = naive_event_reduction(gen)
    assert erg.partition == partition
    assert [list(erg.reduced_kernel[x].items()) for x in gen.states] == [
        list(rows[x].items()) for x in gen.states
    ]
    return erg


class TestAgainstNaiveRefinement:
    def test_random_generators(self):
        rnd = random.Random(9100)
        for _ in range(300):
            assert_matches_referee(random_generator(
                rnd, max_states=8, max_symbols=3, denom=rnd.choice((1, 2, 3, 6, 12))
            ))

    def test_lifts_and_perturbed_lifts(self):
        rnd = random.Random(9200)
        for _ in range(80):
            base = random_generator(rnd, max_states=5, max_symbols=3)
            lifted, quotient = lift(rnd, base, rnd.randint(1, 3))
            erg = assert_matches_referee(lifted)
            assert len(erg.partition) <= len(base.states)
            perturbed = perturb(rnd, lifted, quotient)
            if perturbed is not None:
                assert_matches_referee(perturbed)

    def test_deterministic_machines(self):
        rnd = random.Random(9300)
        for _ in range(200):
            dg = random_deterministic(rnd, max_states=60, max_symbols=3)
            assert_matches_referee(from_deterministic(dg))

    def test_marked_cycles(self):
        for n in range(1, 80):
            erg = assert_matches_referee(marked_cycle(n))
            assert len(erg.partition) == n


@st.composite
def generators(draw):
    """Small generators whose rows mix a few small integer weights, so that
    equal block masses, and so nontrivial stable partitions, are common."""
    states = state_names(draw(st.integers(1, 6)))
    symbols = symbol_names(draw(st.integers(1, 3)))
    cells = [(y, s) for y in states for s in symbols]
    weight_lists = st.lists(
        st.sampled_from((0, 0, 0, 1, 2)), min_size=len(cells), max_size=len(cells)
    ).filter(any)
    kernel = {}
    for x in states:
        weights = draw(weight_lists)
        kernel[x] = {
            cell: Fraction(w, sum(weights)) for cell, w in zip(cells, weights) if w
        }
    return Generator(states, symbols, kernel)


@settings(max_examples=300, deadline=None)
@given(generators())
def test_property_matches_referee_and_oracle(gen):
    erg = assert_matches_referee(gen)
    assert erg.partition == coarsest_partition_oracle(gen)


class TestScaling:
    """The round-based referee takes 10-16 s on the 1600-cycle (one round
    per state, each over all states); the splitter queue takes tens of
    milliseconds on both inputs."""

    def assert_fast(self, gen: Generator):
        start = time.perf_counter()
        erg = event_reduction(gen)
        assert time.perf_counter() - start < 5.0
        return erg

    def test_marked_cycle_1600(self):
        assert len(self.assert_fast(marked_cycle(1600)).partition) == 1600

    def test_random_deterministic_3200(self):
        dg = random_deterministic(random.Random(9400), n_states=3200, n_symbols=3)
        gen = from_deterministic(dg)
        erg = self.assert_fast(gen)
        assert erg.partition == naive_event_reduction(gen)[0]
        assert len(erg.partition) > 1000
