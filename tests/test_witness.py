"""Differential tests of the exact span closure and the polynomial witness.

``equivalent``, ``shortest_distinguishing_word`` and
``causal_state_partition`` share one integer span closure; every answer
here is refereed by the exhaustive breadth-first search in
``helpers.bfs_distinguishing_word``, which works on Fraction state vectors
and knows nothing of bases.
"""

import random
import time

from genred import (
    Distribution,
    Generator,
    causal_state_partition,
    equivalent,
    from_deterministic,
    pushforward,
    shortest_distinguishing_word,
)
from helpers import (
    bfs_distinguishing_word,
    lift,
    marked_cycle,
    perturb,
    random_deterministic,
    random_distribution,
    random_generator,
)


def assert_matches_referee(gen1, mu1, gen2, mu2):
    """The witness equals the BFS referee's, and equivalence holds exactly
    when the referee finds no word."""
    expected = bfs_distinguishing_word(gen1, mu1, gen2, mu2)
    assert shortest_distinguishing_word(gen1, mu1, gen2, mu2) == expected
    assert equivalent(gen1, mu1, gen2, mu2) == (expected is None)
    return expected


def assert_causal_matches_pairwise(gen):
    partition = causal_state_partition(gen)
    for x in gen.states:
        for y in gen.states:
            same_block = partition.block_of(x) == partition.block_of(y)
            assert same_block == equivalent(
                gen, Distribution.point(x), gen, Distribution.point(y)
            )


def near_equivalent_base(rnd: random.Random):
    pick = rnd.randrange(3)
    if pick == 0:
        return random_generator(rnd, max_states=3, n_symbols=2)
    if pick == 1:
        return marked_cycle(rnd.randint(2, 6))
    return from_deterministic(random_deterministic(rnd, max_states=5, max_symbols=2))


class TestWitnessAgainstBfs:
    def test_random_pairs(self):
        rnd = random.Random(1992)
        found = 0
        for _ in range(80):
            k = rnd.randint(1, 3)
            gen1 = random_generator(rnd, max_states=4, n_symbols=k)
            gen2 = random_generator(rnd, max_states=4, n_symbols=k)
            mu1 = random_distribution(rnd, gen1.states)
            mu2 = random_distribution(rnd, gen2.states)
            found += assert_matches_referee(gen1, mu1, gen2, mu2) is not None
        assert found > 0

    def test_deterministic_pairs(self):
        rnd = random.Random(2013)
        lengths = set()
        for _ in range(80):
            k = rnd.randint(1, 3)
            dg1 = random_deterministic(rnd, max_states=6, max_symbols=k)
            dg2 = random_deterministic(rnd, max_states=6, max_symbols=k)
            if len(dg1.alphabet) != len(dg2.alphabet):
                continue
            gen1, gen2 = from_deterministic(dg1), from_deterministic(dg2)
            if rnd.random() < 0.5:
                mu1 = Distribution.point(gen1.states[0])
                mu2 = Distribution.point(gen2.states[0])
            else:
                mu1 = random_distribution(rnd, gen1.states)
                mu2 = random_distribution(rnd, gen2.states)
            witness = assert_matches_referee(gen1, mu1, gen2, mu2)
            lengths.add(None if witness is None else len(witness))
        assert None in lengths and len(lengths) > 2

    def test_marked_cycle_pairs(self):
        for n in range(1, 15):
            short, long_ = marked_cycle(n), marked_cycle(n + 1)
            starts = Distribution.point("q0")
            assert assert_matches_referee(short, starts, long_, starts) == ("a",) * n
            assert_matches_referee(
                short, Distribution.uniform(short.states),
                long_, Distribution.uniform(long_.states),
            )
            assert_matches_referee(short, starts, short, Distribution.point(f"q{n - 1}"))

    def test_near_equivalent_lifts(self):
        rnd = random.Random(1968)
        lengths = []
        for _ in range(60):
            base = near_equivalent_base(rnd)
            lifted, quotient = lift(rnd, base, 2)
            mu = random_distribution(rnd, lifted.states)
            nu = pushforward(mu, quotient)
            assert assert_matches_referee(lifted, mu, base, nu) is None
            changed = perturb(rnd, lifted, quotient)
            if changed is not None:
                witness = assert_matches_referee(changed, mu, base, nu)
                lengths.append(0 if witness is None else len(witness))
        assert max(lengths) > 2

    def test_second_alphabet_in_reverse_order(self):
        # The joint rows are keyed by the first machine's alphabet order.
        rnd = random.Random(2020)
        answers = set()
        for _ in range(40):
            k = rnd.randint(2, 3)
            gen1 = random_generator(rnd, max_states=4, n_symbols=k)
            gen2 = random_generator(rnd, max_states=4, n_symbols=k)
            base = near_equivalent_base(rnd)
            lifted, quotient = lift(rnd, base, 2)
            mu = random_distribution(rnd, lifted.states)
            pairs = [
                (gen1, random_distribution(rnd, gen1.states),
                 gen2, random_distribution(rnd, gen2.states)),
                (lifted, mu, base, pushforward(mu, quotient)),
            ]
            changed = perturb(rnd, lifted, quotient)
            if changed is not None:
                pairs.append((changed, mu, base, pushforward(mu, quotient)))
            for g1, m1, g2, m2 in pairs:
                reverse = Generator(g2.states, g2.alphabet[::-1], g2.kernel)
                answers.add(assert_matches_referee(g1, m1, reverse, m2) is None)
        assert answers == {True, False}


class TestCausalAgainstPairwise:
    def test_lifts_and_perturbed_lifts(self):
        rnd = random.Random(7)
        for _ in range(20):
            lifted, quotient = lift(rnd, near_equivalent_base(rnd), 2)
            assert_causal_matches_pairwise(lifted)
            changed = perturb(rnd, lifted, quotient)
            if changed is not None:
                assert_causal_matches_pairwise(changed)

    def test_deterministic_machines_and_cycles(self):
        rnd = random.Random(8)
        for _ in range(20):
            assert_causal_matches_pairwise(
                from_deterministic(random_deterministic(rnd, max_states=7, max_symbols=2))
            )
        assert len(causal_state_partition(marked_cycle(9))) == 9


def test_witness_is_polynomial_on_long_cycles():
    # Enumerating every word shorter than the witness would visit 3**39 words.
    start = time.perf_counter()
    witness = shortest_distinguishing_word(
        marked_cycle(40), Distribution.point("q0"),
        marked_cycle(41), Distribution.point("q0"),
    )
    assert witness == ("a",) * 40
    assert time.perf_counter() - start < 10.0


def test_witness_is_fast_on_cycles_of_600():
    short, long_ = marked_cycle(600), marked_cycle(601)
    start = time.perf_counter()
    witness = shortest_distinguishing_word(
        short, Distribution.point("q0"), long_, Distribution.point("q0")
    )
    assert witness == ("a",) * 600
    assert time.perf_counter() - start < 3.0
