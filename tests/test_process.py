import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genred import (
    AlphabetMismatchError,
    Distribution,
    DistributionMismatchError,
    Generator,
    SizeLimitError,
    catalog,
    causal_state_partition,
    complete_randomness,
    equivalent,
    from_deterministic,
    minimal_reduction,
    pushforward,
    rational_rotation,
    sample,
    shortest_distinguishing_word,
    word_distribution,
    word_probability,
)
from genred.catalog import arc_length_distribution
from genred.formats import dump_word_table, word_name
from helpers import (
    all_words,
    arc_containing,
    brute_word_probability,
    label_sequence_partition,
    lift,
    marked_cycle,
    random_deterministic,
    random_distribution,
    random_generator,
    reference_sample,
)


def coin(p_heads: Fraction) -> Generator:
    return Generator(
        ["q"], ["h", "t"],
        {"q": {("q", "h"): p_heads, ("q", "t"): 1 - p_heads}},
    )


class TestWordProbability:
    def test_empty_word_is_one(self):
        gen, mu = catalog("golden-mean")
        assert word_probability(gen, mu, ()) == 1

    def test_complete_randomness_is_product(self):
        gen = complete_randomness(Distribution.uniform(["a", "b"]))
        mu = Distribution.uniform(["a", "b"])
        assert word_probability(gen, mu, ("a", "b")) == Fraction(1, 4)
        assert word_probability(gen, mu, ("b", "b", "a")) == Fraction(1, 8)

    def test_golden_mean_length_four(self):
        gen, mu = catalog("golden-mean")
        # frozen: iterating the per-symbol matrices by hand from (2/3, 1/3)
        assert word_probability(gen, mu, ("0", "1", "0", "1")) == Fraction(1, 6)
        assert word_probability(gen, mu, ("1", "1", "0", "0")) == 0
        for w in all_words(gen.alphabet, 4):
            assert word_probability(gen, mu, w) == brute_word_probability(gen, mu, w)

    def test_matches_path_enumeration_on_random_generators(self):
        rnd = random.Random(2718)
        gens = [random_generator(rnd, max_states=3, max_symbols=2) for _ in range(20)]
        gens += [from_deterministic(random_deterministic(rnd, max_states=5, max_symbols=3))
                 for _ in range(10)]
        gens += [lift(rnd, random_generator(rnd, max_states=2, max_symbols=2), 2)[0]
                 for _ in range(10)]
        for gen in gens:
            mu = random_distribution(rnd, gen.states)
            table = word_distribution(gen, mu, 3)
            assert list(table.probs) == list(all_words(gen.alphabet, 3))
            for w, p in table.probs.items():
                assert p == brute_word_probability(gen, mu, w)
                assert word_probability(gen, mu, w) == p

    def test_long_word_on_a_large_sparse_machine(self):
        gen = marked_cycle(1000)
        mu = Distribution.uniform(gen.states)
        word = ("a",) * 99 + ("b",) + ("a",) * 100  # only from q900
        start = time.perf_counter()
        assert word_probability(gen, mu, word) == Fraction(1, 1000)
        assert word_probability(gen, mu, ("a",) * 200) == Fraction(4, 5)
        assert time.perf_counter() - start < 2.0

    def test_unknown_symbol_rejected(self):
        gen, mu = catalog("golden-mean")
        with pytest.raises(Exception) as exc:
            word_probability(gen, mu, ("0", "2"))
        assert "2" in str(exc.value)

    def test_distribution_mismatch_rejected(self):
        gen, _ = catalog("golden-mean")
        with pytest.raises(DistributionMismatchError):
            word_probability(gen, Distribution.point("zzz"), ("0",))


class TestWordDistribution:
    def test_length_zero_table(self):
        gen, mu = catalog("golden-mean")
        table = word_distribution(gen, mu, 0)
        assert dict(table.probs) == {(): Fraction(1)}

    def test_marginal_consistency_random(self):
        rnd = random.Random(31415)
        for _ in range(60):
            gen = random_generator(rnd, max_states=6, max_symbols=3)
            mu = random_distribution(rnd, gen.states)
            max_len = rnd.randint(1, 4)
            table = word_distribution(gen, mu, max_len)
            assert table[()] == 1
            for w in all_words(gen.alphabet, max_len - 1):
                children = sum(
                    (table[w + (s,)] for s in gen.alphabet), Fraction(0)
                )
                assert children == table[w]

    def test_affine_mixing_exact(self):
        rnd = random.Random(121)
        gen = random_generator(rnd, max_states=3, max_symbols=2)
        mu1 = random_distribution(rnd, gen.states)
        mu2 = random_distribution(rnd, gen.states)
        for t in (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            mixed = Distribution(
                {
                    x: (1 - t) * mu1(x) + t * mu2(x)
                    for x in gen.states
                    if (1 - t) * mu1(x) + t * mu2(x) != 0
                }
            )
            t1 = word_distribution(gen, mu1, 3)
            t2 = word_distribution(gen, mu2, 3)
            tm = word_distribution(gen, mixed, 3)
            for w in tm.probs:
                assert tm[w] == (1 - t) * t1[w] + t * t2[w]

    def test_rotation_p4_matches_orbit_average(self):
        model, machine = rational_rotation(1, 4)
        gen = from_deterministic(machine)
        mu = arc_length_distribution(model)
        table = word_distribution(gen, mu, 4)
        # oracle: each arc is an orbit phase; follow the circle itself
        expected: dict[tuple, Fraction] = {}
        for w in all_words(gen.alphabet, 4):
            expected[w] = Fraction(0)
        for i, (lo, hi) in enumerate(model.arcs):
            angle = lo
            emitted = []
            for _ in range(4):
                angle = (angle + model.rotation) % 1
                emitted.append(model.labels[arc_containing(model, angle)])
            for k in range(5):
                expected[tuple(emitted[:k])] += hi - lo
        assert dict(table.probs) == expected

    def test_size_limit_enforced(self):
        gen, mu = catalog("randomness-2")
        with pytest.raises(SizeLimitError):
            word_distribution(gen, mu, 4, size_limit=20)
        assert len(word_distribution(gen, mu, 4, size_limit=31).probs) == 31

    def test_words_are_length_lexicographic(self):
        backwards = Generator(  # symbol index order is not string order
            ["q", "r"], ["b", "a"],
            {"q": {("r", "b"): Fraction(1, 3), ("q", "a"): Fraction(2, 3)},
             "r": {("q", "a"): Fraction(1)}},
        )
        for gen, mu in (catalog("randomness-2"), (backwards, Distribution.point("q"))):
            table = word_distribution(gen, mu, 3)
            expected = list(all_words(gen.alphabet, 3))
            assert list(table.probs) == expected
            names = [line.split(" ")[0] for line in dump_word_table(table).splitlines()]
            assert names == [word_name(w, gen.alphabet) for w in expected]

    def test_zero_subtrees_match_path_sums(self):
        golden, golden_mu = catalog("golden-mean")
        dg = random_deterministic(random.Random(4040), n_states=9, n_symbols=3)
        # "a" from p reaches p and n with entries 1 and -1: a nonempty vector
        # of mass 0 whose extension "ab" has mass 1
        signed = Generator(
            ["p", "n"], ["a", "b"],
            {"p": {("p", "a"): 1, ("n", "a"): -1, ("p", "b"): 1}, "n": {("n", "a"): 1}},
        )
        cases = [
            (golden, golden_mu, 12),
            (marked_cycle(5), Distribution.point("q0"), 7),
            (from_deterministic(dg), Distribution.point("q0"), 6),
            (signed, Distribution.point("p"), 6),
        ]
        for gen, mu, max_len in cases:
            table = word_distribution(gen, mu, max_len)
            words = list(all_words(gen.alphabet, max_len))
            assert list(table.probs) == words
            assert [table[w] for w in words] == [
                brute_word_probability(gen, mu, w) for w in words
            ]
            if gen is not signed:
                zeros = sum(1 for p in table.probs.values() if p == 0)
                assert zeros > len(words) // 2
        table = word_distribution(signed, Distribution.point("p"), 2)
        assert (table[("a",)], table[("a", "b")]) == (0, 1)


class TestSample:
    def test_zero_length(self):
        gen, mu = catalog("randomness-2")
        word, final = sample(gen, mu, 0, seed=9)
        assert word == ()
        assert final in gen.states

    def test_deterministic_generator_ignores_seed(self):
        gen, _ = catalog("parity-4")
        mu = Distribution.point("1")
        expected = ("0", "1", "0", "1", "0")  # parity of 2,3,0,1,2
        for seed in (0, 1, 12345):
            word, final = sample(gen, mu, 5, seed)
            assert word == expected
            assert final == "2"

    def test_fixed_seed_is_reproducible(self):
        gen, mu = catalog("golden-mean")
        runs = {sample(gen, mu, 25, seed=42) for _ in range(3)}
        assert len(runs) == 1

    def test_golden_streams(self):
        # frozen outputs pin the whole pipeline: canonical outcome ordering,
        # the documented 64-bit stream, and the exact categorical draw
        gen, mu = catalog("golden-mean")
        word, final = sample(gen, mu, 20, seed=42)
        assert "".join(word) == "10000010010010001000"
        assert final == "A"
        gen2, mu2 = catalog("randomness-2")
        word2, final2 = sample(gen2, mu2, 10, seed=0)
        assert "".join(word2) == "ababababab"
        assert final2 == "b"

    def test_matches_step_by_step_referee(self):
        rnd = random.Random(7070)
        wide = random_generator(rnd, n_states=50, n_symbols=3, denom=60)
        assert sum(len(row) for row in wide.kernel.values()) > 40 * 50
        lifted, _ = lift(rnd, random_generator(rnd, max_states=5, max_symbols=3), 3)
        cases = [
            (wide, Distribution.uniform(wide.states), 2000),
            (wide, random_distribution(rnd, wide.states, denom=60), 2000),
            (lifted, Distribution.uniform(lifted.states), 2000),
            (lifted, random_distribution(rnd, lifted.states), 2000),
            (marked_cycle(7), Distribution.point("q3"), 100),
            (marked_cycle(7), random_distribution(rnd, marked_cycle(7).states), 100),
        ]
        for gen, mu, n in cases:
            for seed in (0, 7, 2**64 - 1):
                assert sample(gen, mu, n, seed) == reference_sample(gen, mu, n, seed)

    def test_empirical_frequencies_near_exact(self):
        gen, mu = catalog("randomness-2")
        n = 100_000
        counts: dict[tuple, int] = {}
        for i in range(n):
            word, _ = sample(gen, mu, 3, seed=i)
            counts[word] = counts.get(word, 0) + 1
        p = 1 / 8
        sigma = (p * (1 - p) / n) ** 0.5
        for w in all_words(gen.alphabet, 3):
            if len(w) == 3:
                freq = counts.get(w, 0) / n
                assert abs(freq - p) < 3 * sigma, (w, freq)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(-(2**64), 2**65), st.integers(0, 60))
def test_sample_matches_referee_property(gen_seed, seed, n):
    rnd = random.Random(gen_seed)
    gen = random_generator(rnd, max_states=5, max_symbols=3, denom=rnd.choice((1, 2, 6, 60)))
    mu = random_distribution(rnd, gen.states)
    assert sample(gen, mu, n, seed) == reference_sample(gen, mu, n, seed)


class TestEquivalent:
    def test_self_equivalence(self):
        gen, mu = catalog("golden-mean")
        assert equivalent(gen, mu, gen, mu)

    def test_generator_equivalent_to_its_reduction(self):
        for name in ("randomness-2", "golden-mean-redundant", "rotation-p4", "parity-4"):
            gen, mu = catalog(name)
            result, _ = minimal_reduction(gen)
            nu = pushforward(mu, result.quotient_map)
            assert equivalent(gen, mu, result.reduced, nu)
            assert shortest_distinguishing_word(gen, mu, result.reduced, nu) is None

    def test_one_state_coin_vs_two_state_coin(self):
        one = coin(Fraction(1, 2))
        two = Generator(
            ["u", "v"], ["h", "t"],
            {
                "u": {("v", "h"): Fraction(1, 2), ("v", "t"): Fraction(1, 2)},
                "v": {("u", "h"): Fraction(1, 2), ("u", "t"): Fraction(1, 2)},
            },
        )
        mu1 = Distribution.point("q")
        mu2 = Distribution.uniform(["u", "v"])
        assert equivalent(one, mu1, two, mu2)
        assert shortest_distinguishing_word(one, mu1, two, mu2) is None

    def test_inequivalent_coins_have_short_witness(self):
        fair, biased = coin(Fraction(1, 2)), coin(Fraction(1, 3))
        mu = Distribution.point("q")
        assert not equivalent(fair, mu, biased, mu)
        assert shortest_distinguishing_word(fair, mu, biased, mu) == ("h",)

    def test_agrees_with_exhaustive_enumeration_random_pairs(self):
        rnd = random.Random(8080)
        for _ in range(40):
            k = rnd.randint(1, 3)
            gen1 = random_generator(rnd, max_states=4, max_symbols=k)
            gen2 = random_generator(rnd, max_states=4, max_symbols=k)
            while len(gen2.alphabet) != len(gen1.alphabet):
                gen2 = random_generator(rnd, max_states=4, max_symbols=k)
            mu1 = random_distribution(rnd, gen1.states)
            mu2 = random_distribution(rnd, gen2.states)
            witness = shortest_distinguishing_word(gen1, mu1, gen2, mu2)
            assert equivalent(gen1, mu1, gen2, mu2) == (witness is None)
            if witness is not None:
                assert word_probability(gen1, mu1, witness) != word_probability(
                    gen2, mu2, witness
                )

    def test_witness_is_shortest(self):
        rnd = random.Random(555)
        count = 0
        while count < 10:
            gen1 = random_generator(rnd, max_states=3, max_symbols=2)
            gen2 = random_generator(rnd, max_states=3, max_symbols=2)
            if len(gen2.alphabet) != len(gen1.alphabet):
                continue
            mu1 = random_distribution(rnd, gen1.states)
            mu2 = random_distribution(rnd, gen2.states)
            witness = shortest_distinguishing_word(gen1, mu1, gen2, mu2)
            if witness is None:
                continue
            count += 1
            for w in all_words(gen1.alphabet, len(witness)):
                if len(w) < len(witness):
                    assert word_probability(gen1, mu1, w) == word_probability(
                        gen2, mu2, w
                    )

    def test_alphabet_mismatch(self):
        gen1, mu1 = catalog("golden-mean")
        gen2, mu2 = catalog("randomness-2")
        with pytest.raises(AlphabetMismatchError, match=r"\['0', '1'\] vs \['a', 'b'\]"):
            equivalent(gen1, mu1, gen2, mu2)

    def test_mismatch_messages_are_short(self):
        gen1, gen2 = (
            Generator(["q"], [s * 100_000], {"q": {("q", s * 100_000): 1}}) for s in "ab"
        )
        mu = Distribution.point("q")
        with pytest.raises(AlphabetMismatchError) as exc:
            equivalent(gen1, mu, gen2, mu)
        assert len(str(exc.value)) < 300
        many = Distribution({f"n{i}": Fraction(1, 20_000) for i in range(20_000)})
        with pytest.raises(DistributionMismatchError) as exc:
            word_probability(gen1, many, ())
        assert str(exc.value).startswith("distribution supported on non-states ['n0', ")
        assert len(str(exc.value)) < 300


class TestCausalStates:
    def test_duplicate_rows_share_a_block(self):
        gen = Generator(
            ["x", "y", "z"], ["a", "b"],
            {
                "x": {("y", "a"): Fraction(1, 2), ("z", "b"): Fraction(1, 2)},
                "y": {("x", "a"): 1},
                "z": {("x", "a"): 1},
            },
        )
        partition = causal_state_partition(gen)
        assert partition.block_of("y") == partition.block_of("z")

    def test_deterministic_equals_label_sequences(self):
        rnd = random.Random(99)
        for _ in range(30):
            dg = random_deterministic(rnd, max_states=8, max_symbols=3)
            gen = from_deterministic(dg)
            assert causal_state_partition(gen) == label_sequence_partition(
                dg, len(dg.states)
            )

    def test_golden_mean_redundant_has_two_causal_states(self):
        gen, _ = catalog("golden-mean-redundant")
        partition = causal_state_partition(gen)
        assert partition.blocks == (("A",), ("B", "C"))
        # cross-check against brute-force word tables to length 6
        for x, y in (("A", "B"), ("B", "C")):
            same = all(
                brute_word_probability(gen, Distribution.point(x), w)
                == brute_word_probability(gen, Distribution.point(y), w)
                for w in all_words(gen.alphabet, 6)
            )
            assert same == (partition.block_of(x) == partition.block_of(y))

    def test_matches_pairwise_equivalence_random(self):
        rnd = random.Random(4242)
        for _ in range(25):
            gen = random_generator(rnd, max_states=5, max_symbols=2)
            partition = causal_state_partition(gen)
            for x in gen.states:
                for y in gen.states:
                    same_block = partition.block_of(x) == partition.block_of(y)
                    assert same_block == equivalent(
                        gen, Distribution.point(x), gen, Distribution.point(y)
                    )
