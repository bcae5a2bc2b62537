import random
import time
from fractions import Fraction
from math import gcd

import pytest

from genred import (
    Distribution,
    RowNotNormalizedError,
    UnknownFixtureError,
    catalog,
    complete_randomness,
    equivalent,
    markov_shift,
    minimal_reduction,
    pushforward,
    rational_rotation,
    validate,
    word_distribution,
    word_probability,
)
from genred.catalog import FIXTURE_NAMES, arc_length_distribution
from genred.formats import dump_generator, parse_generator_text
from helpers import arc_containing, rotation_breakpoints


class TestCompleteRandomness:
    def test_uniform_two_symbol_rows(self):
        gen = complete_randomness(Distribution.uniform(["a", "b"]))
        for x in gen.states:
            assert gen.kernel[x] == {
                ("a", "a"): Fraction(1, 2),
                ("b", "b"): Fraction(1, 2),
            }

    def test_minimal_reduction_emits_source_masses(self):
        mu = Distribution({"a": Fraction(1, 3), "b": Fraction(2, 3)})
        gen = complete_randomness(mu)
        result, _ = minimal_reduction(gen)
        (state,) = result.reduced.states
        assert result.reduced.kernel[state] == {
            (state, "a"): Fraction(1, 3),
            (state, "b"): Fraction(2, 3),
        }

    def test_word_probability_is_product(self):
        mu = Distribution({"a": Fraction(1, 3), "b": Fraction(2, 3)})
        gen = complete_randomness(mu)
        assert word_probability(gen, mu, ("a", "a", "b")) == Fraction(2, 27)


class TestRationalRotation:
    def test_arc_count_law(self):
        for p in range(1, 25):
            for q in range(p):
                if gcd(q, p) != 1:
                    continue
                model, machine = rational_rotation(q, p)
                expected = p if p % 2 == 0 else 2 * p
                assert len(model.arcs) == expected
                assert model.breakpoints == tuple(sorted(rotation_breakpoints(q, p)))
                assert len(machine.states) == expected

    def test_closed_form_matches_orbit_referee(self):
        # every coprime q/p with 1 <= p <= 30 and -p <= q <= 2p, against the
        # orbit of 0 and 1/2 and the arc the rotated left end lands in
        half = Fraction(1, 2)
        for p in range(1, 31):
            for q in range(-p, 2 * p + 1):
                if gcd(q, p) != 1:
                    continue
                model, machine = rational_rotation(q, p)
                assert model.rotation == Fraction(q, p) % 1
                assert model.breakpoints == tuple(sorted(rotation_breakpoints(q, p)))
                shifted = {(b + model.rotation) % 1 for b in model.breakpoints}
                assert shifted == set(model.breakpoints)
                edges = model.breakpoints + (Fraction(1),)  # starts at 0
                assert model.arcs == tuple(zip(edges, edges[1:]))
                assert all(hi <= half or lo >= half for lo, hi in model.arcs)
                assert model.labels == tuple(
                    "1" if hi <= half else "2" for _, hi in model.arcs
                )
                names = model.arc_names
                for name, (lo, _) in zip(names, model.arcs):
                    successor = arc_containing(model, lo + model.rotation)
                    assert machine.f[name] == names[successor]
                assert machine.g == dict(zip(names, model.labels))

    def test_quotient_is_permutation_automaton(self):
        for q, p in ((1, 1), (1, 4), (2, 5), (1, 6)):
            _, machine = rational_rotation(q, p)
            assert sorted(machine.f.values()) == sorted(machine.states)

    def test_p1_has_two_constant_arcs(self):
        model, machine = rational_rotation(1, 1)
        assert model.breakpoints == (Fraction(0), Fraction(1, 2))
        assert machine.f == {"a0": "a0", "a1": "a1"}
        assert machine.g == {"a0": "1", "a1": "2"}

    def test_zero_and_half_always_break(self):
        for q, p in ((1, 3), (2, 5), (1, 8)):
            model, _ = rational_rotation(q, p)
            assert Fraction(0) in model.breakpoints
            assert Fraction(1, 2) in model.breakpoints
            for lo, hi in model.arcs:
                assert hi <= Fraction(1, 2) or lo >= Fraction(1, 2)

    def test_arc_length_distribution(self):
        model, _ = rational_rotation(1, 3)
        mu = arc_length_distribution(model)
        assert sum(mu.weights.values()) == 1
        assert mu("a0") == Fraction(1, 6)

    def test_arc_generator_is_already_minimal(self):
        from genred import from_deterministic

        for q, p in ((1, 1), (1, 3), (1, 4), (2, 5), (1, 6)):
            _, machine = rational_rotation(q, p)
            gen = from_deterministic(machine)
            result, _ = minimal_reduction(gen)
            assert len(result.reduced.states) == len(gen.states)
            values = list(result.quotient_map.values())
            assert len(set(values)) == len(values)

    def test_large_denominator_successors(self):
        # a linear scan for each successor would make this quadratic in p
        start = time.perf_counter()
        model, machine = rational_rotation(7, 4001)
        assert time.perf_counter() - start < 5.0
        assert len(machine.states) == 8002
        assert sorted(machine.f.values()) == sorted(machine.states)
        names = model.arc_names
        for i in range(0, len(names), 800):
            successor = arc_containing(model, model.arcs[i][0] + model.rotation)
            assert machine.f[names[i]] == names[successor]

    def test_not_coprime_rejected(self):
        with pytest.raises(ValueError):
            rational_rotation(2, 4)
        with pytest.raises(ValueError):
            rational_rotation(1, 0)


class TestMarkovShift:
    def test_k1_iid_reduces_to_one_state(self):
        cond = {
            ("0",): {"0": Fraction(1, 2), "1": Fraction(1, 2)},
            ("1",): {"0": Fraction(1, 2), "1": Fraction(1, 2)},
        }
        gen = markov_shift(1, cond)
        assert validate(gen) == []
        result, _ = minimal_reduction(gen)
        assert len(result.reduced.states) == 1

    def test_k2_encoding_of_order1_chain(self):
        p00, p01 = Fraction(1, 3), Fraction(2, 3)
        p10, p11 = Fraction(3, 4), Fraction(1, 4)
        row_for = {
            "0": {"0": p00, "1": p01},
            "1": {"0": p10, "1": p11},
        }
        cond2 = {
            (a, b): dict(row_for[b]) for a in "01" for b in "01"
        }
        gen2 = markov_shift(2, cond2)
        result, _ = minimal_reduction(gen2)
        assert len(result.reduced.states) == 2
        # same process as the k=1 encoding, checked on word tables to L=5
        cond1 = {("0",): row_for["0"], ("1",): row_for["1"]}
        gen1 = markov_shift(1, cond1)
        mu1 = Distribution.uniform(gen1.states)
        # uniform over the 4 history states marginalizes to a uniform last
        # symbol, matching the uniform k=1 start
        mu2 = Distribution({w: Fraction(1, 4) for w in gen2.states})
        t1 = word_distribution(gen1, mu1, 5)
        t2 = word_distribution(gen2, mu2, 5)
        assert dict(t1.probs) == dict(t2.probs)

    def test_golden_mean_condition(self):
        cond = {
            ("0",): {"0": Fraction(1, 2), "1": Fraction(1, 2)},
            ("1",): {"0": Fraction(1)},
        }
        gen = markov_shift(1, cond)
        result, _ = minimal_reduction(gen)
        assert len(result.reduced.states) == 2
        # generates the same process as the named golden-mean fixture
        gm, mu_gm = catalog("golden-mean")
        mu = Distribution({"0": Fraction(2, 3), "1": Fraction(1, 3)})
        assert equivalent(gen, mu, gm, mu_gm)

    def test_bad_rows_rejected(self):
        with pytest.raises(RowNotNormalizedError):
            markov_shift(1, {("0",): {"0": Fraction(1, 2)}, ("1",): {"0": 1}})
        with pytest.raises(RowNotNormalizedError):
            markov_shift(1, {("0",): {"0": Fraction(1), "1": Fraction(0)}})
        with pytest.raises(ValueError):
            markov_shift(0, {})

    def test_row_sum_message_stays_short(self):
        with pytest.raises(RowNotNormalizedError, match="sums to 3/4$"):
            markov_shift(1, {("0",): {"0": "1/4", "1": "1/2"}, ("1",): {"0": 1}})
        tiny = "0." + "0" * 4299 + "1"
        with pytest.raises(RowNotNormalizedError) as info:
            markov_shift(1, {("0",): {"0": tiny}, ("1",): {"0": 1}})
        assert str(info.value) == "conditional row of '0' sums to <1 digit>/<4301 digits>"

    def test_missing_row_rejected(self):
        cond = {("0",): {"0": Fraction(1, 2), "1": Fraction(1, 2)}}
        with pytest.raises(RowNotNormalizedError):
            markov_shift(1, cond)


class TestCatalog:
    def test_all_fixtures_validate(self):
        for name in FIXTURE_NAMES:
            gen, mu = catalog(name)
            assert validate(gen) == [], name
            assert sum(mu.weights.values()) == 1
            assert all(x in gen.state_index for x in mu.support)

    def test_fixtures_round_trip_json(self):
        for name in FIXTURE_NAMES:
            gen, mu = catalog(name)
            text = dump_generator(gen, mu)
            gen2, initial2 = parse_generator_text(text)
            assert gen2 == gen
            assert Distribution(initial2) == mu
            assert dump_generator(gen2, Distribution(initial2)) == text

    def test_fixtures_are_stable_across_calls(self):
        for name in FIXTURE_NAMES:
            a, mu_a = catalog(name)
            b, mu_b = catalog(name)
            assert a == b and mu_a == mu_b

    def test_parity4_matches_hand_built(self):
        gen, _ = catalog("parity-4")
        assert gen.kernel["0"] == {("1", "1"): 1}
        assert gen.kernel["1"] == {("2", "0"): 1}
        assert gen.kernel["2"] == {("3", "1"): 1}
        assert gen.kernel["3"] == {("0", "0"): 1}

    def test_golden_mean_redundant_reduces_to_golden_mean(self):
        redundant, mu_r = catalog("golden-mean-redundant")
        assert len(redundant.states) == 3
        result, _ = minimal_reduction(redundant)
        assert len(result.reduced.states) == 2
        gm, mu_gm = catalog("golden-mean")
        assert equivalent(
            result.reduced, pushforward(mu_r, result.quotient_map), gm, mu_gm
        )

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixtureError):
            catalog("nonesuch")
