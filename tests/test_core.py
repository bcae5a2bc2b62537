import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genred import (
    DeterministicGenerator,
    Distribution,
    Generator,
    Partition,
    UnknownStateError,
    UnknownSymbolError,
    as_fraction,
    from_deterministic,
    fraction_str,
    pushforward,
    rational_rotation,
    validate,
    word_distribution,
)
from genred.errors import echo_number
from genred.formats import dump_dot, dump_generator
from helpers import brute_word_probability, random_generator, read_exact, refines


def fair_coin():
    return Generator(
        ["q"], ["h", "t"],
        {"q": {("q", "h"): Fraction(1, 2), ("q", "t"): Fraction(1, 2)}},
    )


class TestValidate:
    def test_fair_coin_is_valid(self):
        assert validate(fair_coin()) == []

    def test_bad_row_sum_reported(self):
        gen = Generator(
            ["q"], ["h", "t"],
            {"q": {("q", "h"): Fraction(1, 2), ("q", "t"): Fraction(1, 3)}},
        )
        report = validate(gen)
        assert report == ["row q sums to 5/6"]

    def test_duplicate_names_reported(self):
        gen = Generator(["q", "q"], ["h", "h"], {"q": {("q", "h"): 1}})
        report = validate(gen)
        assert "duplicate state name q" in report
        assert "duplicate symbol name h" in report

    def test_out_of_range_entry_reported(self):
        gen = Generator(
            ["q"], ["h"],
            {"q": {("q", "h"): Fraction(3, 2)}},
        )
        report = validate(gen)
        assert any("outside [0, 1]" in line for line in report)
        assert any("row q sums to 3/2" in line for line in report)

    def test_long_names_are_cut_to_forty_characters(self):
        state, symbol = "q" * 100_000, "h" * 100_000
        gen = Generator([state, state], [symbol, symbol],
                        {state: {(state, symbol): Fraction(3, 2)}})
        q, h = "q" * 40, "h" * 40
        assert validate(gen) == [
            f"duplicate state name {q}",
            f"duplicate symbol name {h}",
            f"entry {q} -> ({q}, {h}) = 3/2 outside [0, 1]",
            f"row {q} sums to 3/2",
            f"entry {q} -> ({q}, {h}) = 3/2 outside [0, 1]",
            f"row {q} sums to 3/2",
        ]

    def test_entries_reported_in_canonical_order(self):
        gen = Generator(["q", "r"], ["h", "t"], {
            "q": {("r", "t"): Fraction(-1), ("r", "h"): Fraction(2), ("q", "t"): 0},
            "r": {("r", "h"): 1},
        })
        assert validate(gen) == [
            "entry q -> (r, h) = 2/1 outside [0, 1]",
            "entry q -> (r, t) = -1/1 outside [0, 1]",
        ]

    def test_missing_row_reported_as_zero_sum(self):
        gen = Generator(["q", "r"], ["h"], {"q": {("r", "h"): 1}})
        assert validate(gen) == ["row r sums to 0/1"]


class TestConstructors:
    def test_from_deterministic_mod4_cycle(self):
        states = [str(i) for i in range(4)]
        dg = DeterministicGenerator(
            states, ["0", "1"],
            f={str(i): str((i + 1) % 4) for i in range(4)},
            g={str(i): str(i % 2) for i in range(4)},
        )
        gen = from_deterministic(dg)
        assert gen.kernel["0"] == {("1", "1"): 1}
        assert all(len(gen.kernel[x]) == 1 for x in states)
        assert validate(gen) == []

    def test_from_deterministic_identity_constant(self):
        states = ["u", "v"]
        dg = DeterministicGenerator(
            states, ["c"], f={"u": "u", "v": "v"}, g={"u": "c", "v": "c"}
        )
        gen = from_deterministic(dg)
        for x in states:
            assert gen.kernel[x] == {(x, "c"): 1}

    def test_rotation_p4_arcs_round_trip(self):
        # hand-built arc dynamics for a quarter turn: a0->a1->a2->a3->a0,
        # with the upper-half arcs labeled "1" and the lower-half "2"
        _, machine = rational_rotation(1, 4)
        gen = from_deterministic(machine)
        expected = {
            "a0": {("a1", "1"): Fraction(1)},
            "a1": {("a2", "2"): Fraction(1)},
            "a2": {("a3", "2"): Fraction(1)},
            "a3": {("a0", "1"): Fraction(1)},
        }
        assert gen.kernel == expected

    def test_kernel_with_undeclared_names_rejected(self):
        with pytest.raises(UnknownStateError):
            Generator(["q"], ["h"], {"q": {("r", "h"): 1}})
        with pytest.raises(UnknownSymbolError):
            Generator(["q"], ["h"], {"q": {("q", "x"): 1}})
        with pytest.raises(UnknownStateError):
            Generator(["q"], ["h"], {"r": {("q", "h"): 1}})

    def test_rows_stored_in_canonical_order(self):
        states, symbols = ["a", "b", "c"], ["0", "1"]
        canonical = {
            x: {(y, s): Fraction(1, 6) for y in states for s in symbols} for x in states
        }
        backwards = {x: dict(reversed(canonical[x].items())) for x in reversed(states)}
        gen = Generator(states, symbols, backwards)
        assert [list(gen.kernel[x]) for x in states] == [list(canonical[x]) for x in states]
        same = Generator(states, symbols, canonical)
        assert dump_generator(gen) == dump_generator(same)
        assert dump_dot(gen) == dump_dot(same)


class TestDistributions:
    def test_delta_table_matches_row_process(self):
        rnd = random.Random(11)
        gen = random_generator(rnd, max_states=3, max_symbols=2)
        x = gen.states[0]
        table = word_distribution(gen, Distribution.point(x), 3)
        for w, p in table.probs.items():
            assert p == brute_word_probability(gen, Distribution.point(x), w)

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Distribution({"a": Fraction(1, 2), "b": Fraction(1, 3)})
        with pytest.raises(ValueError):
            Distribution({"a": Fraction(3, 2), "b": Fraction(-1, 2)})

    def test_out_of_range_weight_message_is_short(self):
        with pytest.raises(ValueError, match="^weight of 'a' is 3/2, outside"):
            Distribution({"a": Fraction(3, 2), "b": Fraction(-1, 2)})
        with pytest.raises(ValueError) as exc:
            Distribution({"Z" * 100_000: 2})
        assert str(exc.value) == f"weight of {'Z' * 40!r} is 2, outside [0, 1]"

    def test_pushforward_identity(self):
        d = Distribution({"a": Fraction(1, 4), "b": Fraction(3, 4)})
        assert pushforward(d, {"a": "a", "b": "b"}) == d

    def test_pushforward_constant_map(self):
        d = Distribution({"a": Fraction(1, 4), "b": Fraction(3, 4)})
        assert pushforward(d, {"a": "z", "b": "z"}).weights == {"z": 1}

    def test_pushforward_mod2_quotient(self):
        d = Distribution.uniform(["0", "1", "2", "3"])
        image = pushforward(d, {"0": "even", "1": "odd", "2": "even", "3": "odd"})
        assert image.weights == {"even": Fraction(1, 2), "odd": Fraction(1, 2)}

    def test_pushforward_preserves_mass(self):
        rnd = random.Random(3)
        for _ in range(25):
            states = [f"q{i}" for i in range(rnd.randint(1, 6))]
            weights = {}
            remaining = 60
            for x in states[:-1]:
                w = rnd.randint(0, remaining)
                weights[x] = Fraction(w, 60)
                remaining -= w
            weights[states[-1]] = Fraction(remaining, 60)
            d = Distribution(weights)
            f = {x: rnd.choice(states) for x in states}
            assert sum(pushforward(d, f).weights.values()) == 1

    def test_pushforward_partial_map_rejected(self):
        d = Distribution.uniform(["a", "b"])
        with pytest.raises(UnknownStateError):
            pushforward(d, {"a": "a"})


class TestPartition:
    def test_canonical_form(self):
        from genred import Partition

        p = Partition([("c", "a"), ("b",)], ["a", "b", "c"])
        assert p.blocks == (("a", "c"), ("b",))
        assert p == Partition([("a", "c"), ("b",)], ["a", "b", "c"])
        assert p.block_of("c") == ("a", "c")

    def test_cover_and_disjointness_enforced(self):
        from genred import Partition

        with pytest.raises(ValueError):
            Partition([("a",)], ["a", "b"])  # missing b
        with pytest.raises(ValueError):
            Partition([("a", "b"), ("b",)], ["a", "b"])  # b twice
        with pytest.raises(UnknownStateError):
            Partition([("a", "z")], ["a"])

    def test_trivial_and_singletons(self):
        from genred import Partition

        states = ["x", "y", "z"]
        assert len(Partition.trivial(states)) == 1
        singles = Partition.singletons(states)
        assert len(singles) == 3
        assert refines(singles, Partition.trivial(states))
        assert not refines(Partition.trivial(states), singles)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    def test_grouped_equals_constructor(self, keys):
        states = [f"q{i}" for i in range(len(keys))]
        key = dict(zip(states, keys))
        groups = [[x for x in states if key[x] == k] for k in set(keys)]
        assert Partition.grouped(states, key.__getitem__) == Partition(groups, states)


class TestExactArithmetic:
    def test_fraction_laws_spot_checks(self):
        a, b, c = Fraction(3, 7), Fraction(-5, 11), Fraction(13, 6)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c

    def test_no_overflow_with_large_denominators(self):
        # denominator near 1e6, word of length 12: values stay exact
        d = 999983
        p = Fraction(1, d)
        gen = Generator(
            ["q"], ["u", "v"],
            {"q": {("q", "u"): p, ("q", "v"): 1 - p}},
        )
        table = word_distribution(gen, Distribution.point("q"), 0)
        assert table[()] == 1
        word = tuple("u") * 12
        from genred import word_probability

        assert word_probability(gen, Distribution.point("q"), word) == p ** 12
        assert (p ** 12).denominator == d ** 12

    def test_as_fraction_rejects_floats(self):
        with pytest.raises(TypeError):
            as_fraction(0.25)
        assert as_fraction("0.25") == Fraction(1, 4)
        assert as_fraction("3/4") == Fraction(3, 4)

    def test_fraction_str_always_shows_denominator(self):
        assert fraction_str(Fraction(1)) == "1/1"
        assert fraction_str(Fraction(2, 4)) == "1/2"


class TestNumberLanguage:
    def test_fraction_and_int_pass_through(self):
        half = Fraction(1, 2)
        assert as_fraction(half) is half
        assert as_fraction(3) == Fraction(3) and as_fraction(True) == 1
        assert as_fraction(" -6/4 ") == Fraction(-3, 2)
        assert as_fraction("25e-2") == as_fraction(".25") == as_fraction("1/4")

    @pytest.mark.parametrize("text", ["1_0/20", "+1/2", "1 / 2", "1/ 2", "0x10",
                                      "1e1_0", "١/٢", "", "1/-2", "inf", "nan"])
    def test_outside_the_language_on_every_python(self, text):
        with pytest.raises(ValueError, match="not an integer, n/d or decimal"):
            as_fraction(text)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            as_fraction("1/0")

    def test_oversized_strings_overflow_at_once(self):
        start = time.perf_counter()
        for text, reason in (("1e-40000000", "exponent longer than 3 digits"),
                             ("1" * 4301 + "/2", "more than 4300 digits")):
            with pytest.raises(OverflowError, match=reason):
                as_fraction(text)
        assert time.perf_counter() - start < 0.5

    def test_fraction_str_past_the_int_digit_cap(self):
        cap = sys.get_int_max_str_digits()
        assert fraction_str(Fraction(1, 10**4300)) == "1/1" + "0" * 4300
        assert fraction_str(Fraction(-(10**9000) - 7, 3)) == "-1" + "0" * 8999 + "7/3"
        rnd = random.Random(11)
        for _ in range(20):
            num, den = rnd.getrandbits(rnd.randint(14_000, 70_000)), rnd.getrandbits(40) | 1
            value = Fraction(-num, den)
            assert read_exact(fraction_str(value)) == value
        assert sys.get_int_max_str_digits() == cap

    def test_echo_number_prints_short_values_as_before(self):
        for value in (Fraction(1, 2), Fraction(-3), Fraction(10**37, 7)):
            assert echo_number(value) == str(value)
            assert echo_number(value, slash=True) == fraction_str(value)

    def test_echo_number_shows_long_values_by_digit_counts(self):
        assert echo_number(Fraction(1, 10**4300)) == "<1 digit>/<4301 digits>"
        assert echo_number(Fraction(-(10**40))) == "-<41 digits>/<1 digit>"
        assert echo_number(Fraction(10**41 - 1, 10**39 + 1), slash=True) == (
            "<41 digits>/<40 digits>"
        )

    def test_messages_with_long_values_stay_short(self):
        tiny = as_fraction("0." + "0" * 4299 + "1")
        big = as_fraction("1." + "0" * 4000 + "1")
        gen = Generator(["q"], ["a"], {"q": {("q", "a"): big}})
        report = validate(gen)
        assert len(report) == 2 and all(len(line) < 300 for line in report)
        for weights in ({"a": tiny, "b": 0}, {"a": big, "b": 1 - big}):
            with pytest.raises(ValueError) as info:
                Distribution(weights)
            assert len(str(info.value)) < 300
