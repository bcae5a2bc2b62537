import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genred import (
    Distribution,
    EventReducedGenerator,
    Generator,
    Morphism,
    Partition,
    SizeLimitError,
    catalog,
    causal_state_partition,
    complete_randomness,
    event_reduction,
    from_deterministic,
    minimal_reduction,
    pushforward,
    rational_rotation,
    sigma_observation_partition,
    state_reduction,
    validate,
    verify,
    word_distribution,
)
from genred.catalog import arc_length_distribution
from genred.core import DeterministicGenerator
from genred.formats import dump_generator
from helpers import (
    coarsest_partition_oracle,
    equal_row_partition,
    label_sequence_partition,
    lift,
    mixed_state_machine,
    naive_event_reduction,
    random_deterministic,
    random_distribution,
    random_generator,
    reference_quotient,
)


def parity4_machine() -> DeterministicGenerator:
    states = [str(i) for i in range(4)]
    return DeterministicGenerator(
        states, ["0", "1"],
        f={str(i): str((i + 1) % 4) for i in range(4)},
        g={str(i): str(i % 2) for i in range(4)},
    )


class TestEventReduction:
    def test_complete_randomness_collapses_to_one_block(self):
        gen = complete_randomness(Distribution.uniform(["a", "b", "c"]))
        erg = event_reduction(gen)
        assert erg.partition == Partition.trivial(gen.states)

    def test_parity4(self):
        gen = from_deterministic(parity4_machine())
        erg = event_reduction(gen)
        assert erg.partition.blocks == (("0", "2"), ("1", "3"))

    def test_distinct_point_rows_stay_discrete(self):
        gen = Generator(
            ["x", "y", "z"], ["a", "b", "c"],
            {
                "x": {("y", "a"): 1},
                "y": {("z", "b"): 1},
                "z": {("x", "c"): 1},
            },
        )
        erg = event_reduction(gen)
        assert erg.partition == Partition.singletons(gen.states)

    def test_reduced_kernel_aggregates_blocks(self):
        gen, _ = catalog("golden-mean-redundant")
        erg = event_reduction(gen)
        assert erg.partition.blocks == (("A",), ("B", "C"))
        block_bc = erg.partition.blocks.index(("B", "C"))
        assert erg.reduced_kernel["A"][(block_bc, "1")] == Fraction(1, 2)

    def test_stability_invariant_rechecked_on_construction(self):
        gen, _ = catalog("golden-mean")
        # rows over the one-block partition differ between A and B, so the
        # one-block partition is not stable for this generator
        with pytest.raises(ValueError):
            EventReducedGenerator(gen, Partition.trivial(gen.states))

    def test_cancelling_signed_masses_count_as_no_mass(self):
        # not a valid kernel: x's two a-entries cancel, so every state moves
        # its whole mass into the one block emitting b
        gen = Generator(
            ["x", "y", "z"], ["a", "b"],
            {
                "x": {("y", "a"): Fraction(1, 2), ("z", "a"): Fraction(-1, 2),
                      ("x", "b"): 1},
                "y": {("x", "b"): 1},
                "z": {("x", "b"): 1},
            },
        )
        erg = event_reduction(gen)
        assert erg.partition == Partition.trivial(gen.states)
        assert erg.reduced_kernel["x"] == {(0, "b"): Fraction(1)}

    def test_single_state_is_identity(self):
        gen = Generator(["q"], ["a"], {"q": {("q", "a"): 1}})
        erg = event_reduction(gen)
        assert erg.partition == Partition.trivial(["q"])
        result, _ = minimal_reduction(gen)
        assert result.reduced.states == ("c_q",)
        assert validate(result.reduced) == []


class TestSigmaObservationPartition:
    def test_constant_observation_gives_one_block(self):
        states = ["x", "y", "z"]
        dg = DeterministicGenerator(
            states, ["a", "b"],
            f={"x": "y", "y": "z", "z": "x"},
            g={"x": "a", "y": "a", "z": "a"},
        )
        assert sigma_observation_partition(dg) == Partition.trivial(states)

    def test_parity4(self):
        assert sigma_observation_partition(parity4_machine()).blocks == (
            ("0", "2"),
            ("1", "3"),
        )

    def test_rotation_atom_counts(self):
        _, machine3 = rational_rotation(1, 3)
        _, machine4 = rational_rotation(1, 4)
        assert len(sigma_observation_partition(machine3)) == 6
        assert len(sigma_observation_partition(machine4)) == 4

    def test_equals_event_partition_of_kernel_form(self):
        rnd = random.Random(606)
        for _ in range(40):
            dg = random_deterministic(rnd, max_states=12, max_symbols=4)
            assert sigma_observation_partition(dg) == event_reduction(
                from_deterministic(dg)
            ).partition

    def test_equals_label_sequence_grouping(self):
        rnd = random.Random(607)
        for _ in range(20):
            dg = random_deterministic(rnd, max_states=10, max_symbols=3)
            assert sigma_observation_partition(dg) == label_sequence_partition(
                dg, len(dg.states)
            )


class TestStateReduction:
    def test_distinct_rows_identity(self):
        gen, _ = catalog("golden-mean")
        result = state_reduction(gen)
        assert len(result.reduced.states) == len(gen.states)
        assert sorted(set(result.quotient_map.values())) == sorted(
            result.reduced.states
        )

    def test_duplicate_rows_merge_and_preserve_words(self):
        gen, mu = catalog("golden-mean-redundant")
        result = state_reduction(gen)
        assert result.quotient_map["B"] == result.quotient_map["C"]
        assert len(result.reduced.states) == 2
        nu = pushforward(mu, result.quotient_map)
        before = word_distribution(gen, mu, 5)
        after = word_distribution(result.reduced, nu, 5)
        assert dict(before.probs) == dict(after.probs)

    def test_randomness_after_event_reduction_is_one_class(self):
        mu = Distribution({"a": Fraction(1, 3), "b": Fraction(2, 3)})
        gen = complete_randomness(mu)
        result = minimal_reduction(gen)[0]
        assert result.reduced.states == ("c_a",)
        # the single surviving row emits each symbol with its source mass
        assert result.reduced.kernel["c_a"] == {
            ("c_a", "a"): Fraction(1, 3),
            ("c_a", "b"): Fraction(2, 3),
        }


class TestStateReductionReduced:
    def test_rotation_p4_gives_four_state_permutation(self):
        model, machine = rational_rotation(1, 4)
        gen = from_deterministic(machine)
        result = minimal_reduction(gen)[0]
        assert len(result.reduced.states) == 4
        targets = [next(iter(result.reduced.kernel[x]))[0] for x in result.reduced.states]
        assert sorted(targets) == sorted(result.reduced.states)
        # observed words survive the quotient, against the circle itself
        mu = arc_length_distribution(model)
        nu = pushforward(mu, result.quotient_map)
        before = word_distribution(gen, mu, 4)
        after = word_distribution(result.reduced, nu, 4)
        assert dict(before.probs) == dict(after.probs)

    def test_already_minimal_is_identity(self):
        gen, _ = catalog("golden-mean")
        result = minimal_reduction(gen)[0]
        assert len(result.reduced.states) == len(gen.states)
        values = list(result.quotient_map.values())
        assert len(set(values)) == len(values)

    def test_classes_equal_event_blocks(self):
        rnd = random.Random(11811)
        for _ in range(40):
            gen = random_generator(rnd, max_states=6, max_symbols=3)
            result, erg = minimal_reduction(gen)
            assert len(result.reduced.states) == len(erg.partition)


class TestMinimalReduction:
    def test_complete_randomness_to_one_state(self):
        gen, mu = catalog("randomness-2")
        result, erg = minimal_reduction(gen)
        assert len(result.reduced.states) == 1
        assert erg.partition == Partition.trivial(gen.states)

    def test_golden_mean_redundant_to_two_states(self):
        gen, mu = catalog("golden-mean-redundant")
        result, _ = minimal_reduction(gen)
        assert len(result.reduced.states) == 2
        nu = pushforward(mu, result.quotient_map)
        before = word_distribution(gen, mu, 6)
        after = word_distribution(result.reduced, nu, 6)
        assert dict(before.probs) == dict(after.probs)

    def test_preserves_word_tables_random(self):
        rnd = random.Random(40000)
        for _ in range(30):
            gen = random_generator(rnd, max_states=5, max_symbols=3)
            mu = random_distribution(rnd, gen.states)
            result, _ = minimal_reduction(gen)
            assert validate(result.reduced) == []
            nu = pushforward(mu, result.quotient_map)
            length = rnd.randint(1, 4)
            before = word_distribution(gen, mu, length)
            after = word_distribution(result.reduced, nu, length)
            assert dict(before.probs) == dict(after.probs)

    def test_reduced_rows_pairwise_distinct(self):
        rnd = random.Random(41000)
        for _ in range(25):
            gen = random_generator(rnd, max_states=6, max_symbols=2)
            result, _ = minimal_reduction(gen)
            rows = [
                tuple(sorted(result.reduced.kernel[x].items()))
                for x in result.reduced.states
            ]
            assert len(set(rows)) == len(rows)

    def test_idempotent(self):
        rnd = random.Random(42000)
        fixtures = [catalog(n)[0] for n in (
            "randomness-2", "rotation-p4", "rotation-p3",
            "golden-mean", "golden-mean-redundant", "parity-4",
        )]
        randoms = [random_generator(rnd, max_states=6, max_symbols=3) for _ in range(20)]
        for gen in fixtures + randoms:
            first, _ = minimal_reduction(gen)
            second, erg2 = minimal_reduction(first.reduced)
            values = list(second.quotient_map.values())
            assert len(set(values)) == len(values) == len(first.reduced.states)
            assert erg2.partition == Partition.singletons(first.reduced.states)


class TestOneQuotientBuilder:
    """Both reductions read their quotient off the certified rows of one
    EventReducedGenerator."""

    def test_minimal_reduction_images_each_state_once(self, monkeypatch):
        module = importlib.import_module("genred.reduce")
        original, calls = module.image, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "image", counted)
        gen, _ = lift(random.Random(5), catalog("golden-mean")[0], 3)
        _, erg = minimal_reduction(gen)
        assert 1 < len(erg.partition) < len(gen.states)
        assert len(calls) == len(gen.states)

    def test_state_reduction_is_certified(self, monkeypatch):
        module = importlib.import_module("genred.reduce")
        certified = []

        def recorded(gen, partition):
            certified.append(partition)
            return EventReducedGenerator(gen, partition)

        monkeypatch.setattr(module, "EventReducedGenerator", recorded)
        gen = catalog("golden-mean-redundant")[0]
        result = state_reduction(gen)
        assert certified == [equal_row_partition(gen)]
        assert len(result.reduced.states) == 2


@st.composite
def generators_and_lifts(draw):
    """Random generators with small denominators, so that equal rows and
    nontrivial event partitions are common, half of them lifted."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    gen = random_generator(
        rnd, max_states=5, max_symbols=3, denom=draw(st.sampled_from((1, 2, 4, 12)))
    )
    if draw(st.booleans()):
        gen, _ = lift(rnd, gen, draw(st.integers(2, 3)))
    return gen


@settings(max_examples=150, deadline=None)
@given(generators_and_lifts())
def test_both_reductions_match_reference_quotient(gen):
    for result, partition in (
        (state_reduction(gen), equal_row_partition(gen)),
        (minimal_reduction(gen)[0], naive_event_reduction(gen)[0]),
    ):
        reduced, quotient = reference_quotient(gen, partition)
        assert result.reduced == reduced
        assert list(result.quotient_map.items()) == list(quotient.items())
        assert dump_generator(result.reduced) == dump_generator(reduced)


class TestPredictionCoarserThanLumping:
    """A valid generator whose causal classes merge states that no stable
    partition joins, and whose recurrent mixed-state machine is a fair coin:
    here the lumping-minimal generator is not the epsilon-machine."""

    def generator(self) -> Generator:
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        return Generator(
            ["q0", "q1", "q2", "q3", "q4"], ["a", "b"],
            {
                "q0": {("q3", "a"): 1},
                "q1": {("q4", "a"): Fraction(2, 3), ("q3", "a"): Fraction(1, 3)},
                "q2": {("q0", "a"): quarter, ("q3", "b"): half, ("q4", "a"): quarter},
                "q3": {("q2", "a"): half, ("q2", "b"): half},
                "q4": {("q2", "b"): 1},
            },
        )

    def test_lumping_keeps_every_state(self):
        gen = self.generator()
        assert validate(gen) == []
        assert event_reduction(gen).partition == Partition.singletons(gen.states)
        assert len(minimal_reduction(gen)[0].reduced.states) == 5

    def test_causal_classes_are_coarser(self):
        assert causal_state_partition(self.generator()).blocks == (
            ("q0",), ("q1",), ("q2", "q3"), ("q4",),
        )

    def test_recurrent_mixed_states_are_a_fair_coin(self):
        gen = self.generator()
        msm, _ = mixed_state_machine(gen)
        (state,) = msm.states
        half = Fraction(1, 2)
        assert msm.kernel[state] == {(state, "a"): half, (state, "b"): half}
        table = word_distribution(gen, Distribution.point("q2"), 10)
        assert all(p == Fraction(1, 2 ** len(w)) for w, p in table.probs.items())


class TestCoarsestPartitionOracle:
    def test_randomness_and_parity(self):
        gen = complete_randomness(Distribution.uniform(["a", "b"]))
        assert coarsest_partition_oracle(gen) == Partition.trivial(gen.states)
        parity = from_deterministic(parity4_machine())
        assert coarsest_partition_oracle(parity).blocks == (("0", "2"), ("1", "3"))

    def test_matches_event_reduction_random(self):
        rnd = random.Random(52000)
        for _ in range(60):
            gen = random_generator(rnd, max_states=5, max_symbols=3)
            assert coarsest_partition_oracle(gen) == event_reduction(gen).partition

    def test_size_limited(self):
        states = [f"q{i}" for i in range(9)]
        kernel = {x: {(x, "a"): Fraction(1)} for x in states}
        gen = Generator(states, ["a"], kernel)
        with pytest.raises(SizeLimitError):
            coarsest_partition_oracle(gen)


class TestMinimalityInjectivity:
    def _verifying_state_maps(self, reduced: Generator, target: Generator):
        """Exhaustively enumerate state maps reduced -> target and keep the
        ones that are transition preserving with the identity symbol map."""
        identity = {s: s for s in reduced.alphabet}
        found = []
        n = len(target.states)
        for code in range(n ** len(reduced.states)):
            value = code
            f = {}
            for x in reduced.states:
                f[x] = target.states[value % n]
                value //= n
            morphism = Morphism(reduced, target, f, identity)
            ok, _ = verify(morphism)
            if ok:
                found.append(f)
        return found

    def test_maps_into_equivalent_generators_are_injective(self):
        rnd = random.Random(71000)
        cases = [catalog("golden-mean-redundant")[0], catalog("randomness-2")[0]]
        cases += [random_generator(rnd, max_states=4, max_symbols=2) for _ in range(8)]
        for gen in cases:
            result, _ = minimal_reduction(gen)
            reduced = result.reduced
            if len(reduced.states) > 4 or len(gen.states) > 4:
                continue
            # targets generating the same set of processes: the original
            # generator, the reduced generator itself, and a state-duplicated copy
            duplicated = _duplicate_first_state(reduced)
            for target in (gen, reduced, duplicated):
                for f in self._verifying_state_maps(reduced, target):
                    images = list(f.values())
                    assert len(set(images)) == len(images), (
                        f"non-injective transition-preserving map {f}"
                    )


def _duplicate_first_state(gen: Generator) -> Generator:
    """Add an exact copy of the first state (same outgoing row); the copy is
    unreachable from elsewhere but generates the same process as the
    original, so the set of generated processes is unchanged."""
    first = gen.states[0]
    copy = first + "_dup"
    states = list(gen.states) + [copy]
    kernel = {x: dict(gen.kernel[x]) for x in gen.states}
    kernel[copy] = dict(gen.kernel[first])
    return Generator(states, gen.alphabet, kernel)
