"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its runtime budget.  Run with `pytest tests/test_acceptance.py -v`
(add -s to see the pass lines as they happen)."""

import json
import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

from genred import (
    Distribution,
    Morphism,
    catalog,
    causal_state_partition,
    check_transport,
    equivalent,
    event_reduction,
    from_deterministic,
    markov_shift,
    minimal_reduction,
    pushforward,
    rational_rotation,
    relabel_outputs,
    shortest_distinguishing_word,
    sigma_observation_partition,
    word_distribution,
)
from genred.catalog import FIXTURE_NAMES
from genred.cli import run
from genred.core import Partition
from genred.formats import dump_generator, parse_generator_text
from helpers import (
    coarsest_partition_oracle,
    label_sequence_partition,
    mixed_state_machine,
    random_deterministic,
    random_distribution,
    random_generator,
    random_unifilar,
    recurrent_part,
    rotation_breakpoints,
)


def _timed(n: int, budget: float, description: str):
    class Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.start
            if exc_type is None:
                assert elapsed < budget, (
                    f"criterion {n} exceeded budget: {elapsed:.2f}s >= {budget}s"
                )
                print(f"criterion {n:02d} PASS ({elapsed:.2f}s): {description}")
            else:
                print(f"criterion {n:02d} FAIL: {description}")
            return False

    return Timer()


def _suite3_machines():
    rnd = random.Random(0xA3)
    return [random_deterministic(rnd, max_states=12, max_symbols=4) for _ in range(200)]


def _suite4_instances():
    rnd = random.Random(0xA4)
    out = []
    for _ in range(200):
        gen = random_generator(rnd, max_states=6, max_symbols=3)
        out.append((gen, random_distribution(rnd, gen.states)))
    return out


def _suite5_generators():
    rnd = random.Random(0xA5)
    return [random_generator(rnd, max_states=5, max_symbols=3) for _ in range(200)]


def test_criterion_01_complete_randomness_reduces_to_one_state(tmp_path):
    with _timed(1, 1.0, "full reduction of randomness-2 is a 1-state emitter of mu"):
        gen, mu = catalog("randomness-2")
        path = tmp_path / "randomness-2.json"
        path.write_text(dump_generator(gen, mu))
        out = tmp_path / "reduced.json"
        assert run(["reduce", str(path), "--mode", "full", "--out", str(out)]) == 0
        reduced, initial = parse_generator_text(out.read_text())
        assert len(reduced.states) == 1
        (state,) = reduced.states
        assert reduced.kernel[state] == {
            (state, "a"): Fraction(1, 2),
            (state, "b"): Fraction(1, 2),
        }
        assert initial == {state: Fraction(1)}


def test_criterion_02_rational_rotation_arcs_and_discreteness():
    from genred import rational_rotation

    for q, p in ((1, 1), (1, 3), (1, 4), (2, 5), (1, 6)):
        with _timed(2, 1.0, f"rotation {q}/{p}: arc count law + discrete event partition"):
            model, machine = rational_rotation(q, p)
            expected = p if p % 2 == 0 else 2 * p
            assert len(model.arcs) == expected
            assert model.breakpoints == tuple(sorted(rotation_breakpoints(q, p)))
            erg = event_reduction(from_deterministic(machine))
            assert erg.partition == Partition.singletons(machine.states)


def test_criterion_03_observation_partition_equals_event_partition():
    with _timed(3, 30.0, "sigma-observation partition = event partition, 200 machines"):
        for dg in _suite3_machines():
            observed = sigma_observation_partition(dg)
            assert observed == event_reduction(from_deterministic(dg)).partition
            assert observed == label_sequence_partition(dg, len(dg.states))


def test_criterion_04_minimal_reduction_preserves_word_tables():
    with _timed(4, 60.0, "word tables to L=6 preserved by minimal reduction, 200 runs"):
        for gen, mu in _suite4_instances():
            result, _ = minimal_reduction(gen)
            nu = pushforward(mu, result.quotient_map)
            before = word_distribution(gen, mu, 6)
            after = word_distribution(result.reduced, nu, 6)
            assert dict(before.probs) == dict(after.probs)


def test_criterion_05_event_reduction_matches_exhaustive_oracle():
    with _timed(5, 60.0, "event reduction = all-partitions oracle, 200 generators"):
        for gen in _suite5_generators():
            assert event_reduction(gen).partition == coarsest_partition_oracle(gen)


def test_criterion_06_causal_states_equal_row_equality_classes():
    with _timed(6, 30.0, "causal partition = reduced-row equality, 100 machines"):
        rnd = random.Random(0xA6)
        for _ in range(100):
            dg = random_deterministic(rnd, max_states=10, max_symbols=3)
            gen = from_deterministic(dg)
            erg = event_reduction(gen)
            groups: dict[tuple, list[str]] = {}
            for x in gen.states:
                sig = tuple(sorted(erg.reduced_kernel[x].items()))
                groups.setdefault(sig, []).append(x)
            row_partition = Partition(list(groups.values()), gen.states)
            assert causal_state_partition(gen) == row_partition


def test_criterion_07_transport_identities():
    with _timed(7, 30.0, "transport identity to L=5 on 120 morphisms"):
        rnd = random.Random(0xA7)
        for _ in range(60):
            gen = random_generator(rnd, max_states=5, max_symbols=3)
            mu = random_distribution(rnd, gen.states)
            result, _ = minimal_reduction(gen)
            quotient = Morphism(
                gen,
                result.reduced,
                dict(result.quotient_map),
                {s: s for s in gen.alphabet},
            )
            assert check_transport(quotient, mu, 5)
        for _ in range(60):
            gen = random_generator(rnd, max_states=4, max_symbols=3)
            mu = random_distribution(rnd, gen.states)
            image = ("u", "v")
            g = {s: rnd.choice(image) for s in gen.alphabet}
            target = relabel_outputs(gen, g, alphabet=image if set(g.values()) == set(image) else None)
            relabel = Morphism(gen, target, {x: x for x in gen.states}, g)
            assert check_transport(relabel, mu, 5)


def test_criterion_08_equivalence_agrees_with_word_enumeration():
    with _timed(8, 60.0, "equiv = exhaustive enumeration to |Q1|+|Q2|, 115 pairs"):
        rnd = random.Random(0xA8)
        for _ in range(100):
            k = rnd.randint(1, 3)
            gen1 = random_generator(rnd, max_states=4, n_symbols=k)
            gen2 = random_generator(rnd, max_states=4, n_symbols=k)
            mu1 = random_distribution(rnd, gen1.states)
            mu2 = random_distribution(rnd, gen2.states)
            witness = shortest_distinguishing_word(gen1, mu1, gen2, mu2)
            assert equivalent(gen1, mu1, gen2, mu2) == (witness is None)
        for _ in range(15):
            gen = random_generator(rnd, max_states=4, max_symbols=3)
            mu = random_distribution(rnd, gen.states)
            result, _ = minimal_reduction(gen)
            nu = pushforward(mu, result.quotient_map)
            assert equivalent(gen, mu, result.reduced, nu)
            assert shortest_distinguishing_word(gen, mu, result.reduced, nu) is None


def test_criterion_09_minimal_reduction_is_idempotent():
    with _timed(9, 60.0, "second reduction is bijective on fixtures + suites 3-5"):
        generators = [catalog(name)[0] for name in FIXTURE_NAMES]
        generators += [from_deterministic(dg) for dg in _suite3_machines()]
        generators += [gen for gen, _ in _suite4_instances()]
        generators += _suite5_generators()
        for gen in generators:
            first, _ = minimal_reduction(gen)
            second, erg2 = minimal_reduction(first.reduced)
            values = list(second.quotient_map.values())
            assert len(set(values)) == len(values) == len(first.reduced.states)
            assert erg2.partition == Partition.singletons(first.reduced.states)


def test_criterion_10_affineness_and_marginal_consistency():
    with _timed(10, 60.0, "affine mixing + marginal consistency, 100 instances"):
        rnd = random.Random(0xAA)
        weights = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
        for i in range(100):
            gen = random_generator(rnd, max_states=5, max_symbols=3)
            mu1 = random_distribution(rnd, gen.states)
            mu2 = random_distribution(rnd, gen.states)
            t = weights[i % len(weights)]
            mixed = Distribution(
                {
                    x: (1 - t) * mu1(x) + t * mu2(x)
                    for x in gen.states
                    if (1 - t) * mu1(x) + t * mu2(x) != 0
                }
            )
            max_len = rnd.randint(1, 4)
            t1 = word_distribution(gen, mu1, max_len)
            t2 = word_distribution(gen, mu2, max_len)
            tm = word_distribution(gen, mixed, max_len)
            for w, p in tm.probs.items():
                assert p == (1 - t) * t1[w] + t * t2[w]
                if len(w) < max_len:
                    children = sum(
                        (tm[w + (s,)] for s in gen.alphabet), Fraction(0)
                    )
                    assert children == p


def test_criterion_11_recurrent_mixed_states_equal_minimal_reduction():
    """The epsilon-machine claim on the classes it covers: complete
    randomness, rational rotations, golden mean, parity, and order-k Markov
    shifts (k = 1, 2, 3) with strictly positive rows.  The recurrent mixed
    states, the minimal_reduction states and the causal classes are equally
    many, and each mixed state generates its belief's process.  The referee
    starts from point masses, because from a uniform start the transient
    mixed states are often infinite.  A shift with a zero entry is left out:
    its forbidden words leave transient history states, which
    minimal_reduction keeps."""
    with _timed(11, 30.0, "recurrent mixed states = minimal reduction, "
                "fixtures + 46 rotations + 18 Markov shifts"):
        fixtures = [catalog(name)[0] for name in FIXTURE_NAMES]
        rotations = [
            from_deterministic(rational_rotation(q, p)[1])
            for p in range(1, 13)
            for q in range(p)
            if gcd(q, p) == 1
        ]
        rnd = random.Random(0xAB)
        shifts = []
        for k, symbols, _ in product((1, 2, 3), ("01", "012"), range(3)):
            cond = {}
            for w in product(symbols, repeat=k):
                weights = [rnd.randint(1, 4) for _ in symbols]
                cond[w] = {s: Fraction(n, sum(weights)) for s, n in zip(symbols, weights)}
            shifts.append(markov_shift(k, cond))
        counts = []
        for gen in fixtures + rotations + shifts:
            msm, beliefs = mixed_state_machine(gen)
            result, _ = minimal_reduction(gen)
            assert len(msm.states) == len(result.reduced.states)
            assert len(msm.states) == len(causal_state_partition(gen))
            for state, belief in beliefs.items():
                assert equivalent(gen, belief, msm, Distribution.point(state))
            counts.append(len(msm.states))
        assert counts[: len(fixtures)] == [1, 4, 6, 2, 2, 2]


def test_criterion_12_recurrent_part_of_shifts_with_zeros_and_unifilar_generators():
    """The epsilon-machine claim where criterion 11 cannot look: Markov
    shifts with zero entries and random unifilar generators.  Their
    transient states are cut off first; on the recurrent part (the terminal
    strongly connected components) the recurrent mixed states, the
    minimal_reduction states and the causal classes are equally many."""
    with _timed(12, 3.0, "recurrent part: mixed states = minimal reduction = causal "
                "classes, 90 Markov shifts with zeros + 200 unifilar generators"):
        rnd = random.Random(0xAC)
        shifts = []
        for k, symbols, _ in product((1, 2, 3), ("01", "012"), range(15)):
            cond = {}
            for w in product(symbols, repeat=k):
                weights = [0] * len(symbols)
                while not any(weights):
                    weights = [rnd.randint(0, 4) for _ in symbols]
                cond[w] = {s: Fraction(n, sum(weights)) for s, n in zip(symbols, weights)}
            shifts.append(markov_shift(k, cond))
        unifilar = [
            random_unifilar(rnd, rnd.randint(2, 9), rnd.randint(2, 3)) for _ in range(200)
        ]
        for gen in shifts + unifilar:
            part = recurrent_part(gen)
            msm, _ = mixed_state_machine(part)
            result, _ = minimal_reduction(part)
            assert len(msm.states) == len(result.reduced.states)
            assert len(msm.states) == len(causal_state_partition(part))
