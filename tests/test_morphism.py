import random
import time
from fractions import Fraction

import pytest

from genred import (
    Distribution,
    Generator,
    Morphism,
    NotTransitionPreservingError,
    check_transport,
    catalog,
    complete_randomness,
    from_deterministic,
    minimal_reduction,
    pushforward,
    relabel_outputs,
    state_reduction,
    validate,
    verify,
    word_distribution,
)
from helpers import (
    first_violating_triple,
    lift,
    morphism_holds_on_rectangles,
    perturb,
    random_deterministic,
    random_distribution,
    random_generator,
)


def identity_morphism(gen: Generator) -> Morphism:
    return Morphism(
        gen, gen, {x: x for x in gen.states}, {s: s for s in gen.alphabet}
    )


def quotient_morphism(gen: Generator):
    result, _ = minimal_reduction(gen)
    return (
        Morphism(
            gen,
            result.reduced,
            dict(result.quotient_map),
            {s: s for s in gen.alphabet},
        ),
        result,
    )


class TestVerify:
    def test_identity_verifies(self):
        gen, _ = catalog("golden-mean")
        ok, witness = verify(identity_morphism(gen))
        assert ok and witness is None

    def test_quotient_morphisms_verify(self):
        rnd = random.Random(1001)
        fixtures = [catalog(n)[0] for n in (
            "randomness-2", "golden-mean-redundant", "rotation-p3", "parity-4",
        )]
        randoms = [random_generator(rnd, max_states=5, max_symbols=3) for _ in range(15)]
        for gen in fixtures + randoms:
            morphism, _ = quotient_morphism(gen)
            ok, witness = verify(morphism)
            assert ok, witness

    def test_non_quotient_map_fails_with_first_witness(self):
        gen, _ = catalog("golden-mean")
        swap = Morphism(gen, gen, {"A": "B", "B": "A"}, {"0": "0", "1": "1"})
        ok, witness = verify(swap)
        assert not ok
        assert witness == first_violating_triple(swap)

    def test_random_wrong_maps_report_lexicographic_witness(self):
        rnd = random.Random(1002)
        checked = 0
        while checked < 15:
            gen = random_generator(rnd, max_states=4, max_symbols=2)
            f = {x: rnd.choice(gen.states) for x in gen.states}
            g = {s: s for s in gen.alphabet}
            morphism = Morphism(gen, gen, f, g)
            expected = first_violating_triple(morphism)
            ok, witness = verify(morphism)
            assert ok == (expected is None)
            assert witness == expected
            if expected is not None:
                checked += 1

    def test_lifts_and_perturbed_lifts_match_referee(self):
        rnd = random.Random(1004)
        failures = 0
        for _ in range(40):
            base = random_generator(rnd, max_states=4, max_symbols=3)
            lifted, quotient = lift(rnd, base, rnd.randint(1, 3))
            same = {s: s for s in base.alphabet}
            g = {s: rnd.choice(base.alphabet) for s in base.alphabet}
            relabeled = relabel_outputs(base, g, alphabet=base.alphabet)
            assert verify(Morphism(lifted, base, quotient, same)) == (True, None)
            for source in (lifted, perturb(rnd, lifted, quotient)):
                if source is None:
                    continue
                for target, symbol_map in ((base, same), (relabeled, g), (base, g)):
                    morphism = Morphism(source, target, quotient, symbol_map)
                    expected = first_violating_triple(morphism)
                    assert verify(morphism) == (expected is None, expected)
                    failures += expected is not None
        assert failures > 40

    def test_singleton_check_implies_all_rectangles(self):
        # |Q2| * |Sigma2| <= 6 keeps the rectangle enumeration exhaustive
        rnd = random.Random(1003)
        checked = 0
        while checked < 10:
            gen = random_generator(rnd, max_states=4, max_symbols=2)
            morphism, result = quotient_morphism(gen)
            if len(result.reduced.states) * len(gen.alphabet) > 6:
                continue
            ok, _ = verify(morphism)
            assert ok
            assert morphism_holds_on_rectangles(morphism)
            checked += 1


class TestScaling:
    """The exhaustive scan of every (target state, symbol) pair per source
    state takes about 5.6 s on this 1600 -> 883 state quotient map; the
    row comparison takes milliseconds."""

    def test_quotient_map_1600_states(self):
        dg = random_deterministic(random.Random(1600), n_states=1600, n_symbols=3)
        morphism, result = quotient_morphism(from_deterministic(dg))
        assert len(result.reduced.states) == 883
        start = time.perf_counter()
        assert verify(morphism) == (True, None)
        assert time.perf_counter() - start < 0.5
        # a wrong image for the first state: the referee stops at that state
        x = morphism.source.states[0]
        f = dict(morphism.f)
        f[x] = next(y for y in morphism.target.states if y != f[x])
        wrong = Morphism(morphism.source, morphism.target, f, morphism.g)
        expected = first_violating_triple(wrong)
        assert expected is not None and expected[0] == x
        assert verify(wrong) == (False, expected)


class TestConstruction:
    def test_maps_must_be_total_and_land_in_target(self):
        gen, _ = catalog("golden-mean")
        with pytest.raises(ValueError):
            Morphism(gen, gen, {"A": "A"}, {"0": "0", "1": "1"})
        with pytest.raises(ValueError):
            Morphism(gen, gen, {"A": "A", "B": "B"}, {"0": "0"})
        with pytest.raises(Exception):
            Morphism(gen, gen, {"A": "zz", "B": "B"}, {"0": "0", "1": "1"})
        with pytest.raises(Exception):
            Morphism(gen, gen, {"A": "A", "B": "B"}, {"0": "0", "1": "zz"})


class TestCompose:
    def test_quotient_chain_composes_to_verified(self):
        rnd = random.Random(2001)
        for _ in range(10):
            gen = random_generator(rnd, max_states=5, max_symbols=2)
            # duplicate-row merge first, then the full minimal reduction
            first = state_reduction(gen)
            m1 = Morphism(
                gen, first.reduced, dict(first.quotient_map),
                {s: s for s in gen.alphabet},
            )
            m2, _ = quotient_morphism(first.reduced)
            ok1, _ = verify(m1)
            ok2, _ = verify(m2)
            assert ok1 and ok2
            composite = Morphism(
                gen, m2.target,
                {x: m2.f[m1.f[x]] for x in gen.states},
                {s: m2.g[m1.g[s]] for s in gen.alphabet},
            )
            ok, witness = verify(composite)
            assert ok, witness


class TestRelabelOutputs:
    def test_identity_map_is_identity(self):
        gen, _ = catalog("golden-mean")
        assert relabel_outputs(gen, {"0": "0", "1": "1"}) == gen

    def test_collapse_all_symbols(self):
        gen, mu = catalog("golden-mean")
        merged = relabel_outputs(gen, {"0": "x", "1": "x"})
        assert merged.alphabet == ("x",)
        assert validate(merged) == []
        table = word_distribution(merged, mu, 4)
        assert all(p == 1 for p in table.probs.values())

    def test_swap_binary_symbols(self):
        gen, mu = catalog("golden-mean")
        swapped = relabel_outputs(gen, {"0": "1", "1": "0"}, alphabet=("0", "1"))
        before = word_distribution(gen, mu, 4)
        after = word_distribution(swapped, mu, 4)
        flip = {"0": "1", "1": "0"}
        for w, p in before.probs.items():
            assert after[tuple(flip[s] for s in w)] == p

    def test_relabel_morphism_verifies(self):
        rnd = random.Random(3001)
        for _ in range(10):
            gen = random_generator(rnd, max_states=4, max_symbols=3)
            g = {s: rnd.choice(("u", "v")) for s in gen.alphabet}
            relabeled = relabel_outputs(gen, g, alphabet=("u", "v") if set(g.values()) == {"u", "v"} else None)
            morphism = Morphism(gen, relabeled, {x: x for x in gen.states}, g)
            ok, witness = verify(morphism)
            assert ok, witness


class TestCheckTransport:
    def test_identity_transport(self):
        gen, mu = catalog("golden-mean")
        assert check_transport(identity_morphism(gen), mu, 4)

    def test_quotient_transport_random(self):
        rnd = random.Random(4001)
        for _ in range(12):
            gen = random_generator(rnd, max_states=5, max_symbols=2)
            mu = random_distribution(rnd, gen.states)
            morphism, _ = quotient_morphism(gen)
            assert check_transport(morphism, mu, 5)

    def test_relabel_transport_on_randomness(self):
        mu = Distribution.uniform(["a", "b"])
        gen = complete_randomness(mu)
        g = {"a": "z", "b": "z"}
        morphism = Morphism(
            gen, relabel_outputs(gen, g), {x: x for x in gen.states}, g
        )
        assert check_transport(morphism, mu, 3)
        # hand check: the collapsed process gives every length-n word mass 1
        collapsed = word_distribution(morphism.target, mu, 3)
        assert all(p == 1 for p in collapsed.probs.values())

    def test_requires_verified_morphism(self):
        gen, mu = catalog("golden-mean")
        swap = Morphism(gen, gen, {"A": "B", "B": "A"}, {"0": "0", "1": "1"})
        with pytest.raises(NotTransitionPreservingError):
            check_transport(swap, mu, 3)

    def test_transport_identity_literally(self):
        # compare against the raw sum over preimage words
        rnd = random.Random(4002)
        gen = random_generator(rnd, max_states=4, max_symbols=3)
        mu = random_distribution(rnd, gen.states)
        g = {s: "m" if i % 2 else "n" for i, s in enumerate(gen.alphabet)}
        target = relabel_outputs(gen, g)
        morphism = Morphism(gen, target, {x: x for x in gen.states}, g)
        assert check_transport(morphism, mu, 3)
        source_table = word_distribution(gen, mu, 3)
        target_table = word_distribution(target, pushforward(mu, morphism.f), 3)
        for w2, p2 in target_table.probs.items():
            preimage_mass = sum(
                (
                    p
                    for w1, p in source_table.probs.items()
                    if tuple(g[s] for s in w1) == w2
                ),
                Fraction(0),
            )
            assert p2 == preimage_mass
