"""Named generator fixtures and parametric families used throughout the
tests and the CLI.  Fixture names are part of the CLI contract and frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping

from .core import (
    Distribution,
    Generator,
    DeterministicGenerator,
    RatLike,
    ZERO,
    as_fraction,
    from_deterministic,
)
from .errors import RowNotNormalizedError, UnknownFixtureError, echo, echo_number
from .formats import word_separator

FIXTURE_NAMES = (
    "randomness-2",
    "rotation-p4",
    "rotation-p3",
    "golden-mean",
    "golden-mean-redundant",
    "parity-4",
)


def complete_randomness(mu: Distribution) -> Generator:
    """Memoryless generator over the support of ``mu``: the next internal
    state equals the next output symbol and is drawn from ``mu``
    independently of the current state."""
    names = mu.support
    row = {(y, y): mu(y) for y in names}
    kernel = {x: dict(row) for x in names}
    return Generator(names, names, kernel)


@dataclass(frozen=True)
class CircleModel:
    """Circle rotation by the fraction ``rotation`` of a full turn, with the
    circle cut into half-open arcs at every point the two half-circle
    boundaries visit under the rotation.

    Angles are exact fractions of a turn in [0, 1); 0 and 1/2 are always
    breakpoints, so each arc lies entirely in one labeled half: arcs inside
    [0, 1/2) carry label "1", the rest carry "2".  The breakpoint set is
    invariant under the rotation, which is what makes the induced dynamics
    on arcs well defined.
    """

    rotation: Fraction
    breakpoints: tuple[Fraction, ...]
    arcs: tuple[tuple[Fraction, Fraction], ...]
    labels: tuple[str, ...]

    @property
    def arc_names(self) -> tuple[str, ...]:
        return tuple(f"a{i}" for i in range(len(self.arcs)))


def rational_rotation(q: int, p: int) -> tuple[CircleModel, DeterministicGenerator]:
    """Arc model of the rotation by q/p of a turn, plus its deterministic
    machine over arcs.

    Breakpoints are the rotation orbit of 0 and of 1/2.  With q/p in lowest
    terms the orbit of 0 is every multiple of 1/p, and a half turn lands
    back on that grid exactly when p is even, so the breakpoints are the
    multiples of 1/n for n = p (even p) or n = 2p (odd p).  Arc j is
    [j/n, (j+1)/n), and the rotation moves it onto arc j + q*n/p (mod n).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if gcd(q, p) != 1:
        raise ValueError(f"{q}/{p} is not in lowest terms")
    n = p if p % 2 == 0 else 2 * p
    breakpoints = tuple(Fraction(j, n) for j in range(n))
    edges = breakpoints + (Fraction(1),)
    arcs = tuple(zip(edges, edges[1:]))
    labels = tuple("1" if 2 * j < n else "2" for j in range(n))
    model = CircleModel(Fraction(q, p) % 1, breakpoints, arcs, labels)
    names = model.arc_names
    shift = q * (n // p)
    f = {names[j]: names[(j + shift) % n] for j in range(n)}
    machine = DeterministicGenerator(names, ("1", "2"), f, dict(zip(names, labels)))
    return model, machine


def arc_length_distribution(model: CircleModel) -> Distribution:
    """Initial distribution over arcs weighting each by its length (the
    quotient of the uniform distribution on the circle)."""
    return Distribution(
        {name: hi - lo for name, (lo, hi) in zip(model.arc_names, model.arcs)}
    )


def markov_shift(
    k: int, cond: Mapping[tuple[str, ...], Mapping[str, RatLike]]
) -> Generator:
    """Finite order-k Markov source in shift form: states are the length-k
    words of recent output, and emitting s moves from w to (drop first
    symbol of w, append s) with the conditional probability cond(w, s).

    Stands in for the shift construction over the full infinite sequence
    space, which generates every process but has no finite encoding.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    alphabet: dict[str, None] = {}
    for row in cond.values():
        for s in row:
            alphabet.setdefault(s)
    symbols = tuple(alphabet)
    words: list[tuple[str, ...]] = [()]
    for _ in range(k):
        words = [w + (s,) for w in words for s in symbols]
    sep = word_separator(symbols)
    names = {w: sep.join(w) for w in words}
    kernel: dict[str, dict[tuple[str, str], Fraction]] = {}
    for w in words:
        if w not in cond:
            raise RowNotNormalizedError(f"no conditional row for state {names[w]!r}")
        row = {s: as_fraction(p) for s, p in cond[w].items()}
        total = sum(row.values(), ZERO)
        if total != 1:
            raise RowNotNormalizedError(
                f"conditional row of {names[w]!r} sums to {echo_number(total)}"
            )
        kernel[names[w]] = {
            (names[w[1:] + (s,)], s): p for s, p in row.items() if p != 0
        }
    return Generator([names[w] for w in words], symbols, kernel)


def _golden_mean_states() -> dict[str, dict[tuple[str, str], Fraction]]:
    half = Fraction(1, 2)
    return {
        "A": {("A", "0"): half, ("B", "1"): half},
        "B": {("A", "0"): Fraction(1)},
    }


def catalog(name: str) -> tuple[Generator, Distribution]:
    """Look up a frozen fixture by name; returns the generator and its
    recommended initial distribution."""
    if name == "randomness-2":
        mu = Distribution.uniform(("a", "b"))
        return complete_randomness(mu), mu
    if name in ("rotation-p4", "rotation-p3"):
        p = 4 if name == "rotation-p4" else 3
        model, machine = rational_rotation(1, p)
        return from_deterministic(machine), arc_length_distribution(model)
    if name == "golden-mean":
        gen = Generator(("A", "B"), ("0", "1"), _golden_mean_states())
        return gen, Distribution({"A": Fraction(2, 3), "B": Fraction(1, 3)})
    if name == "golden-mean-redundant":
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        kernel = {
            "A": {("A", "0"): half, ("B", "1"): quarter, ("C", "1"): quarter},
            "B": {("A", "0"): Fraction(1)},
            "C": {("A", "0"): Fraction(1)},
        }
        gen = Generator(("A", "B", "C"), ("0", "1"), kernel)
        mu = Distribution(
            {"A": Fraction(2, 3), "B": Fraction(1, 6), "C": Fraction(1, 6)}
        )
        return gen, mu
    if name == "parity-4":
        states = tuple(str(i) for i in range(4))
        f = {str(i): str((i + 1) % 4) for i in range(4)}
        g = {str(i): str(i % 2) for i in range(4)}
        machine = DeterministicGenerator(states, ("0", "1"), f, g)
        return from_deterministic(machine), Distribution.uniform(states)
    raise UnknownFixtureError(
        f"unknown fixture {echo(name)}; known names: {', '.join(FIXTURE_NAMES)}"
    )
