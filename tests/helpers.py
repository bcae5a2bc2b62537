"""Shared random-instance builders and independent oracles.

The oracles here deliberately avoid the library's production code paths:
word probabilities are summed over explicit state paths, partitions are
found by exhaustive grouping, and the rotation geometry is re-derived from
raw breakpoints, so they can referee the fast implementations.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from math import lcm

from genred import (
    DeterministicGenerator,
    Distribution,
    Generator,
    Morphism,
    Partition,
    SizeLimitError,
)
from genred.catalog import CircleModel
from genred.core import joint_rows
from genred.process import _span
from genred.rng import SplitMix64

ZERO = Fraction(0)
ONE = Fraction(1)
ORACLE_MAX_STATES = 8


def composition(rnd: random.Random, total: int, parts: int) -> list[int]:
    """Nonnegative integers summing to ``total`` split over ``parts`` cells."""
    cuts = sorted(rnd.randint(0, total) for _ in range(parts - 1))
    values = []
    prev = 0
    for c in cuts:
        values.append(c - prev)
        prev = c
    values.append(total - prev)
    return values


def read_exact(text: str) -> Fraction:
    """An "n/d" string of any length, its digits read 1,000 at a time, so
    that Python's int-from-str digit cap does not apply: the referee of
    output past that cap."""

    def digits(run: str) -> int:
        sign, run = (-1, run[1:]) if run.startswith("-") else (1, run)
        value = 0
        for i in range(0, len(run), 1000):
            chunk = run[i:i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        return sign * value

    num, den = text.split("/")
    return Fraction(digits(num), digits(den))


def state_names(n: int) -> list[str]:
    return [f"q{i}" for i in range(n)]


def symbol_names(k: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(k)]


def random_generator(
    rnd: random.Random,
    max_states: int = 6,
    max_symbols: int = 3,
    denom: int = 12,
    n_states: int | None = None,
    n_symbols: int | None = None,
) -> Generator:
    n = n_states if n_states is not None else rnd.randint(1, max_states)
    k = n_symbols if n_symbols is not None else rnd.randint(1, max_symbols)
    states = state_names(n)
    symbols = symbol_names(k)
    cells = [(y, s) for y in states for s in symbols]
    kernel = {}
    for x in states:
        weights = composition(rnd, denom, len(cells))
        kernel[x] = {
            cell: Fraction(w, denom) for cell, w in zip(cells, weights) if w
        }
    return Generator(states, symbols, kernel)


def random_unifilar(
    rnd: random.Random, n_states: int, n_symbols: int, denom: int = 12
) -> Generator:
    """Random unifilar generator: each state spreads multiples of
    1/``denom`` over the symbols at random, and each symbol it emits leads
    to one successor drawn at random."""
    states = state_names(n_states)
    symbols = symbol_names(n_symbols)
    kernel = {}
    for x in states:
        weights = composition(rnd, denom, n_symbols)
        kernel[x] = {
            (rnd.choice(states), s): Fraction(w, denom)
            for s, w in zip(symbols, weights)
            if w
        }
    return Generator(states, symbols, kernel)


def random_distribution(rnd: random.Random, states, denom: int = 12) -> Distribution:
    weights = composition(rnd, denom, len(states))
    return Distribution(
        {x: Fraction(w, denom) for x, w in zip(states, weights) if w}
    )


def random_deterministic(
    rnd: random.Random,
    max_states: int = 12,
    max_symbols: int = 4,
    n_states: int | None = None,
    n_symbols: int | None = None,
) -> DeterministicGenerator:
    n = n_states if n_states is not None else rnd.randint(1, max_states)
    k = n_symbols if n_symbols is not None else rnd.randint(1, max_symbols)
    states = state_names(n)
    symbols = symbol_names(k)
    f = {x: rnd.choice(states) for x in states}
    g = {x: rnd.choice(symbols) for x in states}
    return DeterministicGenerator(states, symbols, f, g)


def brute_word_probability(gen: Generator, mu: Distribution, word) -> Fraction:
    """Oracle: sum mu(x0) * prod T(x_{k-1}, (x_k, w_k)) over all state paths."""
    total = ZERO

    def walk(x: str, i: int, acc: Fraction) -> None:
        nonlocal total
        if i == len(word):
            total += acc
            return
        for (y, s), p in gen.kernel[x].items():
            if s == word[i]:
                walk(y, i + 1, acc * p)

    for x in gen.states:
        w = mu(x)
        if w:
            walk(x, 0, w)
    return total


def reference_sample(gen: Generator, mu: Distribution, n: int, seed: int):
    """Referee for :func:`genred.sample`: the stream definition in
    :mod:`genred.rng`, read one draw at a time.  Every draw, the initial one
    and each step's, brings its weights to their lowest common denominator
    d, takes r = ``below(d)`` and scans for the first outcome whose
    cumulative numerator exceeds r.  Outcomes are states in index order,
    then a row's (state, symbol) pairs by state index and symbol index,
    rebuilt at every step."""
    rng = SplitMix64(seed)

    def choose(outcomes, weights):
        d = lcm(*(w.denominator for w in weights))
        r, acc = rng.below(d), 0
        for outcome, w in zip(outcomes, weights):
            acc += w.numerator * (d // w.denominator)
            if r < acc:
                return outcome
        raise AssertionError("weights do not sum to one")

    support = [x for x in gen.states if mu(x)]
    state = choose(support, [mu(x) for x in support])
    word = []
    for _ in range(n):
        row = gen.kernel[state]
        pairs = [(y, s) for y in gen.states for s in gen.alphabet if (y, s) in row]
        state, symbol = choose(pairs, [row[pair] for pair in pairs])
        word.append(symbol)
    return tuple(word), state


def all_words(alphabet, max_len: int):
    """Words up to max_len in length-lexicographic order by symbol index."""
    level = [()]
    yield ()
    for _ in range(max_len):
        level = [w + (s,) for w in level for s in alphabet]
        yield from level


def _step(gen: Generator, vec: dict[str, Fraction], symbol: str) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for x, w in vec.items():
        for (y, s), p in gen.kernel[x].items():
            if s == symbol:
                out[y] = out.get(y, ZERO) + w * p
    return {y: w for y, w in out.items() if w}


def bfs_distinguishing_word(
    gen1: Generator, mu1: Distribution, gen2: Generator, mu2: Distribution
):
    """Oracle: the first word in length-lexicographic order, up to length
    |Q1| + |Q2|, whose probabilities differ; None if there is none.

    Exhaustive breadth-first search over state vectors, in Fractions.  Only
    words with probability zero on both sides are dropped, since all their
    extensions have probability zero too.
    """
    level = [((), dict(mu1.weights), dict(mu2.weights))]
    for length in range(len(gen1.states) + len(gen2.states) + 1):
        if length:
            level = [
                (word + (s,), _step(gen1, a, s), _step(gen2, b, s))
                for word, a, b in level
                for s in gen1.alphabet
            ]
            level = [entry for entry in level if entry[1] or entry[2]]
        for word, a, b in level:
            if sum(a.values(), ZERO) != sum(b.values(), ZERO):
                return word
    return None


def mixed_state_machine(gen: Generator, cap: int = 200):
    """Referee for the epsilon-machine: the recurrent mixed-state (belief)
    machine (Crutchfield and Young, PRL 63, 1989; Shalizi and Crutchfield,
    J. Stat. Phys. 104, 2001).

    Breadth-first search over normalised beliefs b M_s / P(s|b), started
    from every point mass.  Two beliefs are one mixed state when their dot
    products with a basis of the backward closure of the all-ones vector
    (the span of the word-probability vectors M_w 1) are equal, that is
    when they predict the same future; this one step shares the closure of
    :func:`genred.causal_state_partition`, while the belief dynamics are
    stepped here in Fractions.  The recurrent mixed states are the
    terminal strongly connected components of the transition graph.
    Returns the generator on them, states ``m<i>`` in discovery order, and
    one belief per state as a :class:`Distribution`.  Raises
    :class:`SizeLimitError` once ``cap`` mixed states are found.
    """
    _, rows = joint_rows((gen,), backward=True)
    basis = [vec for _, vec in _span({i: 1 for i in range(len(gen.states))}, rows)]
    beliefs: list[dict[str, Fraction]] = []
    found: dict[tuple, int] = {}

    def visit(belief: dict[str, Fraction]) -> int:
        key = tuple(
            sum((w * vec.get(gen.state_index[x], 0) for x, w in belief.items()), ZERO)
            for vec in basis
        )
        if key not in found:
            if len(beliefs) == cap:
                raise SizeLimitError(f"more than {cap} mixed states")
            found[key] = len(beliefs)
            beliefs.append(belief)
        return found[key]

    for x in gen.states:
        visit({x: ONE})
    edges: list[dict[tuple[int, str], Fraction]] = []
    while len(edges) < len(beliefs):  # beliefs grows while it is walked
        belief, out = beliefs[len(edges)], {}
        for s in gen.alphabet:
            image = _step(gen, belief, s)
            p = sum(image.values(), ZERO)
            if p:
                out[visit({y: w / p for y, w in image.items()}), s] = p
        edges.append(out)

    reach = []
    for i in range(len(beliefs)):
        seen, stack = {i}, [i]
        while stack:
            for j, _ in edges[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    names = {
        i: f"m{i}" for i in range(len(beliefs)) if all(i in reach[j] for j in reach[i])
    }
    kernel = {
        names[i]: {(names[j], s): p for (j, s), p in edges[i].items()} for i in names
    }
    msm = Generator(list(names.values()), gen.alphabet, kernel)
    return msm, {names[i]: Distribution(beliefs[i]) for i in names}


def recurrent_part(gen: Generator) -> Generator:
    """The states in terminal strongly connected components of the
    transition graph, with their rows: a closed set, so the rows still sum
    to one.  A state is kept when every state it reaches reaches it back."""
    reach = {}
    for x in gen.states:
        seen, stack = {x}, [x]
        while stack:
            for y, _ in gen.kernel[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach[x] = seen
    kept = [x for x in gen.states if all(x in reach[y] for y in reach[x])]
    return Generator(kept, gen.alphabet, {x: gen.kernel[x] for x in kept})


def marked_cycle(n: int) -> Generator:
    """Deterministic n-cycle over a, b, c that emits b only on entering q0."""
    states = state_names(n)
    kernel = {
        x: {(states[(i + 1) % n], "b" if (i + 1) % n == 0 else "a"): Fraction(1)}
        for i, x in enumerate(states)
    }
    return Generator(states, symbol_names(3), kernel)


def lift(rnd: random.Random, base: Generator, copies: int):
    """Split every base state into ``copies`` states ``<x>_<k>`` that share
    the base row, with random positive split weights.  Returns the lift and
    the map from copies to base states; pushing a lifted distribution along
    the map gives an equivalent base process."""
    names = {x: [f"{x}_{k}" for k in range(copies)] for x in base.states}
    split = {
        x: [Fraction(c + 1, 12) for c in composition(rnd, 12 - copies, copies)]
        for x in base.states
    }
    kernel = {}
    for x in base.states:
        row = {
            (names[y][k], s): p * split[y][k]
            for (y, s), p in base.kernel[x].items()
            for k in range(copies)
        }
        for c in names[x]:
            kernel[c] = dict(row)
    quotient = {c: x for x in base.states for c in names[x]}
    return Generator(list(quotient), base.alphabet, kernel), quotient


def perturb(rnd: random.Random, gen: Generator, quotient: dict[str, str]):
    """Move a third of one transition's mass, in one state's row, to a copy
    of a different base state behind the same symbol.  The lift stays
    stochastic but usually stops being a lift; None if no row allows it."""
    choices = [
        (x, y, s, z)
        for x in gen.states
        for (y, s) in gen.kernel[x]
        for z in gen.states
        if quotient[z] != quotient[y]
    ]
    if not choices:
        return None
    x, y, s, z = rnd.choice(choices)
    kernel = {w: dict(row) for w, row in gen.kernel.items()}
    moved = kernel[x][(y, s)] / 3
    kernel[x][(y, s)] -= moved
    kernel[x][(z, s)] = kernel[x].get((z, s), ZERO) + moved
    return Generator(gen.states, gen.alphabet, kernel)


def label_sequence_partition(dg: DeterministicGenerator, depth: int) -> Partition:
    """Oracle: group states by their emitted label sequence to ``depth``."""
    groups: dict[tuple, list[str]] = {}
    for x in dg.states:
        labels = []
        y = x
        for _ in range(depth):
            y = dg.f[y]
            labels.append(dg.g[y])
        groups.setdefault(tuple(labels), []).append(x)
    return Partition(list(groups.values()), dg.states)


def _set_partitions(items):
    """All set partitions, by recursive insertion (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def _block_masses(gen: Generator, block_of, x: str) -> dict:
    """Mass from ``x`` into each (block, symbol), keys in kernel-row order."""
    out = {}
    for (y, s), p in gen.kernel[x].items():
        out[block_of[y], s] = out.get((block_of[y], s), ZERO) + p
    return out


def _is_stable(gen: Generator, blocks) -> bool:
    """Every block's members agree on the mass into each (block, symbol)."""
    block_of = {x: i for i, b in enumerate(blocks) for x in b}
    for block in blocks:
        first = _block_masses(gen, block_of, block[0])
        if any(_block_masses(gen, block_of, x) != first for x in block[1:]):
            return False
    return True


def naive_event_reduction(gen: Generator):
    """Referee for :func:`genred.event_reduction`: round-based refinement.

    Each round regroups every state by its mass into each current
    (block, symbol), groups in order of first appearance, until the block
    count stops growing: O(rounds * m) Fraction work, and up to |Q| rounds
    (a marked n-cycle needs n).  Blocks are numbered by first member in
    every round, so the fixpoint's masses are the reduced kernel.  Returns
    the partition and those rows.
    """
    blocks = [list(gen.states)]
    while True:
        block_of = {x: i for i, b in enumerate(blocks) for x in b}
        rows = {x: _block_masses(gen, block_of, x) for x in gen.states}
        groups: dict[tuple, list[str]] = {}
        for x in gen.states:
            groups.setdefault(tuple(sorted(rows[x].items())), []).append(x)
        if len(groups) == len(blocks):
            return Partition(blocks, gen.states), rows
        blocks = list(groups.values())


def reference_quotient(gen: Generator, partition: Partition):
    """Referee for the quotient builder of the reductions: the two-pass
    quotient, in which each block becomes one state named ``c_<first
    member>`` whose row is its first member's kernel row pushed through the
    quotient map, summed here in Fractions.  Returns the quotient generator
    and the map from states to class names, in state order."""
    name = {x: f"c_{block[0]}" for block in partition.blocks for x in block}
    kernel = {}
    for block in partition.blocks:
        row: dict[tuple[str, str], Fraction] = {}
        for (y, s), p in gen.kernel[block[0]].items():
            row[name[y], s] = row.get((name[y], s), ZERO) + p
        kernel[name[block[0]]] = row
    names = [name[block[0]] for block in partition.blocks]
    return Generator(names, gen.alphabet, kernel), {x: name[x] for x in gen.states}


def equal_row_partition(gen: Generator) -> Partition:
    """Referee for the classes of :func:`genred.state_reduction`: states
    grouped by pairwise comparison of their rows as mappings, so that the
    order in which a row lists its entries plays no part."""
    blocks: list[list[str]] = []
    for x in gen.states:
        for block in blocks:
            if gen.kernel[block[0]] == gen.kernel[x]:
                block.append(x)
                break
        else:
            blocks.append([x])
    return Partition(blocks, gen.states)


def refines(fine: Partition, coarse: Partition) -> bool:
    """True when every block of ``fine`` sits inside a block of ``coarse``
    (``fine`` makes at least as many distinctions)."""
    return all(
        len({coarse.block_index(x) for x in block}) == 1 for block in fine.blocks
    )


def coarsest_partition_oracle(gen: Generator) -> Partition:
    """Oracle for :func:`genred.event_reduction` by brute force.

    Enumerates every partition of the state set, keeps the stable ones, and
    returns the unique one that every other stable partition refines (the
    singleton partition is always stable, so the family is nonempty;
    closure under finest common coarsening guarantees the coarsest element
    exists, and this is asserted rather than assumed).
    """
    if len(gen.states) > ORACLE_MAX_STATES:
        raise SizeLimitError(
            f"oracle enumerates all partitions; limited to {ORACLE_MAX_STATES} states"
        )
    stable = [
        Partition(blocks, gen.states)
        for blocks in _set_partitions(list(gen.states))
        if _is_stable(gen, blocks)
    ]
    coarsest = min(stable, key=len)
    witnesses = [p for p in stable if all(refines(q, p) for q in stable)]
    assert witnesses == [coarsest], "stable partitions must have a unique coarsest"
    return coarsest


def rotation_breakpoints(q: int, p: int) -> set[Fraction]:
    """Oracle: the raw breakpoint set of the rotation by q/p of a turn."""
    step = Fraction(q, p)
    points = set()
    for j in range(p):
        points.add((j * step) % 1)
        points.add((Fraction(1, 2) + j * step) % 1)
    return points


def arc_containing(model: CircleModel, angle: Fraction) -> int:
    """Oracle: the index of the arc of ``model`` holding ``angle`` mod 1,
    found by bisection on the arcs' left ends and checked against the right
    end."""
    angle %= 1
    i = bisect_right(model.arcs, angle, key=lambda arc: arc[0]) - 1
    lo, hi = model.arcs[i]
    if not lo <= angle < hi:
        raise ValueError(f"angle {angle} not covered")
    return i


def subsets(items):
    out = [[]]
    for item in items:
        out += [s + [item] for s in out]
    return out


def morphism_holds_on_rectangles(m: Morphism) -> bool:
    """Oracle: check the commutation identity on EVERY product event A x B,
    not just singleton rectangles."""
    tgt = m.target
    for x in m.source.states:
        for a in subsets(list(tgt.states)):
            a_set = set(a)
            for b in subsets(list(tgt.alphabet)):
                b_set = set(b)
                lhs = sum(
                    (
                        p
                        for (y, s), p in tgt.kernel[m.f[x]].items()
                        if y in a_set and s in b_set
                    ),
                    ZERO,
                )
                rhs = sum(
                    (
                        p
                        for (y1, s1), p in m.source.kernel[x].items()
                        if m.f[y1] in a_set and m.g[s1] in b_set
                    ),
                    ZERO,
                )
                if lhs != rhs:
                    return False
    return True


def first_violating_triple(m: Morphism):
    """Oracle: scan (x, y2, s2) in index order for the first singleton
    rectangle where the commutation identity fails."""
    tgt = m.target
    for x in m.source.states:
        for y2 in tgt.states:
            for s2 in tgt.alphabet:
                lhs = tgt.kernel[m.f[x]].get((y2, s2), ZERO)
                rhs = sum(
                    (
                        p
                        for (y1, s1), p in m.source.kernel[x].items()
                        if m.f[y1] == y2 and m.g[s1] == s2
                    ),
                    ZERO,
                )
                if lhs != rhs:
                    return (x, y2, s2)
    return None
