"""Seeded instance families for the genred benchmark.

Every family is built from `random.Random` streams keyed by the seed and a
per-instance tag, so the same seed always yields byte-identical files and a
second seed draws fresh instances of the same families at the same sizes.
Nothing here imports genred: the files are written in the generator JSON
format (format_version 1) directly, and the facts the output checks rely
on hold by construction:

* `random_kernel` gives every state a distinct total mass on symbol `a`, so
  no two states of it generate the same process (all causal classes and
  all event blocks are singletons);
* `lifted` splits each base state into r copies with random split weights;
  the copies of one base state have identical rows, so the lifted machine
  reduces to exactly the m base states, is equivalent to the base (with
  the lifted initial distribution), and its causal classes are the copy
  groups;
* a marked n-cycle has no nontrivial stable partition, so it reduces to n
  states, and the pair (n, n+1) from `q0` first differs on `a`*n.

Run as a script to write one workload's inputs and print their digest:

    python3 bench/instances.py --workload reduce --seed 1 --out /tmp/inputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

SYMBOLS = ("a", "b", "c")
DENOM = 60

Kernel = dict[str, dict[tuple[str, str], Fraction]]


def stream(seed: int, *tag: object) -> random.Random:
    """Independent random stream for one instance (string seeds hash with
    SHA-512, which is stable across Python versions)."""
    return random.Random(":".join(str(t) for t in (seed, *tag)))


def composition(rnd: random.Random, total: int, parts: int) -> list[int]:
    """Nonnegative integers summing to `total`, uniformly over `parts` cells."""
    cuts = sorted(rnd.randrange(total + 1) for _ in range(parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


class Machine:
    """A generator as the benchmark sees it: names, an exact kernel and an
    optional initial distribution.  Only the benchmark's own code reads it."""

    def __init__(self, states, alphabet, kernel: Kernel, initial=None):
        self.states = list(states)
        self.alphabet = list(alphabet)
        self.kernel = kernel
        self.initial = initial

    def document(self) -> dict:
        doc = {
            "format_version": 1,
            "states": self.states,
            "alphabet": self.alphabet,
            "transitions": [
                {"from": x, "to": y, "symbol": s, "prob": _prob(p)}
                for x in self.states
                for (y, s), p in self.kernel[x].items()
            ],
        }
        if self.initial is not None:
            doc["initial"] = {x: _prob(p) for x, p in self.initial.items()}
        return doc

    def text(self) -> str:
        return json.dumps(self.document(), indent=1) + "\n"

    def word_probability(self, word, start: dict[str, Fraction]) -> Fraction:
        """Forward-algorithm probability of `word` from `start`."""
        vec = dict(start)
        for sym in word:
            nxt: dict[str, Fraction] = {}
            for x, w in vec.items():
                for (y, s), p in self.kernel[x].items():
                    if s == sym:
                        nxt[y] = nxt.get(y, Fraction(0)) + w * p
            vec = nxt
        return sum(vec.values(), Fraction(0))


def _prob(p: Fraction) -> str:
    return f"{p.numerator}/{p.denominator}"


def names(n: int) -> list[str]:
    return [f"q{i}" for i in range(n)]


def deterministic(rnd: random.Random, n: int) -> Machine:
    """Random deterministic machine: each state moves to a random successor
    and emits a random label of that successor, with probability one."""
    states = names(n)
    label = [rnd.choice(SYMBOLS) for _ in states]
    kernel: Kernel = {}
    for x in states:
        j = rnd.randrange(n)
        kernel[x] = {(states[j], label[j]): Fraction(1)}
    return Machine(states, SYMBOLS, kernel, {"q0": Fraction(1)})


def marked_cycle(n: int) -> Machine:
    """Deterministic n-cycle over a,b,c that emits `b` only on entering q0."""
    states = names(n)
    kernel: Kernel = {}
    for i, x in enumerate(states):
        j = (i + 1) % n
        kernel[x] = {(states[j], "b" if j == 0 else "a"): Fraction(1)}
    return Machine(states, SYMBOLS, kernel, {"q0": Fraction(1)})


def random_kernel(rnd: random.Random, n: int, fanout: int = 4) -> Machine:
    """Random 3-symbol generator on n states (n <= DENOM - 2) in which every
    state emits `a` with a different total probability.  Each symbol's
    mass goes to `fanout` random targets."""
    states = names(n)
    a_mass = rnd.sample(range(1, DENOM - 1), n)
    kernel: Kernel = {}
    for x, a in zip(states, a_mass):
        rest = composition(rnd, DENOM - a, 2)
        row: dict[tuple[str, str], Fraction] = {}
        for sym, mass in zip(SYMBOLS, (a, *rest)):
            targets = rnd.sample(states, min(fanout, n))
            for y, w in zip(targets, composition(rnd, mass, len(targets))):
                if w:
                    row[(y, sym)] = Fraction(w, DENOM)
        kernel[x] = row
    initial = {
        x: Fraction(w, DENOM)
        for x, w in zip(states, composition(rnd, DENOM, n))
        if w
    }
    return Machine(states, SYMBOLS, kernel, initial)


def lifted(rnd: random.Random, m: int, r: int) -> tuple[Machine, Machine, dict[str, str]]:
    """A random m-state base, its lift splitting each base state into r
    copies `q<i>_<k>` with random positive split weights, and the quotient
    map from copies to base states."""
    base = random_kernel(rnd, m)
    split = {}
    for x in base.states:
        parts = [c + 1 for c in composition(rnd, 12 - r, r)]
        split[x] = [Fraction(c, 12) for c in parts]
    copies = {x: [f"{x}_{k}" for k in range(r)] for x in base.states}
    quotient = {c: x for x in base.states for c in copies[x]}
    kernel: Kernel = {}
    for x in base.states:
        row = {
            (copies[y][k], s): p * split[y][k]
            for (y, s), p in base.kernel[x].items()
            for k in range(r)
        }
        for c in copies[x]:
            kernel[c] = dict(row)
    initial = {
        copies[x][k]: w * split[x][k]
        for x, w in base.initial.items()
        for k in range(r)
    }
    lift = Machine(list(quotient), SYMBOLS, kernel, initial)
    return base, lift, quotient


def golden_mean() -> Machine:
    """The golden-mean process (no two consecutive 1s), as in the catalog."""
    half = Fraction(1, 2)
    kernel: Kernel = {
        "A": {("A", "0"): half, ("B", "1"): half},
        "B": {("A", "0"): Fraction(1)},
    }
    return Machine(["A", "B"], ["0", "1"], kernel, {"A": Fraction(2, 3), "B": Fraction(1, 3)})


def write_files(files: dict[str, str], out: Path) -> str:
    """Write `files` under `out` and return the SHA-256 over names and bytes."""
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name in sorted(files):
        data = files[name].encode()
        (out / name).write_bytes(data)
        digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def main() -> None:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    deck = workloads.build(args.workload, args.seed)
    print(f"inputs sha256 {write_files(deck.files, args.out)} ({len(deck.files)} files)")


if __name__ == "__main__":
    main()
