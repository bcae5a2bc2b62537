"""The benchmark's three workloads as decks of seeded jobs.

A deck is a few rounds; every round holds the same job kinds at the same
sizes, each on its own seeded instance, in a seeded order.  A run executes
whole passes of the deck, so every run of a workload sees the same mix of
job sizes whatever the seed, and the sizes repeat so that the latency
percentiles fall inside a block of similar jobs rather than on the edge
between two sizes.

Each job carries a check that knows the right answer without calling
genred (see `instances` for the facts the families guarantee).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import instances as inst

WORKLOADS = ("reduce", "equiv", "words")

# A check gets the job's exit code and stdout and returns an error message,
# or None when the output is right.
Check = Callable[[int, str], "str | None"]


@dataclass
class Job:
    """One closed-loop job: a `genred.cli.run(argv)` call, or, when `lib` is
    set, a `check_transport` call on the files and map it names, which the
    runner prepares."""

    id: str
    kind: str
    size: int
    check: Check
    argv: list[str] | None = None
    lib: dict | None = None


@dataclass
class Deck:
    files: dict[str, str] = field(default_factory=dict)
    rounds: list[list[Job]] = field(default_factory=list)

    @property
    def jobs(self) -> list[Job]:
        return [job for rnd in self.rounds for job in rnd]

    def warmups(self) -> list[Job]:
        """The smallest job of each kind."""
        smallest: dict[str, Job] = {}
        for job in self.jobs:
            if job.kind not in smallest or job.size < smallest[job.kind].size:
                smallest[job.kind] = job
        return list(smallest.values())


def _expect_exact(code: int, text: str) -> Check:
    def check(got_code: int, out: str) -> str | None:
        if (got_code, out) != (code, text):
            return f"expected exit {code} and {text[:80]!r}, got exit {got_code} and {out[:80]!r}"
        return None

    return check


# ----------------------------------------------------------------- reduce


def moore_classes(machine: inst.Machine) -> int:
    """Blocks of the coarsest stable partition of a deterministic machine,
    by Moore refinement on (emitted symbol, block of the successor)."""
    succ = {x: next(iter(row)) for x, row in machine.kernel.items()}
    block = {x: 0 for x in machine.states}
    count = 1
    while True:
        ids: dict[tuple, int] = {}
        block = {x: ids.setdefault((block[x], succ[x][1], block[succ[x][0]]), len(ids))
                 for x in machine.states}
        if len(ids) == count:
            return count
        count = len(ids)


def _check_reduced(states: list[str], expected: int, mode: str) -> Check:
    """A reduction with `expected` classes.  Event mode prints the blocks;
    the other modes print a normalised generator with its quotient map."""

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        if mode == "event":
            blocks = [line[1:-1].split(",") for line in out.splitlines()]
            members = sorted(x for b in blocks for x in b)
            if members != sorted(states):
                return "event blocks do not partition the states"
            got = len(blocks)
        else:
            doc = json.loads(out)
            sums: dict[str, Fraction] = {x: Fraction(0) for x in doc["states"]}
            for t in doc["transitions"]:
                sums[t["from"]] += Fraction(t["prob"])
            if any(total != 1 for total in sums.values()):
                return "reduced rows do not sum to 1"
            quotient = doc["quotient"]
            if list(quotient) != states or not set(quotient.values()) <= set(sums):
                return "quotient map does not cover the input states"
            got = len(doc["states"])
        if got != expected:
            return f"{mode} reduction has {got} classes, expected {expected}"
        return None

    return check


def _reduce_round(seed: int, r: int, tiny: bool) -> tuple[dict[str, str], list[Job]]:
    det = (20, 40, 80) if tiny else (200, 800, 3200)
    cyc = (10, 20, 40) if tiny else (100, 200, 400)
    # (family, size, mode, count): 8 jobs below the four det800-full jobs
    # that hold the median, and 7 above them; the three det3200 jobs under
    # the marked 400-cycle hold the 90th percentile.
    plan = [
        ("det", det[0], "full", 1), ("det", det[0], "event", 1),
        ("det", det[1], "state", 1),
        ("cycle", cyc[0], "full", 1), ("cycle", cyc[0], "state", 1),
        ("lifted", (8, 3), "full", 1), ("lifted", (12, 3), "state", 1),
        ("lifted", (16, 4), "event", 1),
        ("det", det[1], "full", 4),
        ("det", det[2], "state", 1),
        ("cycle", cyc[1], "full", 1), ("cycle", cyc[1], "event", 1),
        ("det", det[2], "event", 1), ("det", det[2], "full", 2),
        ("cycle", cyc[2], "full", 1),
    ]
    if tiny:
        plan = [(fam, (2, 2) if fam == "lifted" else size, mode, 1)
                for fam, size, mode, _ in plan]
    files: dict[str, str] = {}
    jobs: list[Job] = []
    for fam, size, mode, count in plan:
        for k in range(count):
            tag = f"r{r}-{fam}{size[0] * size[1] if fam == 'lifted' else size}-{mode}{k}"
            rnd = inst.stream(seed, "reduce", tag)
            if fam == "det":
                machine = inst.deterministic(rnd, size)
                if mode == "state":
                    expected = len({next(iter(row))[0] for row in machine.kernel.values()})
                else:
                    expected = moore_classes(machine)
            elif fam == "cycle":
                machine, expected = inst.marked_cycle(size), size
            else:
                _, machine, _ = inst.lifted(rnd, *size)
                expected = size[0]
            name = f"{tag}.json"
            files[name] = machine.text()
            jobs.append(Job(
                id=tag, kind=f"{fam}-{mode}", size=len(machine.states),
                check=_check_reduced(machine.states, expected, mode),
                argv=["reduce", name, "--mode", mode],
            ))
    return files, jobs


# ------------------------------------------------------------------ equiv


def _inequivalent_pair(seed: int, tag: str, n: int) -> tuple[inst.Machine, inst.Machine]:
    """Two random machines whose probabilities of `a` differ, so the
    shortest distinguishing word is `a`."""
    first = inst.random_kernel(inst.stream(seed, "equiv", tag, "A"), n)
    p_first = first.word_probability("a", first.initial)
    for attempt in itertools.count():
        second = inst.random_kernel(inst.stream(seed, "equiv", tag, "B", attempt), n)
        if second.word_probability("a", second.initial) != p_first:
            return first, second
    raise AssertionError("unreachable")


def _equiv_round(seed: int, r: int, tiny: bool) -> tuple[dict[str, str], list[Job]]:
    lifts = ((3, 2),) * 4 if tiny else ((4, 2), (6, 3), (8, 2), (8, 3))
    causal_lifts = ((3, 2),) * 2 if tiny else ((5, 2), (8, 3))
    selves = (4, 5, 6) if tiny else (8, 12, 16, 20, 24)
    causal_sizes = (5,) if tiny else (12, 24)
    inequiv = (4, 5) if tiny else (8, 12, 16, 24)
    cycles = (3, 4) if tiny else (8, 9, 10, 11)
    files: dict[str, str] = {}
    jobs: list[Job] = []

    def add(name: str, machine: inst.Machine) -> str:
        files[name] = machine.text()
        return name

    for k, (m, rep) in enumerate(lifts):
        tag = f"r{r}-lift{m}x{rep}-{k}"
        base, lift, _ = inst.lifted(inst.stream(seed, "equiv", tag), m, rep)
        argv = ["equiv", add(f"{tag}-lift.json", lift), add(f"{tag}-base.json", base)]
        jobs.append(Job(tag, "equiv-lifted", m * rep, _expect_exact(0, "equivalent\n"), argv))
    for k, (m, rep) in enumerate(causal_lifts):
        tag = f"r{r}-causal-lift{m}x{rep}-{k}"
        base, lift, _ = inst.lifted(inst.stream(seed, "equiv", tag), m, rep)
        text = "".join(
            "{" + ",".join(f"{x}_{c}" for c in range(rep)) + "}\n" for x in base.states
        )
        argv = ["causal", add(f"{tag}.json", lift)]
        jobs.append(Job(tag, "causal-lifted", m * rep, _expect_exact(0, text), argv))
    for n in selves:
        tag = f"r{r}-self{n}"
        name = add(f"{tag}.json", inst.random_kernel(inst.stream(seed, "equiv", tag), n))
        jobs.append(Job(tag, "equiv-self", n, _expect_exact(0, "equivalent\n"),
                        ["equiv", name, name]))
    for n in causal_sizes:
        tag = f"r{r}-causal{n}"
        machine = inst.random_kernel(inst.stream(seed, "equiv", tag), n)
        text = "".join("{" + x + "}\n" for x in machine.states)
        jobs.append(Job(tag, "causal-random", n, _expect_exact(0, text),
                        ["causal", add(f"{tag}.json", machine)]))
    for n in inequiv:
        tag = f"r{r}-inequiv{n}"
        first, second = _inequivalent_pair(seed, tag, n)
        p1 = first.word_probability("a", first.initial)
        p2 = second.word_probability("a", second.initial)
        text = (f"not equivalent: word a has probability "
                f"{p1.numerator}/{p1.denominator} vs {p2.numerator}/{p2.denominator}\n")
        argv = ["equiv", add(f"{tag}-A.json", first), add(f"{tag}-B.json", second)]
        jobs.append(Job(tag, "equiv-inequivalent", n, _expect_exact(1, text), argv))
    for n in cycles:
        tag = f"r{r}-cycles{n}"
        argv = ["equiv", add(f"cycle{n}.json", inst.marked_cycle(n)),
                add(f"cycle{n + 1}.json", inst.marked_cycle(n + 1)),
                "--muA", "q0", "--muB", "q0"]
        text = f"not equivalent: word {'a' * n} has probability 0/1 vs 1/1\n"
        jobs.append(Job(tag, "equiv-cycles", n, _expect_exact(1, text), argv))
    return files, jobs


# ------------------------------------------------------------------ words


def _check_table(alphabet: list[str], max_len: int, forbidden: str | None) -> Check:
    """Every word up to `max_len` in length-lexicographic order, each
    length level summing to one, and zero mass on words containing
    `forbidden`."""

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        lines = out.splitlines()
        if not lines or lines[0] != "ε 1/1":
            return "table does not start with the empty word at 1/1"
        pos = 1
        for length in range(1, max_len + 1):
            total = Fraction(0)
            for word in itertools.product(alphabet, repeat=length):
                text = "".join(word)
                if pos >= len(lines):
                    return "table is too short"
                got, _, prob = lines[pos].partition(" ")
                pos += 1
                if got != text:
                    return f"word {got!r} out of order, expected {text!r}"
                p = Fraction(prob)
                if forbidden and forbidden in text and p:
                    return f"word {text} is forbidden but has probability {prob}"
                total += p
            if total != 1:
                return f"length-{length} probabilities sum to {total}"
        if pos != len(lines):
            return "table has extra lines"
        return None

    return check


def _check_golden_sample(n: int) -> Check:
    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        word = out.rstrip("\n")
        if len(word) != n or set(word) - {"0", "1"} or "11" in word:
            return "sample is not a golden-mean word of the requested length"
        return None

    return check


def _words_round(seed: int, r: int, tiny: bool) -> tuple[dict[str, str], list[Job]]:
    # Sizes repeat so that six jobs of about 50 ms hold the median, and the
    # random L=9, golden L=15 and 100k-sample jobs under the golden L=16 job
    # hold the 90th percentile.
    golden_lens = (3, 4) if tiny else (12, 12, 13, 15, 16)
    random_lens = (2, 3) if tiny else (6, 6, 7, 7, 7, 8, 9)
    sample_ns = (100, 300) if tiny else (10_000, 10_000, 30_000, 100_000)
    transports = ((2, 2, 2),) if tiny else (
        (4, 2, 5), (4, 2, 5), (6, 3, 6), (6, 3, 6), (8, 3, 7))
    golden = inst.golden_mean()
    files = {"golden-mean.json": golden.text()}
    jobs: list[Job] = []
    for k, length in enumerate(golden_lens):
        jobs.append(Job(f"r{r}-golden{length}-{k}", "words-golden", length,
                        _check_table(golden.alphabet, length, "11"),
                        ["words", "golden-mean.json", "--max-len", str(length)]))
    for k, length in enumerate(random_lens):
        tag = f"r{r}-random6-L{length}-{k}"
        machine = inst.random_kernel(inst.stream(seed, "words", tag), 6)
        files[f"{tag}.json"] = machine.text()
        jobs.append(Job(tag, "words-random", length,
                        _check_table(machine.alphabet, length, None),
                        ["words", f"{tag}.json", "--max-len", str(length)]))
    for k, n in enumerate(sample_ns):
        tag = f"r{r}-sample{n}-{k}"
        sample_seed = inst.stream(seed, "words", tag).randrange(2**32)
        jobs.append(Job(tag, "sample", n, _check_golden_sample(n),
                        ["sample", "golden-mean.json", "--n", str(n), "--seed", str(sample_seed)]))
    for k, (m, rep, length) in enumerate(transports):
        tag = f"r{r}-transport{m}x{rep}-L{length}-{k}"
        base, lift, quotient = inst.lifted(inst.stream(seed, "words", tag), m, rep)
        files[f"{tag}-lift.json"] = lift.text()
        files[f"{tag}-base.json"] = base.text()
        lib = {"source": f"{tag}-lift.json",
               "target": f"{tag}-base.json", "f": quotient, "max_len": length}
        jobs.append(Job(tag, "check-transport", m * rep * length,
                        _expect_exact(0, "True"), lib=lib))
    return files, jobs


# Round function and round count: each deck holds just over 100 jobs, so one
# pass of it is a whole run.
_ROUNDS = {"reduce": (_reduce_round, 6), "equiv": (_equiv_round, 5), "words": (_words_round, 5)}


def build(workload: str, seed: int, tiny: bool = False) -> Deck:
    """The deck of `workload` for `seed`.  CLI argv name input files
    relative to the inputs directory; the runner resolves them."""
    deck = Deck()
    make_round, rounds = _ROUNDS[workload]
    for r in range(rounds):
        files, jobs = make_round(seed, r, tiny)
        deck.files.update(files)
        inst.stream(seed, workload, "order", r).shuffle(jobs)
        deck.rounds.append(jobs)
    return deck


def resolve(argv: list[str], inputs: Path, files: dict[str, str]) -> list[str]:
    return [str(inputs / a) if a in files else a for a in argv]
