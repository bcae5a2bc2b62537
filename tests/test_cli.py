import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import genred
from genred import Distribution, catalog, cli, validate, word_probability
from genred.cli import MAX_ROTATION_DENOMINATOR, run
from genred.formats import dump_generator, parse_generator_text
from helpers import read_exact


@pytest.fixture
def fixture_file(tmp_path):
    def write(name: str, with_initial: bool = True) -> str:
        gen, mu = catalog(name)
        path = tmp_path / f"{name}.json"
        path.write_text(dump_generator(gen, mu if with_initial else None))
        return str(path)

    return write


def assert_usage_error(code: int, capsys) -> str:
    """Exit 2 with one line on stderr and nothing on stdout."""
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    return captured.err


class TestValidateCommand:
    def test_valid_file(self, fixture_file, capsys):
        assert run(["validate", fixture_file("golden-mean")]) == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_bad_row_sum(self, tmp_path, capsys):
        doc = {
            "format_version": 1,
            "states": ["q"],
            "alphabet": ["h", "t"],
            "transitions": [
                {"from": "q", "to": "q", "symbol": "h", "prob": "1/2"},
                {"from": "q", "to": "q", "symbol": "t", "prob": "1/3"},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", str(path)]) == 1
        assert "row q sums to 5/6" in capsys.readouterr().out

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        assert run(["validate", str(path)]) == 2

    def test_long_mantissa_file_is_usage_error(self, tmp_path, capsys):
        gen, mu = catalog("golden-mean")
        text = dump_generator(gen, mu)
        for prob in ('"0.' + "0" * 5000 + '1"', "1" + "0" * 5000):
            path = tmp_path / "long.json"
            path.write_text(text.replace('"1/2"', prob, 1))
            err = assert_usage_error(run(["validate", str(path)]), capsys)
            assert len(err) < 300 and "set_int_max_str_digits" not in err

    def test_missing_file(self, tmp_path):
        assert run(["validate", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("field", ["from", "to", "symbol"])
    def test_non_string_transition_field_is_usage_error(self, field, tmp_path, capsys):
        gen, mu = catalog("golden-mean")
        doc = json.loads(dump_generator(gen, mu))
        for value in (["A"], {"A": "B"}):
            doc["transitions"][0][field] = value
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            for command in ("validate", "reduce", "causal"):
                err = assert_usage_error(run([command, str(path)]), capsys)
                assert "must be strings" in err

    def test_long_values_are_echoed_short(self, tmp_path, capsys):
        gen, mu = catalog("golden-mean")
        text = dump_generator(gen, mu)
        long = "Z" * 100_000
        nested = json.loads("[" * 900 + "]" * 900)
        docs = []
        for field, value in (
            ("prob", list(range(100_000))), ("prob", nested), ("from", long),
            ("to", long), ("symbol", long), (long, "1"),
        ):
            doc = json.loads(text)
            doc["transitions"][0][field] = value
            docs.append(doc)
        docs.append(json.loads(text) | {long: 1})
        docs.append(json.loads(text) | {"initial": {long: "1"}})
        transition = {"from": long, "to": long, "symbol": "1", "prob": "1"}
        docs.append({"format_version": 1, "states": [long], "alphabet": ["1"],
                     "transitions": [transition, transition]})
        path = tmp_path / "long.json"
        for doc in docs:
            path.write_text(json.dumps(doc))
            err = assert_usage_error(run(["validate", str(path)]), capsys)
            assert len(err) < len(str(path)) + 160

    def test_long_state_name_in_report_is_cut(self, tmp_path, capsys):
        name = "Z" * 100_000
        path = tmp_path / "long.json"
        path.write_text(json.dumps({
            "format_version": 1, "states": [name], "alphabet": ["a"],
            "transitions": [{"from": name, "to": name, "symbol": "a", "prob": "1/2"}],
        }))
        assert run(["validate", str(path)]) == 1
        assert capsys.readouterr().out == f"row {'Z' * 40} sums to 1/2\n"
        assert run(["words", str(path), "--max-len", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: row {'Z' * 40} sums to 1/2\n"

    def test_deeply_nested_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000)
        err = assert_usage_error(run(["validate", str(path)]), capsys)
        assert err == f"{path}: invalid JSON: nested too deeply\n"

    def test_tolerance_flag(self, tmp_path, capsys):
        third = "0.333333333"
        doc = {
            "format_version": 1,
            "states": ["q"],
            "alphabet": ["a", "b", "c"],
            "transitions": [
                {"from": "q", "to": "q", "symbol": s, "prob": third}
                for s in ("a", "b", "c")
            ],
        }
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", str(path)]) == 1
        assert run(["validate", str(path), "--tolerance"]) == 0
        capsys.readouterr()
        code = run(["validate", str(path), "--tolerance=-1/2"])
        assert assert_usage_error(code, capsys) == "tolerance must be >= 0\n"


class TestReduceCommand:
    def test_full_reduction_of_randomness(self, fixture_file, capsys):
        assert run(["reduce", fixture_file("randomness-2"), "--mode", "full"]) == 0
        gen, initial = parse_generator_text(capsys.readouterr().out)
        assert len(gen.states) == 1
        assert initial == {gen.states[0]: Fraction(1)}
        (state,) = gen.states
        assert gen.kernel[state] == {
            (state, "a"): Fraction(1, 2),
            (state, "b"): Fraction(1, 2),
        }

    def test_event_mode_prints_partition(self, fixture_file, capsys):
        assert run(["reduce", fixture_file("parity-4"), "--mode", "event"]) == 0
        assert capsys.readouterr().out == "{0,2}\n{1,3}\n"

    def test_reduction_output_carries_quotient(self, fixture_file, capsys):
        assert run(["reduce", fixture_file("golden-mean-redundant")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quotient"] == {"A": "c_A", "B": "c_B", "C": "c_B"}

    def test_already_minimal_is_isomorphic(self, fixture_file, capsys):
        path = fixture_file("golden-mean")
        assert run(["reduce", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        quotient = doc["quotient"]
        assert sorted(quotient) == ["A", "B"]
        assert len(set(quotient.values())) == 2
        gen, _ = parse_generator_text(json.dumps({k: v for k, v in doc.items() if k != "quotient"}))
        original, _ = catalog("golden-mean")
        renamed = {x: quotient[x] for x in original.states}
        assert gen.kernel[quotient["A"]] == {
            (renamed[y], s): p for (y, s), p in original.kernel["A"].items()
        }

    def test_out_and_dot_files(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "reduced.json"
        dot = tmp_path / "reduced.dot"
        code = run([
            "reduce", fixture_file("golden-mean-redundant"),
            "--out", str(out), "--dot", str(dot),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        gen, _ = parse_generator_text(out.read_text())
        assert validate(gen) == []
        assert "label=" in dot.read_text()

    def test_dot_rejected_in_event_mode(self, fixture_file, tmp_path):
        code = run([
            "reduce", fixture_file("parity-4"),
            "--mode", "event", "--dot", str(tmp_path / "x.dot"),
        ])
        assert code == 2

    def test_unwritable_out_is_usage_error(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "absent" / "x.json"
        code = run(["reduce", fixture_file("golden-mean"), "--out", str(out)])
        assert "cannot write" in assert_usage_error(code, capsys)

    def test_unwritable_dot_is_usage_error(self, fixture_file, tmp_path, capsys):
        dot = tmp_path / "absent" / "x.dot"
        code = run([
            "reduce", fixture_file("golden-mean"),
            "--out", str(tmp_path / "ok.json"), "--dot", str(dot),
        ])
        assert "cannot write" in assert_usage_error(code, capsys)

    def test_state_mode(self, fixture_file, capsys):
        assert run(["reduce", fixture_file("golden-mean-redundant"), "--mode", "state"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["states"]) == 2

    def test_bad_file_initial_reads_like_words(self, tmp_path, capsys):
        doc = json.loads(dump_generator(catalog("golden-mean-redundant")[0]))
        doc["initial"] = {"A": "1/2"}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(doc))
        errors = []
        for argv in (["reduce", str(path)], ["words", str(path), "--max-len", "1"]):
            assert run(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors == [f"{path}: bad initial distribution: "
                          "weights sum to 1/2, expected exactly 1\n"] * 2

    def test_invalid_input_exits_one(self, tmp_path):
        doc = {
            "format_version": 1,
            "states": ["q"],
            "alphabet": ["h"],
            "transitions": [{"from": "q", "to": "q", "symbol": "h", "prob": "1/3"}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["reduce", str(path)]) == 1


class TestWordsCommand:
    def test_table_output(self, fixture_file, capsys):
        assert run(["words", fixture_file("randomness-2"), "--max-len", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ε 1/1"
        assert "ab 1/4" in out

    def test_initial_specs(self, fixture_file, capsys):
        path = fixture_file("golden-mean", with_initial=False)
        assert run(["words", path, "--max-len", "1", "--initial", "B"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "0 1/1" in lines and "1 0/1" in lines
        spec = '{"A": "1/2", "B": "1/2"}'
        assert run(["words", path, "--max-len", "1", "--initial", spec]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "0 3/4" in lines and "1 1/4" in lines
        assert run(["words", path, "--max-len", "1", "--initial", "uniform"]) == 0

    def test_file_initial_used_by_default(self, fixture_file, capsys):
        assert run(["words", fixture_file("golden-mean"), "--max-len", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "0 2/3" in lines and "1 1/3" in lines

    def test_bad_initial_spec(self, fixture_file):
        assert run(["words", fixture_file("golden-mean"), "--max-len", "1",
                    "--initial", "nope"]) == 2

    def test_long_exponent_initial_is_one_line(self, fixture_file, capsys):
        path = fixture_file("golden-mean")
        code = run(["words", path, "--max-len", "2", "--initial", '{"A": "1e-99999"}'])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "exponent longer than 3 digits" in captured.err

    def test_huge_max_len_is_one_short_line(self, fixture_file, capsys):
        path = fixture_file("golden-mean")
        start = time.perf_counter()
        code = run(["words", path, "--max-len", "100000"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "table would hold more than 1000000 entries\n"
        assert elapsed < 1.0

    def test_deeply_nested_initial_is_usage_error(self, fixture_file, capsys):
        path = fixture_file("golden-mean")
        spec = '{"A": ' + "[" * 200_000
        code = run(["words", path, "--max-len", "1", "--initial", spec])
        assert "bad initial spec" in assert_usage_error(code, capsys)

    def test_long_mantissa_initial_is_one_line(self, fixture_file, capsys):
        path = fixture_file("golden-mean")
        spec = json.dumps({"A": "0." + "0" * 5000 + "1"})
        code = run(["words", path, "--max-len", "1", "--initial", spec])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and len(captured.err) < 200
        assert "more than 4300 digits" in captured.err

    def test_long_exponent_tolerance_is_usage_error(self, fixture_file, capsys):
        path = fixture_file("golden-mean")
        code = run(["words", path, "--max-len", "2", "--tolerance", "1e-99999"])
        assert "exponent" in assert_usage_error(code, capsys)

    def test_size_limit_flag(self, fixture_file):
        assert run(["words", fixture_file("randomness-2"), "--max-len", "4",
                    "--size-limit", "10"]) == 1

    def test_negative_max_len_is_usage_error(self, fixture_file, capsys):
        code = run(["words", fixture_file("golden-mean"), "--max-len", "-1"])
        assert "--max-len" in assert_usage_error(code, capsys)

    def test_negative_size_limit_is_usage_error(self, fixture_file, capsys):
        code = run(["words", fixture_file("golden-mean"), "--max-len", "1",
                    "--size-limit", "-5"])
        assert "--size-limit" in assert_usage_error(code, capsys)


@pytest.mark.parametrize("spec", [
    '{"zz": "1"}',
    json.dumps({f"n{i}": "1/20000" for i in range(20_000)}),
])
def test_initial_on_non_states_exits_one_on_every_command(spec, fixture_file, capsys):
    path = fixture_file("golden-mean")
    for argv in (
        ["equiv", path, path, "--muA", spec],
        ["equiv", path, path, "--muB", spec],
        ["words", path, "--max-len", "1", "--initial", spec],
        ["sample", path, "--n", "1", "--initial", spec],
    ):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"{path}: bad initial distribution: "
                               "distribution supported on non-states ['")
        assert len(line) < 300


class TestEquivCommand:
    def test_generator_equivalent_to_reduction(self, fixture_file, tmp_path, capsys):
        path = fixture_file("golden-mean-redundant")
        out = tmp_path / "reduced.json"
        assert run(["reduce", path, "--out", str(out)]) == 0
        assert run(["equiv", path, str(out)]) == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_inequivalent_reports_shortest_word(self, tmp_path, capsys):
        def coin_doc(p_heads: str, p_tails: str) -> dict:
            return {
                "format_version": 1,
                "states": ["q"],
                "alphabet": ["h", "t"],
                "transitions": [
                    {"from": "q", "to": "q", "symbol": "h", "prob": p_heads},
                    {"from": "q", "to": "q", "symbol": "t", "prob": p_tails},
                ],
            }

        fair = tmp_path / "fair.json"
        fair.write_text(json.dumps(coin_doc("1/2", "1/2")))
        biased = tmp_path / "biased.json"
        biased.write_text(json.dumps(coin_doc("1/3", "2/3")))
        assert run(["equiv", str(fair), str(biased)]) == 1
        out = capsys.readouterr().out
        assert "not equivalent" in out
        assert "h" in out and "1/2" in out and "1/3" in out

    def test_mu_flags(self, fixture_file, capsys):
        path = fixture_file("golden-mean", with_initial=False)
        code = run(["equiv", path, path, "--muA", "A", "--muB", "B"])
        assert code == 1

    def test_alphabet_mismatch_is_usage_error(self, fixture_file):
        a = fixture_file("golden-mean")
        b = fixture_file("randomness-2")
        assert run(["equiv", a, b]) == 2


class TestCausalCommand:
    def test_partition_report(self, fixture_file, capsys):
        assert run(["causal", fixture_file("golden-mean-redundant")]) == 0
        assert capsys.readouterr().out == "{A}\n{B,C}\n"


class TestExampleCommand:
    def test_named_fixture(self, capsys):
        assert run(["example", "randomness-2"]) == 0
        gen, initial = parse_generator_text(capsys.readouterr().out)
        expected, mu = catalog("randomness-2")
        assert gen == expected
        assert Distribution(initial) == mu

    def test_rotation_quarter_turn(self, capsys):
        assert run(["example", "rotation:1/4"]) == 0
        gen, initial = parse_generator_text(capsys.readouterr().out)
        assert len(gen.states) == 4
        assert set(initial.values()) == {Fraction(1, 4)}

    def test_rotation_normalizes_angle(self, capsys):
        assert run(["example", "rotation:2/4"]) == 0
        gen, _ = parse_generator_text(capsys.readouterr().out)
        assert len(gen.states) == 2  # 2/4 of a turn = 1/2, p even

    def test_irrational_rotation_rejected(self, capsys):
        assert run(["example", "rotation:sqrt2"]) == 1
        err = capsys.readouterr().err
        assert "no finite internal-event reduction" in err

    def test_angle_language_is_the_schema_probability_language(self, capsys):
        # Fraction(str) accepts "_" and a leading "+" on 3.11 and spaces
        # around "/" on 3.12; the angle language is the same on every version
        for spec in ("1_0/3_0", "+1/3", "1 / 3"):
            assert run(["example", f"rotation:{spec}"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert "no finite internal-event reduction" in captured.err
        for spec in ("1/3", " 1/3 ", "-2/3", "0.25", "25e-2"):
            assert run(["example", f"rotation:{spec}"]) == 0
            capsys.readouterr()

    def test_zero_denominator_rotation_is_usage_error(self, capsys):
        code = run(["example", "rotation:1/0"])
        assert "zero denominator" in assert_usage_error(code, capsys)

    def test_large_denominator_rotation_is_usage_error(self, capsys):
        for spec in ("1/100000000", "1e-999", f"1/{MAX_ROTATION_DENOMINATOR + 1}"):
            code = run(["example", f"rotation:{spec}"])
            err = assert_usage_error(code, capsys)
            assert f"denominator over {MAX_ROTATION_DENOMINATOR}" in err

    def test_long_exponent_rotation_is_usage_error(self, capsys):
        code = run(["example", "rotation:1e-99999999"])
        assert "exponent" in assert_usage_error(code, capsys)

    def test_unknown_fixture(self, capsys):
        assert run(["example", "nonesuch"]) == 1

    def test_long_unknown_fixture_name_is_one_short_line(self, capsys):
        code = run(["example", "x" * 100_000])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and len(captured.err) < 300
        assert "unknown fixture 'xxxx" in captured.err


class TestSampleCommand:
    def test_deterministic_given_seed(self, fixture_file, capsys):
        path = fixture_file("randomness-2")
        assert run(["sample", path, "--n", "16", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert run(["sample", path, "--n", "16", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip()) == 16

    def test_zero_length(self, fixture_file, capsys):
        assert run(["sample", fixture_file("randomness-2"), "--n", "0"]) == 0
        assert capsys.readouterr().out == "\n"

    def test_negative_length_is_usage_error(self, fixture_file, capsys):
        code = run(["sample", fixture_file("randomness-2"), "--n", "-1"])
        assert "--n" in assert_usage_error(code, capsys)

    def test_different_seeds_differ(self, fixture_file, capsys):
        path = fixture_file("randomness-2")
        run(["sample", path, "--n", "32", "--seed", "1"])
        a = capsys.readouterr().out
        run(["sample", path, "--n", "32", "--seed", "2"])
        assert capsys.readouterr().out != a


class TestParserBuiltOnce:
    def test_usage_error_then_valid_command_as_with_fresh_parsers(
        self, fixture_file, capsys, monkeypatch
    ):
        path = fixture_file("golden-mean")
        argvs = [["words", path, "--max-len", "x"], ["words", path, "--max-len", "2"],
                 ["reduce"], ["equiv", path, path]]

        def outcome(argv):
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            return code, capsys.readouterr().out

        shared = [outcome(argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            fresh.append(outcome(argv))
        assert [code for code, _ in shared] == [2, 0, 2, 0]
        assert shared == fresh


class TestRoundTrips:
    def test_example_outputs_validate_and_round_trip(self, capsys):
        from genred.catalog import FIXTURE_NAMES

        for name in FIXTURE_NAMES:
            assert run(["example", name]) == 0
            text = capsys.readouterr().out
            gen, initial = parse_generator_text(text)
            assert validate(gen) == []
            assert dump_generator(gen, Distribution(initial)) == text


TINY = "0." + "0" * 4299 + "1"  # 1/10**4300: its denominator has 4301 digits


def two_state_file(tmp_path, k: int) -> tuple[str, dict]:
    """q -> r on "a" with probability 1/10**k, q -> q on "b" with the rest,
    r -> q on "a" surely, all as decimals; returns the path and the exact
    kernel."""
    p = Fraction(1, 10**k)
    doc = {
        "format_version": 1, "states": ["q", "r"], "alphabet": ["a", "b"],
        "transitions": [
            {"from": "q", "to": "r", "symbol": "a", "prob": "0." + "0" * (k - 1) + "1"},
            {"from": "q", "to": "q", "symbol": "b", "prob": "0." + "9" * k},
            {"from": "r", "to": "q", "symbol": "a", "prob": "1"},
        ],
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    kernel = {("q", "r", "a"): p, ("q", "q", "b"): 1 - p, ("r", "q", "a"): Fraction(1)}
    return str(path), kernel


class TestExactValuesOfAnyLength:
    def test_reduce_dot_and_words_past_the_int_digit_cap(self, tmp_path, capsys):
        path, kernel = two_state_file(tmp_path, 4300)
        dot = tmp_path / "reduced.dot"
        assert run(["reduce", path, "--dot", str(dot)]) == 0
        doc = json.loads(capsys.readouterr().out)
        renamed = doc["quotient"]
        got = {(t["from"], t["to"], t["symbol"]): t["prob"] for t in doc["transitions"]}
        assert got[renamed["q"], renamed["r"], "a"] == "1/1" + "0" * 4300
        assert got[renamed["q"], renamed["q"], "b"] == "9" * 4300 + "/1" + "0" * 4300
        assert {k: read_exact(v) for k, v in got.items()} == {
            (renamed[x], renamed[y], s): p for (x, y, s), p in kernel.items()
        }
        assert f'label="a : 1/1{"0" * 4300}"' in dot.read_text()
        assert run(["words", path, "--max-len", "2"]) == 0
        gen, _ = parse_generator_text(Path(path).read_text())
        mu = Distribution.uniform(gen.states)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        for line in lines:
            word, text = line.split(" ")
            w = () if word == "ε" else tuple(word)
            assert read_exact(text) == word_probability(gen, mu, w)

    def test_long_digit_word_table_is_one_short_line(self, tmp_path, capsys):
        # every step multiplies the denominator by 10**4300: the entry cap
        # admits --max-len 18, whose text would run to gigabytes, and the
        # text bound refuses the first length it cannot admit, 11
        path, _ = two_state_file(tmp_path, 4300)
        start = time.perf_counter()
        code = run(["words", path, "--max-len", "11"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "table text could exceed 256000000 characters\n"
        assert elapsed < 1.0

    def test_reduced_output_parses_back(self, tmp_path, capsys):
        # 1/10**4299 has a 4300-digit denominator, the longest run a file
        # may hold; its word table has runs of 8,599 digits
        path, kernel = two_state_file(tmp_path, 4299)
        assert run(["reduce", path]) == 0
        text = capsys.readouterr().out
        gen, initial = parse_generator_text(text)
        assert validate(gen) == [] and initial is None
        assert dump_generator(gen, quotient=json.loads(text)["quotient"]) == text
        assert run(["words", path, "--max-len", "2"]) == 0
        table = dict(line.split(" ") for line in capsys.readouterr().out.splitlines())
        p = kernel["q", "r", "a"]
        assert read_exact(table["ba"]) == (1 - p) * p / 2
        assert len(table["ba"].split("/")[1]) == 8599

    def test_echoed_values_stay_short(self, tmp_path, fixture_file, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({
            "format_version": 1, "states": ["q"], "alphabet": ["a"],
            "transitions": [{"from": "q", "to": "q", "symbol": "a",
                             "prob": "1." + "0" * 4000 + "1"}],
        }))
        assert run(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "entry q -> (q, a) = <4002 digits>/<4002 digits> outside [0, 1]",
            "row q sums to <4002 digits>/<4002 digits>",
        ]
        assert run(["words", str(path), "--max-len", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 2
        assert all(len(line) < 300 for line in captured.err.splitlines())
        gm = fixture_file("golden-mean")
        for spec in (json.dumps({"A": TINY, "B": "0"}),
                     json.dumps({"A": "1" + "0" * 4000, "B": "0"})):
            assert run(["words", gm, "--max-len", "1", "--initial", spec]) == 1
            captured = capsys.readouterr()
            (line,) = captured.err.splitlines()
            assert line.startswith(f"{gm}: bad initial distribution: ")
            assert len(line) < 300 and "set_int_max_str_digits" not in line

    def test_long_json_number_in_initial_is_usage_error(self, fixture_file, capsys):
        spec = '{"A": 1' + "0" * 5000 + "}"
        code = run(["words", fixture_file("golden-mean"), "--max-len", "1",
                    "--initial", spec])
        err = assert_usage_error(code, capsys)
        assert err == "bad initial spec: invalid JSON: a number over 4300 digits\n"

    def test_sample_with_a_denominator_past_64_bits(self, tmp_path):
        # a row whose lowest common denominator is 2**64 + 1 needs two words
        # per draw; a 64-bit-only rejection loop never returns
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "format_version": 1, "states": ["q"], "alphabet": ["a", "b"],
            "transitions": [
                {"from": "q", "to": "q", "symbol": "a", "prob": f"1/{2**64 + 1}"},
                {"from": "q", "to": "q", "symbol": "b", "prob": f"{2**64}/{2**64 + 1}"},
            ],
        }))
        env = dict(os.environ, PYTHONPATH=str(Path(genred.__file__).parent.parent))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "genred", "sample", str(path), "--n", "3"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "bbb\n", "")
        assert time.perf_counter() - start < 5
