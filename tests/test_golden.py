"""Golden CLI output: the SHA-256 of every command's stdout on every catalog
fixture, captured before the reduction pipeline was collapsed into one
quotient builder.  Any change to an emitted byte fails here.

To print the table for the code on ``PYTHONPATH``:
``python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from genred.catalog import FIXTURE_NAMES
from genred.cli import run

COMMANDS = {
    "example": ["example", "{name}"],
    "reduce-event": ["reduce", "{path}", "--mode", "event"],
    "reduce-state": ["reduce", "{path}", "--mode", "state"],
    "reduce-full": ["reduce", "{path}", "--mode", "full"],
    "reduce-dot": ["reduce", "{path}", "--dot", "{dot}"],
    "causal": ["causal", "{path}"],
    "words": ["words", "{path}", "--max-len", "4"],
    "sample": ["sample", "{path}", "--n", "64", "--seed", "7"],
}

GOLDEN = {
    "randomness-2 example": "313e9a437668d6d9935019b0618c96152ed27016acfbb49f369dd19a5a6b99bd",
    "randomness-2 reduce-event": "53458066d5b50edd8faf7106b1c5d109365ad1d96f24d9071ea41e4c5f7e6904",
    "randomness-2 reduce-state": "02c4bc788d99565afc422d04ffd41412d3cd7efc7aeb5afc3546360b3b516719",
    "randomness-2 reduce-full": "02c4bc788d99565afc422d04ffd41412d3cd7efc7aeb5afc3546360b3b516719",
    "randomness-2 reduce-dot": "d3a39c6fa9205e7a61897a9fd242d79b3bd6e1231d0275ba2e791d5b9c801987",
    "randomness-2 causal": "53458066d5b50edd8faf7106b1c5d109365ad1d96f24d9071ea41e4c5f7e6904",
    "randomness-2 words": "e3a5938df33d7ce62362ebf5bf5204471a7bdab0cf14e649d15a31cbd8b85591",
    "randomness-2 sample": "08a6a01b8dcce7ea1045da1fe53c5379f916a5cd6699e66388921629b1854887",
    "rotation-p4 example": "a136e53e2958fc9b3dd1a3c2490f8a733dfc48bca6c26aa3dad0eee290dbebe2",
    "rotation-p4 reduce-event": "36e40e2f0b5152449767560cd13fc17a28df0ef134c313ba69bc3c36439d0c89",
    "rotation-p4 reduce-state": "cf8842367d53fdd712ec71777cb8788e0e4d05c567e2ce1a1ce84e2c7f98ab4f",
    "rotation-p4 reduce-full": "cf8842367d53fdd712ec71777cb8788e0e4d05c567e2ce1a1ce84e2c7f98ab4f",
    "rotation-p4 reduce-dot": "a161c40e8fbc0065aa322e9109e6d9400e8ffbcf31de2c648ad180f5070046ab",
    "rotation-p4 causal": "36e40e2f0b5152449767560cd13fc17a28df0ef134c313ba69bc3c36439d0c89",
    "rotation-p4 words": "3cd059aac40ffc343294a259d13d8823c9e0b6cbfe75ad4d96174ae785c79861",
    "rotation-p4 sample": "508b23c70df23d970aec50ab81fd40af63ef4073ddd583db1cbc8979c054cefd",
    "rotation-p3 example": "c445c43bc21a7f67a231ca90975e19027a2806d457db911e378b892263aaf064",
    "rotation-p3 reduce-event": "184b5304d1b64bcab002ed0f070a570a6292bf1c46be756284cdb4a2db91efd6",
    "rotation-p3 reduce-state": "c51336b88ad7db72250e488c9283cfa48c0aea84e854ceba833c327fc350d3e4",
    "rotation-p3 reduce-full": "c51336b88ad7db72250e488c9283cfa48c0aea84e854ceba833c327fc350d3e4",
    "rotation-p3 reduce-dot": "29380eeaa7e7fc37a075b62216c499a82ac14de06b59c6ca166fb9deac12fc8e",
    "rotation-p3 causal": "184b5304d1b64bcab002ed0f070a570a6292bf1c46be756284cdb4a2db91efd6",
    "rotation-p3 words": "7ea3da0a3361fda0172c7646a0f641660728ba7daaf71622012a08127752cc52",
    "rotation-p3 sample": "afe89c27915130a9dd3f48e8db5404f4b7c3c73a5da7b697e95b7af6f93b7bdc",
    "golden-mean example": "d6e23df82a1206ac9f28ae49c080432c548ac940052b792bb02a6540eef5ca3c",
    "golden-mean reduce-event": "5c34bc0718cf78ec5f367e4f4a01ab08e00bc8b329de17aee27fce5c566883ec",
    "golden-mean reduce-state": "070717b1e82cad6395dc3db605ab9de38d3c19d56e9151415eba01443506fb5a",
    "golden-mean reduce-full": "070717b1e82cad6395dc3db605ab9de38d3c19d56e9151415eba01443506fb5a",
    "golden-mean reduce-dot": "0468a16f636fc903d26371b04ab28b1e1a5f81bae876412bfbb4d5c4c7756ed4",
    "golden-mean causal": "5c34bc0718cf78ec5f367e4f4a01ab08e00bc8b329de17aee27fce5c566883ec",
    "golden-mean words": "c5b34956f449bf5163c11817fd5fd1eac9a9a424b2a82859f81efa972e1a26b0",
    "golden-mean sample": "bbc6ea9abbd3ec40b46408ff06ad4543ebabc985b61844392241aba973ada8af",
    "golden-mean-redundant example": "83c8ea323b51891e5f9694e8a9b36f67405b53789825db58ace6f379c3c8957e",
    "golden-mean-redundant reduce-event": "d0083ed20e58aabe5d41fd8a99846f71700d667af639a33a34d0b637e8dbe013",
    "golden-mean-redundant reduce-state": "b36273287739926740dd9350cafc90078b5135856f6b4398fcf7dbc00b1ee3c6",
    "golden-mean-redundant reduce-full": "b36273287739926740dd9350cafc90078b5135856f6b4398fcf7dbc00b1ee3c6",
    "golden-mean-redundant reduce-dot": "0468a16f636fc903d26371b04ab28b1e1a5f81bae876412bfbb4d5c4c7756ed4",
    "golden-mean-redundant causal": "d0083ed20e58aabe5d41fd8a99846f71700d667af639a33a34d0b637e8dbe013",
    "golden-mean-redundant words": "c5b34956f449bf5163c11817fd5fd1eac9a9a424b2a82859f81efa972e1a26b0",
    "golden-mean-redundant sample": "37820e7ea5754b0323c9bd2344fdca8477d18dfe5f7e22c41086eb5426872c37",
    "parity-4 example": "f2e03827ef129377dfe28f37c62d07a6e49b33c4fe4cfbc773e6f36c01925218",
    "parity-4 reduce-event": "b37d3abf4bb2087830e5589d7299cc03bc2ee3f1c15232f2ae129c4518af4950",
    "parity-4 reduce-state": "a9d0a07032ac04e7f07090e2a3156104f991a7057550368290cc55b86bcb9ca5",
    "parity-4 reduce-full": "31cb835417441b4fbb2211f72762e47b751dc08925a4f1dc3b461530b31574b4",
    "parity-4 reduce-dot": "7cf8c00642353765d2bf58cba9c692f0ce3af266918fa1fd8dec0c6bd78135a5",
    "parity-4 causal": "b37d3abf4bb2087830e5589d7299cc03bc2ee3f1c15232f2ae129c4518af4950",
    "parity-4 words": "d030244e4809e8d34218fd00a641ec1bf93ef0b6ad632cc31a5b9ff690e8e069",
    "parity-4 sample": "7a887081ac7eda495e42799e9cd0b4f0109c07467c226bf25e89ec752f005dd3",
}


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0, argv
    return out.getvalue()


def digests(name: str, workdir: Path) -> dict[str, str]:
    """SHA-256 of each command's stdout on one fixture (of the DOT file for
    ``reduce-dot``); the input file is the fixture as ``example`` prints it."""
    path, dot = workdir / f"{name}.json", workdir / f"{name}.dot"
    path.write_text(_stdout(["example", name]))
    out = {}
    for key, argv in COMMANDS.items():
        text = _stdout([a.format(name=name, path=path, dot=dot) for a in argv])
        if key == "reduce-dot":
            text = dot.read_text()
        out[f"{name} {key}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_cli_stdout_matches_golden(name, tmp_path):
    got = digests(name, tmp_path)
    assert got == {key: GOLDEN[key] for key in got}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name in FIXTURE_NAMES:
            for key, digest in digests(name, Path(tmp)).items():
                print(f'    "{key}": "{digest}",')
