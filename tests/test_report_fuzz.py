"""Seeded fuzz of the report's readers: 200 mutants of a real run folder's
manifest.txt, rounds.csv and amplified.csv must each end in exit 0 or 3,
never in an uncaught exception.

Numeric mutants are at least 2**63 in magnitude, so no reader, fixed or
not, can be led into a large allocation: such an index overflows numpy's
dimension check before any memory is asked for.
"""

import re

import numpy as np
import pytest

from gradamp.cli import main
from gradamp.config import ExperimentConfig
from gradamp.harness import run_experiment

FILES = ("manifest.txt", "rounds.csv", "amplified.csv")
MUTANTS = 200
HUGE = (b"%d" % 2**63, b"%d" % (2**64 + 7), b"-%d" % 2**63, b"1" + b"0" * 400)
NON_NUMBERS = (b"x", b"", b"1.5.2", b"0x10", b"--1")


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "run"
    cfg = ExperimentConfig.from_mapping(
        {
            "dataset.per_class": 20,
            "federation.clients": 5,
            "federation.rounds": 3,
            "federation.checkpoint_every": 1,
            "local.epochs": 1,
            "model.hidden": 4,
            "attack.kind": "scale",
            "attack.start_round": 1,
            "attack.target_label": 1,
            "output.dump_amplified_round": 2,
            "output.dir": str(out),
        }
    )
    run_experiment(cfg)
    return {name: (out / name).read_bytes() for name in FILES}


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    lines = data.split(b"\n")
    i = int(rng.integers(len(lines)))
    kind = int(rng.integers(6))
    if kind == 0:  # byte flip
        out = bytearray(data)
        out[int(rng.integers(len(out)))] = int(rng.integers(256))
        return bytes(out)
    if kind == 1:  # truncation
        return data[: int(rng.integers(len(data)))]
    if kind == 2:  # duplicated line
        return b"\n".join(lines[: i + 1] + lines[i:])
    if kind == 3:  # dropped line
        return b"\n".join(lines[:i] + lines[i + 1 :])
    tokens = re.split(rb"([,=])", lines[i])
    j = 2 * int(rng.integers((len(tokens) + 1) // 2))
    pool = NON_NUMBERS if kind == 4 else HUGE
    tokens[j] = pool[int(rng.integers(len(pool)))]
    lines[i] = b"".join(tokens)
    return b"\n".join(lines)


def test_report_survives_seeded_mutants_of_a_run_folder(originals, tmp_path, capsys):
    rng = np.random.default_rng(0)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    unchecked = b"".join(
        line + b"\n" for line in originals["manifest.txt"].splitlines() if not line.startswith(b"checksum.")
    )
    codes = []
    for n in range(MUTANTS):
        files = dict(originals)
        if rng.integers(2):  # half the mutants reach the parsers past the checksums
            files["manifest.txt"] = unchecked
        name = FILES[int(rng.integers(len(FILES)))]
        files[name] = mutate(files[name], rng)
        for file_name, data in files.items():
            (run_dir / file_name).write_bytes(data)
        code = main(["report", str(run_dir / "manifest.txt"), "--out", str(tmp_path / "rep")])
        err = capsys.readouterr().err
        assert code in (0, 3), (n, name, files[name])
        assert "Traceback" not in err, (n, name, err)
        codes.append(code)
    assert 0 in codes and 3 in codes
