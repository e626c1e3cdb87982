"""The chaos drill table: CLI lookup, refused fault flags, broken verdicts.

The passing path of every drill is covered end to end by the CLI tests
(``tests/test_cli.py``, ``tests/runtime/test_chaos.py``); these tests pin
what the table adds: a fault flag a drill never injects, or a shard the
fleet does not have, is a usage error, and a broken invariant fails the
run and names itself.
"""

from __future__ import annotations

import dataclasses
import io
import re

import pytest

from repro.cli import build_parser, main
from repro.service.drills import DRILLS
from repro.service.server import AdmissionService
from repro.service.surfaces import DecisionSurfaces

SMALL = [
    "--lam", "0.05", "--mu", "0.05", "--lam1", "0.05", "--mu1", "0.05",
    "--lam2", "0.4", "--mu2", "3.0", "-l", "2", "-m", "1",
]

FAULT_VALUES = {"kill": "0", "delay": "0:1", "poison": "eig"}


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_table_covers_every_chaos_target(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chaos", "--help"])
    choices = re.search(r"--target \{([^}]*)\}", capsys.readouterr().out)
    assert set(choices.group(1).split(",")) == set(DRILLS)


@pytest.mark.parametrize(
    ("target", "flag"),
    [
        (target, flag)
        for target, drill in DRILLS.items()
        for flag in FAULT_VALUES
        if flag not in drill.reads
    ],
)
def test_fault_flag_the_drill_never_injects_is_a_usage_error(target, flag):
    code, text = run_cli(
        ["chaos", *SMALL, "--target", target, f"--{flag}", FAULT_VALUES[flag]]
    )
    assert code == 2
    assert f"--{flag}" in text
    assert "verdict" not in text


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--target", "fleet", "--shards", "2", "--kill", "5"], "shard 5"),
        (["--target", "fleet", "--shards", "2", "--kill", "-1"], "shard -1"),
        (["--kill", "1:2:3"], "bad --kill spec"),
        (["--target", "serve", "--delay", "zero:1"], "bad --delay spec"),
    ],
)
def test_bad_fault_arguments_are_usage_errors(argv, message):
    code, text = run_cli(["chaos", *SMALL, *argv])
    assert code == 2
    assert message in text
    assert "listening" not in text and "verdict" not in text


def test_broken_invariant_exits_1_and_names_itself(monkeypatch):
    # An identity "tightening" leaves generation 1 admitting the probe
    # generation 0 admits, so the reload drill's generation check breaks.
    monkeypatch.setattr(DecisionSurfaces, "tightened", lambda self, by=1.0: self)
    code, text = run_cli(["chaos", *SMALL, "--target", "reload", "--shards", "2"])
    assert code == 1
    (verdict,) = [line for line in text.splitlines() if line.startswith("verdict")]
    assert "BROKEN" in verdict
    assert "0 mixed-generation answers" in verdict
    assert "0 mixed-generation answers: False" in text


def test_serve_smoke_checks_its_batch_rows(monkeypatch):
    # A batch answered in reverse row order puts the interpolated probe's
    # answer in the surface probe's row; the smoke must notice.
    admit_batch = AdmissionService.admit_batch

    async def reversed_rows(self, *args, **kwargs):
        batch = await admit_batch(self, *args, **kwargs)
        return dataclasses.replace(
            batch,
            admit=batch.admit[::-1],
            tier=batch.tier[::-1],
            max_n2=batch.max_n2[::-1],
            estimate=batch.estimate[::-1],
        )

    monkeypatch.setattr(AdmissionService, "admit_batch", reversed_rows)
    code, text = run_cli(
        [
            "serve", *SMALL, "--delay-targets", "0.6,0.9",
            "--max-population", "4", "--smoke", "--port", "0",
        ]
    )
    assert code == 1
    (verdict,) = [line for line in text.splitlines() if line.startswith("verdict")]
    assert "BROKEN" in verdict
    assert "batch rows match their probes" in verdict
    assert "batch rows match their probes: False" in text
