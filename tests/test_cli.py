"""Tests for the command-line interface."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.runtime.resilience import CheckpointJournal
from repro.service.surfaces import SURFACE_SCHEMA, DecisionSurfaces
from tests.service.conftest import (
    MALFORMED_ARTIFACTS,
    _small_params,
    malformed_artifact,
)

SMALL = [
    "--lam", "0.05", "--mu", "0.05", "--lam1", "0.05", "--mu1", "0.05",
    "--lam2", "0.4", "--mu2", "3.0", "-l", "2", "-m", "1",
]


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _tiny_artifact() -> str:
    """A valid 3 x 5 surface artifact, hand-written rather than solved."""
    return DecisionSurfaces(
        params=_small_params(),
        service_rate=3.0,
        delay_targets=np.array([0.6, 0.9, 1.4]),
        max_n2=np.array([[2.0, 1.0, 0.0, -1.0, -1.0]] * 3),
        bandwidth=np.array([math.inf, 2.0, 1.5]),
    ).to_json()


class TestAnalyze:
    def test_defaults_print_paper_numbers(self):
        code, text = run_cli(["analyze"])
        assert code == 0
        assert "8.25" in text  # lambda-bar of the base set
        assert "Solution 2" in text

    def test_custom_parameters(self):
        code, text = run_cli(["analyze", *SMALL])
        assert code == 0
        assert "M/M/1 baseline delay" in text

    def test_exact_flag_adds_solution0(self):
        code, text = run_cli(["analyze", *SMALL, "--exact"])
        assert code == 0
        assert "Solution 0" in text
        assert "x Poisson" in text


class TestSimulate:
    def test_runs_and_reports(self):
        code, text = run_cli(
            ["simulate", *SMALL, "--horizon", "3000", "--seed", "3"]
        )
        assert code == 0
        assert "messages served" in text
        assert "mean delay" in text

    def test_seed_reproducibility(self):
        _, first = run_cli(["simulate", *SMALL, "--horizon", "2000", "--seed", "5"])
        _, second = run_cli(["simulate", *SMALL, "--horizon", "2000", "--seed", "5"])
        assert first == second

    def test_replicated_campaign_reports_confidence(self):
        code, text = run_cli(
            [
                "simulate",
                *SMALL,
                "--horizon",
                "1500",
                "--seed",
                "2",
                "--replications",
                "3",
                "--workers",
                "2",
            ]
        )
        assert code == 0
        assert "95% CI" in text
        assert "campaign" in text
        assert "replications" in text

    def test_campaign_with_all_failures_reports_error_not_nan(self):
        # A negative horizon makes every replication raise inside the
        # worker; the CLI must print the failures, not a "nan +/- nan"
        # summary table.
        code, text = run_cli(
            [
                "simulate", *SMALL, "--horizon", "-1",
                "--replications", "2", "--workers", "1",
            ]
        )
        assert code == 1
        assert "error: every replication failed" in text
        assert "nan" not in text
        assert text.count("failed replication") == 2

    def test_campaign_is_worker_count_invariant(self):
        base = [
            "simulate", *SMALL, "--horizon", "1500", "--seed", "2",
            "--replications", "3",
        ]
        _, serial = run_cli([*base, "--workers", "1"])
        _, parallel = run_cli([*base, "--workers", "3"])
        # Strip the timing line — wall-clock differs; statistics must not.
        strip = lambda text: [
            line for line in text.splitlines() if "campaign" not in line
        ]
        assert strip(serial) == strip(parallel)

    def test_profile_prints_hotspots_and_results(self):
        code, text = run_cli(
            [
                "simulate", *SMALL, "--horizon", "500", "--seed", "3",
                "--profile",
            ]
        )
        assert code == 0
        # cProfile's table, top-20 cumulative...
        assert "cumulative" in text
        assert "function calls" in text
        assert "run_until" in text
        # ...followed by the usual result block.
        assert "messages served" in text
        assert "mean delay" in text

    def test_profile_does_not_change_the_result(self):
        base = ["simulate", *SMALL, "--horizon", "1000", "--seed", "7"]
        _, plain = run_cli(base)
        _, profiled = run_cli([*base, "--profile"])
        assert plain.splitlines() == profiled.splitlines()[-len(plain.splitlines()):]

    @pytest.mark.parametrize("replications", ["0", "-3"])
    def test_rejects_fewer_than_one_replication(self, replications):
        code, text = run_cli(
            ["simulate", *SMALL, "--horizon", "1000",
             "--replications", replications]
        )
        assert code == 2
        assert text.splitlines() == [
            "error: --replications must be at least 1"
        ]


#: Each subcommand with the arguments it requires.
SUBCOMMANDS = {
    "analyze": [],
    "simulate": [],
    "size": ["--delay-target", "1"],
    "build-surfaces": ["--output", "surfaces.json"],
    "serve": [],
    "bench-serve": [],
    "chaos": [],
}


class TestRemovedFlags:
    """``--backend`` (on every subcommand), ``serve --exact``,
    ``build-surfaces --binary`` and ``simulate --rng-mode`` are gone:
    argparse refuses them with a usage error instead of ignoring them.
    ``analyze --exact`` is a different flag and stays
    (``TestAnalyze::test_exact_flag_adds_solution0``)."""

    @pytest.mark.parametrize(
        "argv",
        [
            [name, *required, "--backend", "dense"]
            for name, required in SUBCOMMANDS.items()
        ]
        + [["serve", "--exact"]]
        + [["build-surfaces", "--output", "s.json", "--binary"]]
        + [["simulate", "--rng-mode", "batched"]],
        ids=[f"{name}-backend" for name in SUBCOMMANDS]
        + ["serve-exact", "build-surfaces-binary", "simulate-rng-mode"],
    )
    def test_refused_with_usage_error(self, argv, capsys):
        flag = next(
            arg
            for arg in argv
            if arg in ("--backend", "--exact", "--binary", "--rng-mode")
        )
        with pytest.raises(SystemExit) as refused:
            build_parser().parse_args(argv)
        assert refused.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestSize:
    def test_sizing_output(self):
        code, text = run_cli(["size", *SMALL, "--delay-target", "1.0"])
        assert code == 0
        assert "HAP sizing" in text

    def test_high_load_warning(self):
        code, text = run_cli(["size", "--delay-target", "0.4"])
        assert code == 0
        assert "warning" in text
        assert "solution0" in text

    def test_safe_design_has_no_warning(self):
        # A tight target forces a big mu, landing well under 30 % load.
        code, text = run_cli(["size", *SMALL, "--delay-target", "0.5"])
        assert code == 0
        assert "warning" not in text

    def test_rejects_nonpositive_target(self):
        code, text = run_cli(["size", *SMALL, "--delay-target", "-1"])
        assert code == 2
        assert "error" in text


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestResilienceFlags:
    def test_resume_without_checkpoint_is_a_usage_error(self):
        code, text = run_cli(["simulate", *SMALL, "--horizon", "2000", "--resume"])
        assert code == 2
        assert "--resume requires --checkpoint" in text

    def test_checkpoint_then_resume_is_bit_identical(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        argv = [
            "simulate", *SMALL, "--horizon", "2000", "--seed", "7",
            "--replications", "3", "--checkpoint", journal,
        ]
        code, first = run_cli(argv)
        assert code == 0
        code, resumed = run_cli([*argv, "--resume"])
        assert code == 0
        assert "3 resumed (checkpoint)" in resumed

        def stats(text: str) -> list[str]:
            return [
                line for line in text.splitlines() if "campaign" not in line
            ]

        assert stats(resumed) == stats(first)

    def test_single_replication_checkpoint_routes_through_campaign(
        self, tmp_path
    ):
        journal = tmp_path / "single.jsonl"
        code, text = run_cli(
            [
                "simulate", *SMALL, "--horizon", "2000", "--seed", "7",
                "--checkpoint", str(journal),
            ]
        )
        assert code == 0
        assert "campaign" in text
        assert journal.exists()

    def test_retry_flags_are_accepted(self):
        code, text = run_cli(
            [
                "simulate", *SMALL, "--horizon", "2000", "--seed", "7",
                "--replications", "2", "--timeout", "60", "--retries", "1",
                "--retry-budget", "4",
            ]
        )
        assert code == 0
        assert "mean delay" in text

class TestColumnarEngine:
    def test_single_run_reports_and_skips_population_line(self):
        code, text = run_cli(
            ["simulate", "--engine", "columnar", "--horizon", "3000",
             "--seed", "3"]
        )
        assert code == 0
        assert "mean delay" in text
        # The columnar engine drives the collapsed MMPP, so per-level
        # user/app populations are not reported.
        assert "mean users / apps" not in text

    def test_columnar_is_seed_stable(self):
        argv = ["simulate", "--engine", "columnar", "--horizon", "2000",
                "--seed", "5"]
        assert run_cli(argv) == run_cli(argv)

    def test_columnar_campaign_reports_confidence(self):
        code, text = run_cli(
            ["simulate", "--engine", "columnar", "--horizon", "2000",
             "--seed", "7", "--replications", "3"]
        )
        assert code == 0
        assert "95% CI" in text
        assert "campaign" in text

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["simulate", "--engine", "quantum", "--horizon", "100"])

    def test_former_columnar_batched_name_is_a_usage_error(self, capsys):
        # The columnar engine has one name; its old second one is refused.
        with pytest.raises(SystemExit) as refused:
            build_parser().parse_args(
                ["simulate", "--engine", "columnar-batched"]
            )
        assert refused.value.code == 2
        assert "invalid choice: 'columnar-batched'" in capsys.readouterr().err

    @pytest.mark.parametrize("engine, module", [("columnar", "columnar")])
    def test_profile_runs_the_selected_engine(self, engine, module):
        base = ["simulate", "--engine", engine, "--horizon", "2000",
                "--seed", "3"]
        _, plain = run_cli(base)
        code, profiled = run_cli([*base, "--profile"])
        assert code == 0
        lines = plain.splitlines()
        assert profiled.splitlines()[-len(lines):] == lines
        # The profile is of the named engine, not the heap simulator.
        assert f"{module}.py:" in profiled
        assert "run_until" not in profiled


class TestServiceCommands:
    # A tiny surface grid keeps each CLI invocation around a second.
    SURFACE = [*SMALL, "--delay-targets", "0.6,0.9", "--max-population", "4"]

    def test_build_surfaces_writes_loadable_artifact(self, tmp_path):
        path = tmp_path / "surfaces.json"
        code, text = run_cli(
            ["build-surfaces", *self.SURFACE, "--output", str(path)]
        )
        assert code == 0
        assert "artifact" in text
        assert "probes" in text  # single-worker build reports cache stats
        from repro.service.surfaces import load_surfaces

        loaded = load_surfaces(path)
        assert loaded.max_population == 4
        assert loaded.delay_targets.tolist() == [0.6, 0.9]

    def test_build_surfaces_rejects_bad_targets(self, tmp_path):
        code, text = run_cli(
            [
                "build-surfaces", *SMALL, "--delay-targets", "fast,faster",
                "--output", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        assert "error" in text

    def test_serve_smoke_exercises_all_tiers(self):
        code, text = run_cli(
            ["serve", *self.SURFACE, "--smoke", "--port", "0"]
        )
        assert code == 0
        assert "tier=surface" in text
        assert "tier=interpolated" in text
        assert "tier=solve" in text
        assert "verdict" in text
        assert "healthy" in text

    def test_serve_smoke_from_artifact(self, tmp_path):
        path = tmp_path / "surfaces.json"
        code, _ = run_cli(
            ["build-surfaces", *self.SURFACE, "--output", str(path)]
        )
        assert code == 0
        code, text = run_cli(
            ["serve", *SMALL, "--surfaces", str(path), "--smoke", "--port", "0"]
        )
        assert code == 0
        assert "healthy" in text

    @pytest.mark.parametrize("case", [*MALFORMED_ARTIFACTS, "npz-sidecar"])
    def test_serve_refuses_malformed_artifact(self, case, tmp_path):
        """A schema-tagged but broken artifact, or a leftover ``.npz``
        sidecar from older builds, is a usage error, not a traceback."""
        if case == "npz-sidecar":
            path = tmp_path / "surfaces.npz"
            np.savez(
                path,
                schema=np.array(SURFACE_SCHEMA),
                delay_targets=np.array([0.6, 0.9]),
                max_n2=np.full((2, 5), 3.0),
            )
        else:
            path = tmp_path / "surfaces.json"
            path.write_text(malformed_artifact(_tiny_artifact(), case))
        code, text = run_cli(
            ["serve", *SMALL, "--surfaces", str(path), "--smoke", "--port", "0"]
        )
        assert code == 2
        assert text.startswith("error: ")

    def test_serve_missing_artifact_is_usage_error(self):
        code, text = run_cli(
            ["serve", *SMALL, "--surfaces", "/no/such/artifact.json",
             "--smoke", "--port", "0"]
        )
        assert code == 2
        assert "error" in text

    def test_bench_serve_reports_throughput(self):
        code, text = run_cli(
            [
                "bench-serve", *self.SURFACE, "--tier", "cached",
                "--requests", "50", "--connections", "2",
            ]
        )
        assert code == 0
        assert "cached" in text
        assert "decisions" in text
        assert "p99" in text

    def test_chaos_serve_degrades_conservatively(self):
        code, text = run_cli(
            [
                "chaos", *SMALL, "--target", "serve",
                "--requests", "3", "--deadline", "0.4",
            ]
        )
        assert code == 0
        assert "conservative degradation holds" in text
        assert "tier=degraded" in text
        assert "admit=False" in text
        assert "admit=True" not in text

    def test_serve_rejects_bad_shard_count(self):
        code, text = run_cli(
            ["serve", *self.SURFACE, "--shards", "0", "--smoke",
             "--port", "0"]
        )
        assert code == 2
        assert "shards" in text

    def test_serve_sharded_smoke(self):
        code, text = run_cli(
            ["serve", *self.SURFACE, "--shards", "2", "--smoke",
             "--port", "0"]
        )
        assert code == 0
        assert "2 shards, SO_REUSEPORT" in text
        assert "tier=surface" in text
        assert "batch" in text
        assert "fleet stats" in text
        assert "shards=2" in text
        assert "healthy" in text

    def test_bench_serve_batched(self):
        code, text = run_cli(
            [
                "bench-serve", *self.SURFACE, "--tier", "cached",
                "--requests", "60", "--connections", "2", "--batch", "20",
            ]
        )
        assert code == 0
        assert "[batch=20]" in text
        assert "60 decisions" in text

    def test_chaos_fleet_survives_shard_kill(self):
        code, text = run_cli(
            [
                "chaos", *SMALL, "--target", "fleet", "--shards", "2",
                "--requests", "4", "--deadline", "1.0",
            ]
        )
        assert code == 0
        assert "killed" in text
        assert "conservative fleet degradation holds" in text
        assert "respawn rejoined: True" in text
        assert "admit=True" not in text

    def test_chaos_overload_sheds_and_keeps_cached_goodput(self):
        code, text = run_cli(
            [
                "chaos", *SMALL, "--target", "overload",
                "--requests", "5", "--deadline", "1.5",
            ]
        )
        assert code == 0
        assert "load shedding holds" in text
        assert "tier=shed" in text
        assert "oversized frame" in text
        assert "pong=True" in text

    def test_chaos_drain_loses_no_inflight_answers(self):
        code, text = run_cli(
            [
                "chaos", *SMALL, "--target", "drain", "--shards", "2",
                "--requests", "3", "--deadline", "1.5",
            ]
        )
        assert code == 0
        assert "graceful drain holds" in text
        assert "0 lost" in text
        assert "0 failed" in text

    def test_chaos_reload_never_mixes_generations(self):
        code, text = run_cli(
            [
                "chaos", *SMALL, "--target", "reload", "--shards", "2",
            ]
        )
        assert code == 0
        assert "hot reload holds" in text
        assert "0 mixed-generation answers: True" in text

    def test_serve_smoke_accepts_overload_flags(self):
        code, text = run_cli(
            ["serve", *self.SURFACE, "--smoke", "--port", "0",
             "--max-inflight", "4", "--max-connections", "32"]
        )
        assert code == 0
        assert "healthy" in text

    def test_serve_rejects_negative_overload_bounds(self):
        code, text = run_cli(
            ["serve", *self.SURFACE, "--smoke", "--port", "0",
             "--max-inflight", "-1"]
        )
        assert code == 2
        assert "max-inflight" in text


class TestConfigFingerprintFlags:
    def test_mismatched_rng_mode_resume_exits_2(self, tmp_path):
        # A journal written by a campaign that ran the heap on block-drawn
        # variates (``--rng-mode batched``, since removed): its rows must
        # not splice into a campaign on today's per-event draws.
        journal = str(tmp_path / "campaign.jsonl")
        with CheckpointJournal(journal) as old:
            old.record_config(
                {"rng_mode": "batched", "engine": "heap", "horizon": 2000.0,
                 "base_seed": 7}
            )
            old.record(key="seed=7", index=0, seed=7, value=0.1, elapsed=0.1)
        code, text = run_cli(
            ["simulate", *SMALL, "--horizon", "2000", "--seed", "7",
             "--replications", "2", "--checkpoint", journal, "--resume"]
        )
        assert code == 2
        assert "determinism domains" in text
        assert "rng_mode" in text

    def test_mismatched_engine_resume_exits_2(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        base = ["simulate", "--horizon", "2000", "--seed", "7",
                "--replications", "2", "--checkpoint", journal]
        code, _ = run_cli(base)
        assert code == 0
        code, text = run_cli([*base, "--engine", "columnar", "--resume"])
        assert code == 2
        assert "engine" in text

    def test_batched_engine_resumes_under_other_workers_and_more_seeds(
        self, tmp_path
    ):
        journal = str(tmp_path / "campaign.jsonl")
        base = ["simulate", "--engine", "columnar", "--horizon",
                "2000", "--seed", "7", "--checkpoint", journal]
        code, _ = run_cli([*base, "--replications", "4", "--workers", "1"])
        assert code == 0
        code, text = run_cli(
            [*base, "--replications", "6", "--workers", "2", "--resume"]
        )
        assert code == 0
        assert "4 resumed (checkpoint)" in text

    def test_matching_resume_still_splices(self, tmp_path):
        journal = str(tmp_path / "campaign.jsonl")
        argv = ["simulate", *SMALL, "--horizon", "2000", "--seed", "7",
                "--replications", "2", "--checkpoint", journal]
        code, _ = run_cli(argv)
        assert code == 0
        code, text = run_cli([*argv, "--resume"])
        assert code == 0
        assert "2 resumed (checkpoint)" in text
