"""Tests for repro.runtime.resilience: retries, checkpoints, degradation."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.runtime import chaos
from repro.runtime.executor import ParallelReplicator
from repro.runtime.resilience import (
    CHECKPOINT_SCHEMA,
    CheckpointJournal,
    DegradationChain,
    DegradationError,
    RetryPolicy,
    RungRejected,
    as_journal,
)


def _times_ten(seed: int) -> float:
    """Deterministic picklable task."""
    return float(seed) * 10.0


def _fail_first_attempt(seed: int) -> float:
    """Transient fault: raises on attempt 1, succeeds on the retry."""
    if chaos.current_attempt() == 1:
        raise RuntimeError(f"transient fault for seed {seed}")
    return _times_ten(seed)


def _always_fail(seed: int) -> float:
    raise RuntimeError(f"permanent fault for seed {seed}")


def _fail_on_seed_one(seed: int) -> float:
    if seed == 1:
        raise RuntimeError("injected failure for seed 1")
    return _times_ten(seed)


def _hap_task(seed: int):
    """Tiny HAP replication on the event heap (picklable)."""
    from repro.experiments.configs import base_parameters
    from repro.sim.replication import simulate_hap_mm1

    result = simulate_hap_mm1(
        base_parameters(service_rate=20.0), horizon=200.0, seed=seed
    )
    return (result.mean_delay, result.sigma, result.events_processed)


class TestRetryPolicy:
    def test_defaults_disable_retries(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert not policy.retries_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"backoff_base": -0.1},
            {"backoff_max": -1.0},
            {"jitter": -0.5},
            {"retry_budget": -1},
        ],
    )
    def test_rejects_invalid_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_retries_enabled_requires_attempts_and_budget(self):
        assert RetryPolicy(max_attempts=2).retries_enabled
        assert RetryPolicy(max_attempts=2, retry_budget=5).retries_enabled
        assert not RetryPolicy(max_attempts=2, retry_budget=0).retries_enabled
        assert not RetryPolicy(max_attempts=1, retry_budget=5).retries_enabled

    def test_first_attempt_has_no_backoff(self):
        assert RetryPolicy(max_attempts=3).backoff_delay(7, 1) == 0.0

    def test_backoff_schedule_without_jitter_is_exact(self):
        policy = RetryPolicy(
            max_attempts=5,
            backoff_base=0.1,
            backoff_factor=2.0,
            backoff_max=0.3,
            jitter=0.0,
        )
        assert policy.backoff_delay(0, 2) == pytest.approx(0.1)
        assert policy.backoff_delay(0, 3) == pytest.approx(0.2)
        assert policy.backoff_delay(0, 4) == pytest.approx(0.3)  # capped
        assert policy.backoff_delay(0, 5) == pytest.approx(0.3)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=3, backoff_base=0.1, jitter=0.25)
        first = policy.backoff_delay(42, 2)
        assert first == policy.backoff_delay(42, 2)  # seeded by (seed, attempt)
        assert 0.1 <= first <= 0.1 * 1.25


class TestCheckpointJournal:
    def test_round_trip(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.record(
            key="seed=3", index=0, seed=3, value={"delay": 1.5}, elapsed=0.25
        )
        journal.record(
            key="seed=4", index=1, seed=4, value=(1, 2.0), elapsed=0.5, attempts=2
        )
        journal.close()
        completed = journal.load()
        assert set(completed) == {"seed=3", "seed=4"}
        record = completed["seed=4"]
        assert record.index == 1
        assert record.seed == 4
        assert record.attempts == 2
        assert record.elapsed == 0.5
        assert record.value == (1, 2.0)

    def test_failures_are_journaled_but_not_loaded(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record_failure(
            key="seed=1", index=0, seed=1, error="ValueError('boom')"
        )
        journal.close()
        assert "failed" in path.read_text()
        assert journal.load() == {}

    def test_duplicate_keys_later_record_wins(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.record(key="seed=1", index=0, seed=1, value="old", elapsed=0.1)
        journal.record(key="seed=1", index=0, seed=1, value="new", elapsed=0.2)
        journal.close()
        assert journal.load()["seed=1"].value == "new"

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record(key="seed=1", index=0, seed=1, value=1.0, elapsed=0.1)
        journal.close()
        with path.open("ab") as handle:
            handle.write(b'{"schema": "repro-ch')  # crash mid-append
        assert set(journal.load()) == {"seed=1"}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record(key="seed=1", index=0, seed=1, value=1.0, elapsed=0.1)
        journal.close()
        with path.open("ab") as handle:
            handle.write(b"garbage not json\n")
            handle.write(b"\n")
            handle.write(b"more trailing junk\n")
        with pytest.raises(ValueError, match="corrupt checkpoint record"):
            journal.load()

    def test_unknown_schema_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"schema": "repro-checkpoint/99", "status": "ok"}) + "\n"
        )
        with pytest.raises(ValueError, match="unexpected checkpoint schema"):
            CheckpointJournal(path).load()

    def test_schema_constant_is_written(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record(key="seed=1", index=0, seed=1, value=1.0, elapsed=0.1)
        journal.close()
        record = json.loads(path.read_text().splitlines()[0])
        assert record["schema"] == CHECKPOINT_SCHEMA

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointJournal(tmp_path / "absent.jsonl").load() == {}

    def test_as_journal_coercion(self, tmp_path):
        assert as_journal(None) is None
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        assert as_journal(journal) is journal
        coerced = as_journal(str(tmp_path / "other.jsonl"))
        assert isinstance(coerced, CheckpointJournal)
        assert coerced.path == tmp_path / "other.jsonl"


class TestDegradationChain:
    def test_first_rung_answers(self):
        chain = DegradationChain(
            "demo", [("fast", lambda: 42), ("slow", lambda: 0)]
        )
        value, diagnostics = chain.run()
        assert value == 42
        assert diagnostics.chain == "demo"
        assert diagnostics.rung == "fast"
        assert diagnostics.fallback_depth == 0
        assert not diagnostics.degraded

    def test_rejected_rung_cascades(self):
        def fast():
            raise RungRejected("answer not trusted")

        chain = DegradationChain("demo", [("fast", fast), ("slow", lambda: 7)])
        value, diagnostics = chain.run()
        assert value == 7
        assert diagnostics.rung == "slow"
        assert diagnostics.degraded
        assert diagnostics.fallback_depth == 1
        assert not diagnostics.attempts[0].ok
        assert "answer not trusted" in diagnostics.attempts[0].error
        assert diagnostics.attempts[1].ok

    def test_unexpected_exception_also_cascades(self):
        def fast():
            raise ZeroDivisionError("numerics gone wrong")

        chain = DegradationChain("demo", [("fast", fast), ("slow", lambda: 7)])
        value, diagnostics = chain.run()
        assert value == 7
        assert "ZeroDivisionError" in diagnostics.attempts[0].error

    def test_exhausted_ladder_raises_with_every_attempt(self):
        def die(name):
            def rung():
                raise RuntimeError(f"{name} failed")

            return rung

        chain = DegradationChain("demo", [("a", die("a")), ("b", die("b"))])
        with pytest.raises(DegradationError) as excinfo:
            chain.run()
        error = excinfo.value
        assert error.chain == "demo"
        assert [attempt.rung for attempt in error.attempts] == ["a", "b"]
        assert "a failed" in str(error)
        assert "b failed" in str(error)

    def test_rejects_empty_and_duplicate_rungs(self):
        with pytest.raises(ValueError, match="at least one rung"):
            DegradationChain("demo", [])
        with pytest.raises(ValueError, match="duplicate rung"):
            DegradationChain("demo", [("a", lambda: 1), ("a", lambda: 2)])

    def test_describe_names_the_winner(self):
        _, diagnostics = DegradationChain("demo", [("only", lambda: 1)]).run()
        assert "answered by 'only'" in diagnostics.describe()

    def test_chaos_poison_forces_fallback(self):
        chain = DegradationChain(
            "demo", [("first", lambda: 1), ("second", lambda: 2)]
        )
        with chaos.chaos_active(chaos.ChaosPlan(poison=("demo:first",))):
            value, diagnostics = chain.run()
        assert value == 2
        assert diagnostics.rung == "second"
        assert "PoisonedRungError" in diagnostics.attempts[0].error

    def test_bare_poison_name_hits_every_chain(self):
        with chaos.chaos_active(chaos.ChaosPlan(poison=("first",))):
            _, diag_a = DegradationChain(
                "a", [("first", lambda: 1), ("second", lambda: 2)]
            ).run()
            _, diag_b = DegradationChain(
                "b", [("first", lambda: 1), ("second", lambda: 2)]
            ).run()
        assert diag_a.rung == diag_b.rung == "second"


class TestSerialRetryPath:
    """workers=1 exercises the in-process retry loop."""

    def _policy(self, **kwargs):
        return RetryPolicy(backoff_base=0.0, jitter=0.0, **kwargs)

    def test_transient_fault_recovers_on_retry(self):
        campaign = ParallelReplicator(
            max_workers=1, policy=self._policy(max_attempts=2)
        ).run(_fail_first_attempt, 3, base_seed=0)
        assert campaign.completed == 3
        assert not campaign.failures
        assert campaign.results == (0.0, 10.0, 20.0)
        assert campaign.retried_seeds == (0, 1, 2)

    def test_without_policy_transient_faults_are_failures(self):
        campaign = ParallelReplicator(max_workers=1).run(
            _fail_first_attempt, 3, base_seed=0
        )
        assert campaign.completed == 0
        assert len(campaign.failures) == 3
        assert campaign.retried_seeds == ()

    def test_attempts_are_recorded_on_exhausted_failures(self):
        campaign = ParallelReplicator(
            max_workers=1, policy=self._policy(max_attempts=3)
        ).run(_always_fail, 2, base_seed=0)
        assert campaign.completed == 0
        assert [failure.attempts for failure in campaign.failures] == [3, 3]

    def test_retry_budget_caps_total_retries(self):
        campaign = ParallelReplicator(
            max_workers=1, policy=self._policy(max_attempts=2, retry_budget=1)
        ).run(_always_fail, 3, base_seed=0)
        assert len(campaign.failures) == 3
        # Exactly one retry was spent across the whole campaign.
        assert sum(failure.attempts for failure in campaign.failures) == 4


class TestCheckpointResume:
    def test_resume_splices_instead_of_rerunning(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = ParallelReplicator(max_workers=1, checkpoint=str(path)).run(
            _times_ten, 3, base_seed=5
        )
        assert first.resumed == 0
        # The resumed run uses a task that would fail if it actually ran:
        # every unit must come from the journal.
        second = ParallelReplicator(
            max_workers=1, checkpoint=str(path), resume=True
        ).run(_always_fail, 3, base_seed=5)
        assert second.resumed == 3
        assert not second.failures
        assert second.results == first.results
        assert second.seeds == first.seeds

    def test_partial_resume_is_bit_identical_to_uninterrupted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        reference = ParallelReplicator(max_workers=1).run(
            _times_ten, 4, base_seed=0
        )
        # "Interrupted" campaign: only the first two replications completed.
        ParallelReplicator(max_workers=1, checkpoint=str(path)).run(
            _times_ten, 2, base_seed=0
        )
        resumed = ParallelReplicator(
            max_workers=1, checkpoint=str(path), resume=True
        ).run(_times_ten, 4, base_seed=0)
        assert resumed.resumed == 2
        assert resumed.results == reference.results
        assert resumed.seeds == reference.seeds
        assert pickle.dumps(resumed.results) == pickle.dumps(reference.results)

    def test_hap_resume_is_bit_identical_to_uninterrupted(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = as_journal(str(path))
        journal.ensure_config({"rng_mode": "legacy"}, resume=False)
        reference = ParallelReplicator(max_workers=1).run(
            _hap_task, 3, base_seed=11
        )
        # Interrupted: two of three HAP replications journaled.
        ParallelReplicator(max_workers=1, checkpoint=journal).run(
            _hap_task, 2, base_seed=11
        )
        journal.ensure_config({"rng_mode": "legacy"}, resume=True)
        resumed = ParallelReplicator(
            max_workers=1, checkpoint=journal, resume=True
        ).run(_hap_task, 3, base_seed=11)
        assert resumed.resumed == 2
        # Journaled simulation rows splice bit-identically with fresh ones.
        assert resumed.results == reference.results

    def test_journaled_failures_are_rerun_on_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        first = ParallelReplicator(max_workers=1, checkpoint=str(path)).run(
            _fail_on_seed_one, 3, base_seed=0
        )
        assert {failure.seed for failure in first.failures} == {1}
        # Seed 1 is journaled as failed, so only seeds 0 and 2 splice back;
        # the re-run (with a healthy task) fills seed 1 in.
        resumed = ParallelReplicator(
            max_workers=1, checkpoint=str(path), resume=True
        ).run(_times_ten, 3, base_seed=0)
        assert resumed.resumed == 2
        assert not resumed.failures
        assert resumed.results == (0.0, 10.0, 20.0)

    def test_describe_reports_resumed_units(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        ParallelReplicator(max_workers=1, checkpoint=str(path)).run(
            _times_ten, 2, base_seed=0
        )
        resumed = ParallelReplicator(
            max_workers=1, checkpoint=str(path), resume=True
        ).run(_times_ten, 2, base_seed=0)
        assert "2 resumed (checkpoint)" in resumed.describe()


class TestConfigFingerprint:
    CONFIG = {"rng_mode": "batched", "engine": "heap", "base_seed": 0}

    def test_fresh_journal_is_stamped(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.ensure_config(self.CONFIG, resume=False)
        journal.close()
        assert journal.load_config() == self.CONFIG

    def test_config_lines_are_invisible_to_load(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.ensure_config(self.CONFIG, resume=False)
        journal.record(key="seed=0", index=0, seed=0, value=1.0, elapsed=0.1)
        journal.close()
        assert set(journal.load()) == {"seed=0"}

    def test_matching_resume_is_accepted(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.ensure_config(self.CONFIG, resume=False)
        journal.close()
        journal.ensure_config(dict(self.CONFIG), resume=True)  # no raise

    def test_mismatched_resume_names_every_bad_key(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.ensure_config(self.CONFIG, resume=False)
        journal.close()
        wanted = dict(self.CONFIG, rng_mode="legacy", engine="columnar")
        with pytest.raises(ValueError) as excinfo:
            journal.ensure_config(wanted, resume=True)
        message = str(excinfo.value)
        assert "determinism domains" in message
        assert "rng_mode" in message and "'batched'" in message
        assert "engine" in message and "'columnar'" in message

    def test_extra_keys_do_not_trip_old_journals(self, tmp_path):
        # A newer campaign may fingerprint keys an old journal never
        # recorded; only keys present in BOTH are compared.
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.ensure_config({"rng_mode": "batched"}, resume=False)
        journal.close()
        journal.ensure_config(
            {"rng_mode": "batched", "horizon": 100.0}, resume=True
        )  # no raise

    def test_pre_fingerprint_journal_is_accepted_and_stamped(self, tmp_path):
        # Journals written before config fingerprints existed resume
        # cleanly and pick up a fingerprint for the next resume.
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.record(key="seed=0", index=0, seed=0, value=1.0, elapsed=0.1)
        journal.close()
        assert journal.load_config() is None
        journal.ensure_config(self.CONFIG, resume=True)
        journal.close()
        assert journal.load_config() == self.CONFIG
        assert set(journal.load()) == {"seed=0"}

    def test_load_config_last_record_wins(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "journal.jsonl")
        journal.record_config({"rng_mode": "legacy"})
        journal.record_config({"rng_mode": "batched"})
        journal.close()
        assert journal.load_config() == {"rng_mode": "batched"}

    def test_load_config_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = CheckpointJournal(path)
        journal.record_config(self.CONFIG)
        journal.close()
        with path.open("ab") as handle:
            handle.write(b'{"schema": "repro-ch')  # crash mid-append
        assert journal.load_config() == self.CONFIG


class TestBatchedModeResume:
    """Campaigns once ran the heap on block-drawn ("batched") variates and
    stamped their journals ``rng_mode: "batched"``; the draws are gone,
    the stamp still keeps those rows out of today's campaigns."""

    def test_batched_journal_refuses_legacy_resume(self, tmp_path):
        journal = as_journal(str(tmp_path / "journal.jsonl"))
        journal.ensure_config({"rng_mode": "batched"}, resume=False)
        ParallelReplicator(max_workers=1, checkpoint=journal).run(
            _hap_task, 2, base_seed=11
        )
        with pytest.raises(ValueError, match="determinism domains"):
            journal.ensure_config({"rng_mode": "legacy"}, resume=True)
