"""Tests for the columnar campaign (repro.runtime.columnar).

Each worker returns its replication's row of scalars; fresh rows, pooled
rows and rows spliced back from a checkpoint journal must all carry the
same numbers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.runtime.columnar import (
    COLUMNAR_FIELDS,
    ColumnarReplication,
    run_columnar_campaign,
)
from repro.runtime.executor import SUMMARY_FIELDS, ParallelReplicator
from repro.sim.columnar import simulate_poisson_columnar


def _columnar_task(seed: int):
    """Small, real columnar replication (picklable for the pool path)."""
    return simulate_poisson_columnar(5.0, 2_000.0, 8.0, seed=seed)


def _failing_task(seed: int):
    if seed == 2:
        raise ValueError("injected failure for seed 2")
    return _columnar_task(seed)


class TestRowContract:
    def test_summary_fields_are_a_subset_of_row_fields(self):
        # CampaignResult.summaries() reads SUMMARY_FIELDS off each result
        # record; every one must exist in the columnar row.
        assert set(SUMMARY_FIELDS) <= set(COLUMNAR_FIELDS)

    def test_from_row_restores_types(self):
        row = np.arange(len(COLUMNAR_FIELDS), dtype=np.float64)
        record = ColumnarReplication.from_row(row)
        assert record.mean_delay == 0.0
        assert isinstance(record.messages_served, int)
        assert isinstance(record.events_processed, int)


class TestCampaign:
    def test_serial_campaign_produces_summaries(self):
        campaign = run_columnar_campaign(
            _columnar_task, 3, base_seed=10, max_workers=1
        )
        assert campaign.completed == 3
        assert campaign.seeds == (10, 11, 12)
        assert campaign.failures == ()
        summaries = campaign.summaries()
        assert set(summaries) == set(SUMMARY_FIELDS)
        assert math.isfinite(summaries["mean_delay"].mean)
        assert campaign.events_processed > 0
        assert campaign.events_per_second > 0.0

    def test_pool_matches_serial_bit_for_bit(self):
        serial = run_columnar_campaign(
            _columnar_task, 4, base_seed=0, max_workers=1
        )
        pooled = run_columnar_campaign(
            _columnar_task, 4, base_seed=0, max_workers=2
        )
        assert serial.seeds == pooled.seeds
        assert serial.results == pooled.results  # frozen dataclass equality

    def test_rejects_unknown_engine(self):
        # ParallelReplicator runs heap campaigns only; columnar campaigns
        # have their own entry point, run_columnar_campaign.
        with pytest.raises(TypeError, match="engine"):
            ParallelReplicator(engine="columnar")

    def test_failures_are_captured_not_fatal(self):
        campaign = run_columnar_campaign(
            _failing_task, 4, base_seed=0, max_workers=1
        )
        assert campaign.completed == 3
        assert campaign.seeds == (0, 1, 3)
        assert len(campaign.failures) == 1
        assert campaign.failures[0].seed == 2
        assert "injected failure" in campaign.failures[0].traceback

    def test_results_are_compact_records(self):
        campaign = run_columnar_campaign(
            _columnar_task, 1, base_seed=3, max_workers=1
        )
        record = campaign.results[0]
        assert isinstance(record, ColumnarReplication)
        reference = _columnar_task(3)
        for name in COLUMNAR_FIELDS:
            assert float(getattr(record, name)) == pytest.approx(
                float(getattr(reference, name)), rel=1e-15
            ), name


class TestCheckpointResume:
    def test_resume_splices_journaled_rows(self, tmp_path):
        journal = tmp_path / "columnar.jsonl"
        first = run_columnar_campaign(
            _columnar_task,
            2,
            base_seed=0,
            max_workers=1,
            checkpoint=str(journal),
        )
        # Resume with a LARGER campaign: journaled rows splice, new seeds run.
        resumed = run_columnar_campaign(
            _columnar_task,
            4,
            base_seed=0,
            max_workers=1,
            checkpoint=str(journal),
            resume=True,
        )
        assert resumed.resumed == 2
        assert resumed.completed == 4
        # Journaled rows and freshly computed rows carry identical numbers.
        assert resumed.results[:2] == first.results

    def test_resumed_campaign_is_bit_identical_to_uninterrupted(self, tmp_path):
        journal = tmp_path / "columnar.jsonl"
        run_columnar_campaign(
            _columnar_task, 3, base_seed=7, max_workers=1,
            checkpoint=str(journal),
        )
        resumed = run_columnar_campaign(
            _columnar_task, 3, base_seed=7, max_workers=1,
            checkpoint=str(journal), resume=True,
        )
        uninterrupted = run_columnar_campaign(
            _columnar_task, 3, base_seed=7, max_workers=1
        )
        assert resumed.resumed == 3
        assert resumed.results == uninterrupted.results


def _kernel_task(seed: int):
    """Picklable per-seed task: the seed as a batch of one."""
    from repro.sim.columnar import simulate_poisson_columnar_batch

    return simulate_poisson_columnar_batch(5.0, 2_000.0, 8.0, [seed])[0]


class TestBatchedCampaign:
    def test_batched_matches_per_replication_bit_for_bit(self):
        sequential = run_columnar_campaign(
            _columnar_task, 5, base_seed=3, max_workers=1
        )
        batched = run_columnar_campaign(
            _kernel_task, 5, base_seed=3, max_workers=1
        )
        assert batched.seeds == sequential.seeds
        assert batched.results == sequential.results

    def test_group_partitions_are_invisible(self):
        serial = run_columnar_campaign(
            _kernel_task, 6, base_seed=0, max_workers=1
        )
        pooled = run_columnar_campaign(
            _kernel_task, 6, base_seed=0, max_workers=2
        )
        chunked = run_columnar_campaign(
            _kernel_task, 6, base_seed=0, max_workers=2, chunk_size=2,
        )
        assert serial.results == pooled.results == chunked.results
        assert serial.seeds == pooled.seeds == chunked.seeds

    def test_a_failing_seed_fails_alone(self):
        # Through the pool: the failure crosses the process boundary as a
        # record, not a crash (the serial path is tested above).
        campaign = run_columnar_campaign(
            _failing_task, 4, base_seed=0, max_workers=2
        )
        assert campaign.seeds == (0, 1, 3)
        assert [failure.seed for failure in campaign.failures] == [2]
        assert "injected failure" in campaign.failures[0].traceback

    def test_checkpoint_resumes_under_other_workers_and_more_seeds(
        self, tmp_path
    ):
        journal = str(tmp_path / "batched.jsonl")
        first = run_columnar_campaign(
            _kernel_task, 4, base_seed=0, max_workers=1, checkpoint=journal
        )
        resumed = run_columnar_campaign(
            _kernel_task,
            6,
            base_seed=0,
            max_workers=2,
            checkpoint=journal,
            resume=True,
        )
        assert resumed.resumed == 4
        assert resumed.completed == 6
        assert resumed.results[:4] == first.results
