"""Tests for :class:`~repro.sim.random_streams.ExponentialBatcher`.

The batcher draws unit exponentials in numpy blocks and serves them as
arrays or one float at a time; the sequential columnar engine
(:mod:`repro.sim.columnar`) takes its sojourns and candidate gaps from it.
Block boundaries change bit-stream consumption, so its variates are not
the heap sources' per-call draws even at the same seed — they are the
columnar engine's own determinism domain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.random_streams import ExponentialBatcher


class TestExponentialBatcher:
    def test_matches_numpy_standard_exponential(self):
        # The batcher is exactly standard_exponential scaled by the mean,
        # consumed block by block.
        batcher = ExponentialBatcher(np.random.default_rng(5), block_size=16)
        expected = np.random.default_rng(5).standard_exponential(16) * 0.25
        draws = np.array([batcher.draw(0.25) for _ in range(16)])
        np.testing.assert_array_equal(draws, expected)

    def test_refills_across_block_boundary(self):
        batcher = ExponentialBatcher(np.random.default_rng(5), block_size=8)
        draws = [batcher.draw(1.0) for _ in range(20)]
        assert len(set(draws)) == 20
        assert all(d > 0.0 for d in draws)

    def test_sample_mean(self):
        batcher = ExponentialBatcher(np.random.default_rng(11))
        draws = np.array([batcher.draw(2.0) for _ in range(100_000)])
        assert abs(draws.mean() - 2.0) < 0.03

    @pytest.mark.parametrize(
        "mean", [0.0, -1.0, float("nan"), float("inf"), -float("inf")]
    )
    def test_rejects_degenerate_means_at_draw_time(self, mean):
        # Regression: the batcher used to accept nonpositive/NaN means
        # silently, emitting inf/NaN interarrivals that bypassed the
        # Simulator.schedule guards (columnar draws never schedule).
        batcher = ExponentialBatcher(np.random.default_rng(0))
        with pytest.raises(ValueError, match="exponential mean"):
            batcher.draw(mean)
        with pytest.raises(ValueError, match="exponential mean"):
            batcher.draw_block(4, mean)

    def test_draw_block_continues_the_scalar_bitstream(self):
        # Mixing scalar and block draws consumes ONE bit-stream: k scalar
        # draws then a block of n must equal n+k scalar draws.
        scalar = ExponentialBatcher(np.random.default_rng(7), block_size=8)
        mixed = ExponentialBatcher(np.random.default_rng(7), block_size=8)
        expected = [scalar.draw(0.5) for _ in range(20)]
        head = [mixed.draw(0.5) for _ in range(5)]
        block = mixed.draw_block(15, 0.5)
        np.testing.assert_allclose(
            np.asarray(head + list(block)), np.asarray(expected), rtol=1e-15
        )

    def test_draw_block_rejects_negative_count(self):
        batcher = ExponentialBatcher(np.random.default_rng(0))
        with pytest.raises(ValueError, match="count"):
            batcher.draw_block(-1, 1.0)
