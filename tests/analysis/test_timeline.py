"""Tests for the ASCII workflow timeline renderer."""

from repro.analysis.timeline import (
    render_parallel_timeline,
    render_serial_timeline,
)
from repro.baselines.interface import BatchRecord


def batch(rt=1.0, ci=0.5, ce=0.25, ou=2.0):
    return BatchRecord(
        ray_tracing=rt,
        cache_insertion=ci,
        cache_eviction=ce,
        octree_update=ou,
    )


class TestSerialTimeline:
    def test_empty(self):
        assert "empty" in render_serial_timeline([])

    def test_glyph_shares_match_durations(self):
        art = render_serial_timeline([batch()], width=80)
        bar = art.splitlines()[0].split(": ", 1)[1]
        # Octree update is ~53% of the 3.75s batch.
        assert 0.4 < bar.count("O") / len(bar) < 0.65
        assert bar.count("R") > 0
        assert bar.count("I") > 0

    def test_stage_order_per_batch(self):
        art = render_serial_timeline([batch()], width=40)
        bar = art.splitlines()[0].split(": ", 1)[1]
        # R before I before E before O.
        assert bar.index("R") < bar.index("I") < bar.index("E") < bar.index("O")

    def test_legend_present(self):
        assert "ray tracing" in render_serial_timeline([batch()])


class TestParallelTimeline:
    def test_two_threads_rendered(self):
        art = render_parallel_timeline([batch(), batch()], width=60)
        lines = art.splitlines()
        assert lines[0].startswith("thread1:")
        assert lines[1].startswith("thread2:")

    def test_thread1_never_runs_octree(self):
        art = render_parallel_timeline([batch()] * 3, width=80)
        assert "O" not in art.splitlines()[0]
        assert "O" in art.splitlines()[1]

    def test_wait_gap_appears_when_octree_dominates(self):
        slow_octree = [batch(rt=0.1, ci=0.1, ce=0.1, ou=5.0)] * 3
        art = render_parallel_timeline(slow_octree, width=80)
        thread1 = art.splitlines()[0]
        assert "." in thread1  # the Figure-13(b) waiting gap

    def test_no_wait_when_thread1_dominates(self):
        busy_thread1 = [batch(rt=5.0, ci=2.0, ce=1.0, ou=0.1)] * 3
        art = render_parallel_timeline(busy_thread1, width=80)
        thread1_bar = art.splitlines()[0].split(": ", 1)[1]
        assert thread1_bar.count(".") == 0

    def test_empty(self):
        assert "empty" in render_parallel_timeline([])
