"""ProgressReporter rendering and the coerce_progress contract."""

import io

from repro.campaign.metrics import CampaignMetrics
from repro.obs import ProgressReporter, coerce_progress


class _Failed:
    failure = object()


class _Ok:
    failure = None


def _reporter(**kwargs):
    stream = io.StringIO()
    kwargs.setdefault("interval", 0.0)
    return ProgressReporter(label="t", stream=stream, **kwargs), stream


class TestReporter:
    def test_tick_renders_done_over_total(self):
        reporter, stream = _reporter(total=4)
        reporter.tick(_Ok())
        line = stream.getvalue().splitlines()[-1]
        assert line.startswith("[t] 1/4 (25%)")
        assert "runs/s" in line

    def test_failures_counted(self):
        reporter, stream = _reporter(total=2)
        reporter.tick(_Failed())
        assert "failed 1" in stream.getvalue().splitlines()[-1]

    def test_skips_count_as_done_and_render_share(self):
        reporter, stream = _reporter(total=10)
        reporter.note_skipped(5)
        line = stream.getvalue().splitlines()[-1]
        assert "5/10" in line
        assert "cached/replayed 5 (100%)" in line

    def test_finish_emits_final_line_and_metrics(self):
        reporter, stream = _reporter(total=1)
        reporter.tick(_Ok())
        reporter.finish(
            CampaignMetrics(
                label="t", runs=1, completed_runs=1,
                wall_clock_seconds=0.1, runs_per_second=10.0,
                completion_rate=1.0, jobs=1,
            )
        )
        text = stream.getvalue()
        assert "done in" in text
        assert "[campaign t]" in text

    def test_throttling_suppresses_mid_run_lines(self):
        reporter, stream = _reporter(total=100, interval=3600.0)
        for _ in range(50):
            reporter.tick(_Ok())
        assert reporter.done == 50
        # The first tick always emits; every later one is throttled
        # until finish.
        assert len(stream.getvalue().splitlines()) == 1
        reporter.finish()
        assert "50/100" in stream.getvalue()

    def test_first_line_emits_on_a_clock_near_zero(self):
        """A monotonic clock may start anywhere, e.g. just after boot."""
        now = [0.25]
        reporter, stream = _reporter(
            total=100, interval=3600.0, clock=lambda: now[0]
        )
        now[0] = 0.75
        reporter.tick(_Ok())
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("[t] 1/100 (1%) 2.0 runs/s")
        now[0] = 1.5
        reporter.tick(_Ok())
        assert len(stream.getvalue().splitlines()) == 1
        now[0] = 3600.75
        reporter.tick(_Ok())
        assert len(stream.getvalue().splitlines()) == 2

    def test_reusable_across_campaigns(self):
        reporter, stream = _reporter(total=0)
        reporter.add_total(3)
        reporter.add_total(2)
        for _ in range(5):
            reporter.tick(_Ok())
        reporter.finish()
        assert "5/5 (100%)" in stream.getvalue().splitlines()[-1]


class TestCoerceProgress:
    def test_true_builds_an_owned_reporter(self):
        reporter, owned = coerce_progress(True, "label")
        assert isinstance(reporter, ProgressReporter)
        assert reporter.label == "label"
        assert owned

    def test_instance_is_shared_not_owned(self):
        mine = ProgressReporter(label="mine", stream=io.StringIO())
        reporter, owned = coerce_progress(mine, "ignored")
        assert reporter is mine
        assert not owned

    def test_falsy_disables(self):
        assert coerce_progress(None, "x") == (None, False)
        assert coerce_progress(False, "x") == (None, False)
