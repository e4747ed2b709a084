"""Tests for analysis.bounds, sim.replay, and the CLI."""

import json

import pytest

from repro.analysis.bounds import (
    PAPER_SLACK,
    SlackBudget,
    lemma4_cost_bound,
    lemma11_migration_bound,
    lemma12_reallocation_bound,
    levels_touched,
    observation13_bound,
    theorem1_cost_bound,
)
from repro.cli import main as cli_main
from repro.core import Job, ValidationError, Window
from repro.core.requests import RequestSequence
from repro.reservation import AlignedReservationScheduler
from repro.sim import run_engine
from repro.sim.replay import replay_and_diff, shrink_failing_prefix
from repro.workloads import AlignedWorkloadConfig, random_aligned_sequence


class TestBounds:
    def test_theorem1(self):
        assert theorem1_cost_bound(16, 1 << 30) == 3 * 3  # log*(16)=3
        assert theorem1_cost_bound(1 << 20, 16) == 9
        assert theorem1_cost_bound(1, 1) == 3.0  # floor at 1 level

    def test_lemma4(self):
        assert lemma4_cost_bound(1 << 10, 1 << 20) == 11
        assert lemma4_cost_bound(1 << 20, 1 << 10) == 11

    def test_lower_bounds(self):
        assert lemma11_migration_bound(120) == 10
        assert lemma12_reallocation_bound(10, 10) == 81
        assert lemma12_reallocation_bound(10, 0) == 0
        assert observation13_bound(8, 3) == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem1_cost_bound(0, 4)
        with pytest.raises(ValueError):
            lemma12_reallocation_bound(0, 1)

    def test_levels_touched(self):
        assert levels_touched(16) == 0
        assert levels_touched(256) == 1
        assert levels_touched(1 << 12) == 2

    def test_slack_budget(self):
        assert PAPER_SLACK.composed_gamma == 192
        assert PAPER_SLACK.requirement_at("machine") == 8
        assert PAPER_SLACK.requirement_at("aligned") == 48
        assert PAPER_SLACK.requirement_at("input") == 192
        with pytest.raises(ValueError):
            PAPER_SLACK.requirement_at("nope")
        assert SlackBudget(reservation_gamma=2).composed_gamma == 48


class TestReplay:
    def make_seq(self, n=40, seed=0):
        cfg = AlignedWorkloadConfig(num_requests=n, horizon=256, max_span=128,
                                    gamma=8, delete_fraction=0.3)
        return random_aligned_sequence(cfg, seed=seed)

    def record(self, path, seq, **kwargs):
        """Trace one run, checkpointing after every request by default."""
        kwargs.setdefault("checkpoint_every", 1)
        run_engine(AlignedReservationScheduler(), seq, trace_path=path,
                   **kwargs)
        return path

    def test_record_and_replay_identical(self, tmp_path):
        seq = self.make_seq()
        trace = self.record(tmp_path / "run.jsonl", seq)
        assert replay_and_diff(trace, seq, AlignedReservationScheduler) == []

    def test_replay_detects_divergence(self, tmp_path):
        seq = self.make_seq()
        trace = self.record(tmp_path / "run.jsonl", seq)
        # a different scheduler family diverges somewhere
        from repro.baselines import EDFRebuildScheduler
        diverging = replay_and_diff(trace, seq, lambda: EDFRebuildScheduler(1))
        assert diverging  # EDF places differently
        assert set(diverging) <= set(range(1, len(seq) + 1))

    def test_strict_batched_trace_replays_clean(self, tmp_path):
        seq = self.make_seq(60, seed=3)
        trace = self.record(tmp_path / "run.jsonl", seq, batch_size=8,
                            atomic_batches=True, checkpoint_every=8)
        header = json.loads(trace.read_text().splitlines()[0])
        assert (header["backend"], header["batch_size"], header["atomic"],
                header["checkpoint_every"]) == ("batched", 8, True, 8)
        assert replay_and_diff(trace, seq, AlignedReservationScheduler) == []

    def test_replay_refuses_a_different_sequence(self, tmp_path):
        trace = self.record(tmp_path / "run.jsonl", self.make_seq(seed=0))
        with pytest.raises(ValueError, match="fingerprint"):
            replay_and_diff(trace, self.make_seq(seed=1),
                            AlignedReservationScheduler)

    def test_shrink_failing_prefix(self):
        seq = RequestSequence()
        seq.insert("a", 0, 4)
        seq.insert("b", 0, 4)
        seq.insert("c", 0, 4)

        def probe(s):
            if len(s.jobs) >= 2:
                raise ValidationError("synthetic failure at 2 jobs")

        at = shrink_failing_prefix(
            seq, lambda: AlignedReservationScheduler(), probe)
        assert at == 2

    def test_shrink_none_when_clean(self):
        seq = self.make_seq(15)
        from repro.reservation import validate_scheduler
        at = shrink_failing_prefix(
            seq, lambda: AlignedReservationScheduler(),
            lambda s: validate_scheduler(s))
        assert at is None


class TestCLI:
    def test_demo(self, capsys):
        assert cli_main(["demo", "--requests", "40", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1 scheduler" in out
        assert "max_realloc" in out

    def test_compare(self, capsys):
        rc = cli_main(["compare", "--requests", "40",
                       "--schedulers", "reservation,edf"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reservation" in out and "edf" in out

    def test_compare_unknown_scheduler(self):
        with pytest.raises(SystemExit):
            cli_main(["compare", "--schedulers", "bogus"])

    def test_generate_and_replay(self, tmp_path, capsys):
        trace = tmp_path / "wl.json"
        assert cli_main(["generate", "--requests", "30",
                         "--output", str(trace)]) == 0
        assert cli_main(["replay", str(trace),
                         "--scheduler", "reservation"]) == 0
        out = capsys.readouterr().out
        assert "reservation on" in out

    def test_replay_failure_exit_code(self, tmp_path):
        bad = RequestSequence()
        bad.insert("a", 0, 1)
        bad.insert("b", 0, 1)
        trace = tmp_path / "bad.json"
        trace.write_text(bad.to_json())
        assert cli_main(["replay", str(trace), "--scheduler", "edf"]) == 1

    def test_bounds(self, capsys):
        assert cli_main(["bounds", "--n", "1024"]) == 0
        out = capsys.readouterr().out
        assert "192" in out

    def test_generate_stdout(self, capsys):
        assert cli_main(["generate", "--requests", "10"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)
