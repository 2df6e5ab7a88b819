"""Unit tests for the declarative StageTimeline."""

import pytest

from repro.common.errors import ReproError
from repro.common.timeline import StageTimeline, TimelineError
from repro.common.types import LatencyBreakdown, WritePathStage

S = WritePathStage


class TestSerial:
    def test_advances_clock_and_charges_stage(self):
        tl = StageTimeline(100.0)
        tl.serial(S.ENCRYPTION, 40.0)
        assert tl.now == 140.0
        assert tl.exposures == {S.ENCRYPTION: 40.0}

    def test_accumulates_repeated_stage(self):
        tl = StageTimeline(0.0)
        tl.serial(S.FINGERPRINT_COMPUTE, 40.0)
        tl.serial(S.FINGERPRINT_COMPUTE, 312.0)
        assert tl.exposures[S.FINGERPRINT_COMPUTE] == pytest.approx(352.0)

    def test_negative_duration_rejected(self):
        tl = StageTimeline(0.0)
        with pytest.raises(TimelineError):
            tl.serial(S.ENCRYPTION, -1.0)

    def test_zero_duration_dropped_from_exposures(self):
        tl = StageTimeline(0.0)
        tl.serial(S.METADATA, 0.0)
        assert tl.exposures == {}
        assert tl.critical_path_ns == 0.0


class TestAdvanceTo:
    def test_charges_wall_clock_to_stage(self):
        tl = StageTimeline(10.0)
        tl.advance_to(S.WRITE_UNIQUE, 160.0)
        assert tl.now == 160.0
        assert tl.exposures == {S.WRITE_UNIQUE: 150.0}

    def test_completion_in_the_past_rejected(self):
        tl = StageTimeline(100.0)
        with pytest.raises(TimelineError):
            tl.advance_to(S.WRITE_UNIQUE, 50.0)

    def test_completion_at_now_charges_nothing(self):
        tl = StageTimeline(100.0)
        tl.advance_to(S.METADATA, 100.0)
        assert tl.now == 100.0
        assert tl.exposures == {}


class TestBranchJoin:
    def test_hidden_branch_charges_nothing(self):
        tl = StageTimeline(0.0)
        leg = tl.overlap_with(S.FINGERPRINT_COMPUTE, 40.0)
        tl.serial(S.ENCRYPTION, 100.0)
        tl.join(leg)
        assert tl.now == 100.0
        assert S.FINGERPRINT_COMPUTE not in tl.exposures
        tl.seal()

    def test_exposed_tail_charged_to_branch_stage(self):
        tl = StageTimeline(0.0)
        leg = tl.overlap_with(S.FINGERPRINT_COMPUTE, 321.0)
        tl.serial(S.ENCRYPTION, 100.0)
        tl.join(leg)
        assert tl.now == 321.0
        assert tl.exposures[S.FINGERPRINT_COMPUTE] == pytest.approx(221.0)
        tl.seal()

    def test_join_clips_multi_segment_branch(self):
        tl = StageTimeline(0.0)
        leg = tl.branch()
        leg.serial(S.FINGERPRINT_COMPUTE, 40.0)
        leg.serial(S.FINGERPRINT_NVMM_LOOKUP, 60.0)
        tl.serial(S.ENCRYPTION, 50.0)
        tl.join(leg)
        # Window [50, 100]: 0 of the CRC (ended at 40) is exposed, and the
        # lookup ([40, 100]) contributes only its [50, 100] part.
        assert tl.now == 100.0
        assert S.FINGERPRINT_COMPUTE not in tl.exposures
        assert tl.exposures[S.FINGERPRINT_NVMM_LOOKUP] == pytest.approx(50.0)
        tl.seal()

    def test_unjoined_branch_is_wasted_work(self):
        tl = StageTimeline(0.0)
        tl.overlap_with(S.ENCRYPTION, 100.0)  # speculative, never joined
        tl.serial(S.READ_FOR_COMPARISON, 30.0)
        tl.seal()
        assert tl.critical_path_ns == 30.0
        assert S.ENCRYPTION not in tl.exposures

    def test_joined_leg_is_sealed(self):
        tl = StageTimeline(0.0)
        leg = tl.overlap_with(S.ENCRYPTION, 10.0)
        tl.join(leg)
        with pytest.raises(TimelineError):
            leg.serial(S.ENCRYPTION, 1.0)

    def test_parallel_joins_in_declaration_order(self):
        tl = StageTimeline(0.0)
        tl.parallel((S.ENCRYPTION, 100.0), (S.FINGERPRINT_COMPUTE, 321.0))
        # The first leg absorbs the shared prefix; the second only its tail.
        assert tl.exposures[S.ENCRYPTION] == pytest.approx(100.0)
        assert tl.exposures[S.FINGERPRINT_COMPUTE] == pytest.approx(221.0)
        assert tl.critical_path_ns == pytest.approx(321.0)
        tl.seal()


class TestSeal:
    def test_conservation_holds_for_mixed_shapes(self):
        tl = StageTimeline(1_000.0)
        tl.serial(S.FINGERPRINT_COMPUTE, 40.0)
        tl.advance_to(S.FINGERPRINT_NVMM_LOOKUP, 1_100.0)
        leg = tl.overlap_with(S.METADATA, 200.0)
        tl.serial(S.READ_FOR_COMPARISON, 105.0)
        tl.join(leg)
        tl.seal()
        assert sum(tl.exposures.values()) == pytest.approx(
            tl.critical_path_ns)

    def test_unattributed_time_fails_conservation(self):
        tl = StageTimeline(0.0)
        # Joining a leg that was never forked from this timeline leaves the
        # gap before its fork unattributed.
        foreign = StageTimeline(500.0)
        foreign.serial(S.ENCRYPTION, 10.0)
        tl.join(foreign)
        with pytest.raises(TimelineError):
            tl.seal()

    def test_sealed_rejects_mutation(self):
        tl = StageTimeline(0.0)
        tl.serial(S.ENCRYPTION, 1.0)
        tl.seal()
        assert tl.sealed
        with pytest.raises(TimelineError):
            tl.serial(S.ENCRYPTION, 1.0)
        with pytest.raises(TimelineError):
            tl.advance_to(S.ENCRYPTION, 5.0)
        with pytest.raises(TimelineError):
            tl.branch()

    def test_seal_is_idempotent(self):
        tl = StageTimeline(0.0)
        tl.serial(S.ENCRYPTION, 1.0)
        assert tl.seal() is tl
        assert tl.seal() is tl


class TestReporting:
    def test_fold_into_accumulates(self):
        breakdown = LatencyBreakdown()
        for _ in range(3):
            tl = StageTimeline(0.0)
            tl.serial(S.ENCRYPTION, 100.0)
            tl.serial(S.WRITE_UNIQUE, 150.0)
            tl.seal().fold_into(breakdown)
        assert breakdown.by_stage[S.ENCRYPTION] == pytest.approx(300.0)
        assert breakdown.by_stage[S.WRITE_UNIQUE] == pytest.approx(450.0)

    def test_fold_into_skips_zero_exposures(self):
        breakdown = LatencyBreakdown()
        tl = StageTimeline(0.0)
        tl.serial(S.METADATA, 0.0)
        tl.serial(S.ENCRYPTION, 1.0)
        tl.seal().fold_into(breakdown)
        assert S.METADATA not in breakdown.by_stage

    def test_segments_in_declaration_order(self):
        # Only a branch leg logs segments (join() reads them); a spine
        # keeps per-stage totals and yields none.
        tl = StageTimeline(0.0)
        leg = tl.branch()
        leg.serial(S.FINGERPRINT_COMPUTE, 40.0)
        leg.advance_to(S.FINGERPRINT_NVMM_LOOKUP, 100.0)
        leg.serial(S.ENCRYPTION, 100.0)
        assert list(leg.segments()) == [
            (S.FINGERPRINT_COMPUTE, 0.0, 40.0),
            (S.FINGERPRINT_NVMM_LOOKUP, 40.0, 100.0),
            (S.ENCRYPTION, 100.0, 200.0)]
        tl.serial(S.READ_FOR_COMPARISON, 30.0)
        assert list(tl.segments()) == []

    def test_timeline_error_is_repro_error(self):
        assert issubclass(TimelineError, ReproError)
