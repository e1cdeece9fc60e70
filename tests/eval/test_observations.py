"""Tests for the automated Section-4 claim verification."""

from __future__ import annotations

from repro.eval import format_observations
from repro.eval.observations import Observation


class TestVerifyObservations:
    def test_five_claims_checked(self, observations):
        assert len(observations) == 5

    def test_all_hold_on_shipped_calibration(self, observations):
        broken = [o.claim for o in observations if not o.holds]
        assert not broken, broken

    def test_sources_cite_paper_sections(self, observations):
        for obs in observations:
            assert obs.source.startswith("4.")

    def test_evidence_is_concrete(self, observations):
        for obs in observations:
            assert obs.evidence.strip(), obs.claim


class TestFormat:
    def test_report_structure(self, observations):
        text = format_observations(observations)
        assert text.count("[HOLDS ]") + text.count("[BROKEN]") == 5
        assert "Observation 3" in text

    def test_broken_claim_rendering(self):
        obs = [Observation("x", "4.9", False, "n=1")]
        assert "[BROKEN]" in format_observations(obs)
