"""The claims table against the committed results it regenerates."""

import inspect
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ObservationCheck
from repro.experiments.figures import CLAIMS, Claim

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

#: Rows cheap enough to run at claim parameters here (under 0.3 s each):
#: exactly those without toy parameters.
CHEAP = sorted(claim_id for claim_id, claim in CLAIMS.items() if claim.quick is None)


def test_claims_cover_exactly_the_committed_results():
    assert set(CLAIMS) == {path.stem for path in RESULTS.glob("*.txt")}


@pytest.mark.parametrize("claim_id", CHEAP)
def test_cheap_claim_reprints_its_committed_result(claim_id, capsys):
    code = main(["figure", claim_id])
    out = capsys.readouterr().out
    assert out == (RESULTS / f"{claim_id}.txt").read_text(encoding="utf-8")
    assert code == 0


def test_quick_params_bind_to_their_driver():
    for claim in CLAIMS.values():
        if claim.quick is not None:
            inspect.signature(claim.driver).bind(**claim.quick)


class TestProblems:
    def _checks(self, **holds):
        return [ObservationCheck(name, ok, "d") for name, ok in holds.items()]

    def test_all_holding_is_no_problem(self):
        assert Claim(print).judge(self._checks(a=True, b=True), quick=False) == []

    def test_failing_check_is_a_problem(self):
        (line,) = Claim(print).judge(self._checks(a=True, b=False), quick=False)
        assert line == "claim not reproduced: b: VIOLATED — d"

    def test_documented_divergence_must_keep_failing(self):
        claim = Claim(print, divergences={"b": 2})
        assert claim.judge(self._checks(a=True, b=False), quick=False) == []
        (line,) = claim.judge(self._checks(a=True, b=True), quick=False)
        assert line.startswith("known divergence 2 (EXPERIMENTS.md) now holds")

    def test_divergence_without_its_check_is_a_problem(self):
        claim = Claim(print, divergences={"gone": 1})
        (line,) = claim.judge(self._checks(a=True), quick=False)
        assert "'gone' is missing" in line

    def test_quick_lists_every_failing_check_divergence_or_not(self):
        claim = Claim(print, divergences={"b": 2})
        checks = self._checks(a=True, b=False, c=False)
        assert claim.judge(checks, quick=True) == [
            "b: VIOLATED — d",
            "c: VIOLATED — d",
        ]
