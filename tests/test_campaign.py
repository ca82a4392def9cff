"""Campaign layer: dispatch, reports, the exit-code contract, and the
violation path through an oracle that agrees on every probe but is not a
derivation anywhere else."""

import json
import random

import pytest

import derivring.campaign as campaign
from derivring import (
    CampaignConfig,
    DomainError,
    InnerDerivation,
    JordanPairDerivation,
    JordanWitnessFamily,
    Matrix,
    NoiseSpec,
    ReconstructionResult,
    Report,
    SymmetricMatrix,
    TwoLocalOracle,
    WitnessFamily,
    Zmod,
    matrix_unit,
    pairs_to_commutator,
    probe_x0,
    run_campaign,
    verify_jordan_theorem,
    verify_theorem1,
)
from derivring.sampling import random_matrix, random_pairs, random_symmetric
from derivring.serialize import payload_to_obj

Z5 = Zmod(5)
Z9 = Zmod(9)


def adversarial_oracle(hidden):
    """Agrees with [hidden, .] on every probe the witness model touches,
    but adds the identity elsewhere; the per-probe validation cannot see
    this, the reconstruction theorem check must."""
    ring, n = hidden.ring, hidden.n
    inner = InnerDerivation(hidden)
    probes = {
        matrix_unit(ring, n, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
    }
    probes.add(probe_x0(ring, n))

    def evaluate(x):
        if x in probes:
            return inner(x)
        return inner(x) + Matrix.identity(ring, n)

    return TwoLocalOracle(ring, n, evaluate)


class TestRunCampaign:
    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_campaign(CampaignConfig(suite="bogus", ring=Z5))

    def test_negative_trials(self):
        with pytest.raises(DomainError):
            run_campaign(CampaignConfig(suite="theorem1", ring=Z5, trials=-1))

    def test_zero_trials(self):
        report = run_campaign(CampaignConfig(suite="theorem1", ring=Z5, trials=0))
        assert report.instances == 0 and report.ok and report.exit_code == 0

    def test_repeat_runs_byte_identical(self):
        config = CampaignConfig(
            suite="jordan-theorem", ring=Z9, n=2, trials=3, seed=8, samples=4
        )
        assert run_campaign(config).to_json() == run_campaign(config).to_json()

    def test_wall_time_measured_but_not_serialized(self):
        report = run_campaign(CampaignConfig(suite="theorem1", ring=Z5, trials=1))
        assert report.wall_ms >= 0.0
        assert "wall" not in report.to_json()


class TestRecoveryCheck:
    """Negative control for theorem1's recovery check: abar - hidden must
    lie in the centre R*I of M_n(R)."""

    def _run_shifted(self, monkeypatch, shift):
        real = campaign.reconstruct_abar
        abars = []

        def shifted(family):
            result = real(family)
            abars.append(result.abar + shift)
            return ReconstructionResult(abars[-1])

        monkeypatch.setattr(campaign, "reconstruct_abar", shifted)
        config = CampaignConfig(
            suite="theorem1", ring=Z5, n=3, trials=4, seed=5,
            noise=NoiseSpec.CENTRAL_SHIFTS, samples=2,
        )
        return run_campaign(config), abars

    def test_non_central_shift_is_reported(self, monkeypatch):
        report, abars = self._run_shifted(monkeypatch, matrix_unit(Z5, 3, 1, 2))
        assert [rec["instance"] for rec in report.failures] == [0, 1, 2, 3]
        for rec, abar in zip(report.failures, abars):
            assert rec["kind"] == "recovery-up-to-center"
            # replay the instance from its seed: hidden is its first draw
            hidden = random_matrix(Z5, 3, random.Random(rec["seed"]))
            drift = abar - hidden
            assert rec["lhs"] == payload_to_obj(drift)
            assert rec["rhs"] == payload_to_obj(Matrix.scalar(drift.entry(1, 1), 3))

    def test_central_shift_is_not_reported(self, monkeypatch):
        report, abars = self._run_shifted(monkeypatch, Matrix.scalar(Z5.element(2), 3))
        assert len(abars) == 4
        assert report.ok


class TestReport:
    def test_exit_code_contract(self):
        config = CampaignConfig(suite="theorem1", ring=Z5)
        clean = Report(config, 1, ())
        assert clean.exit_code == 0
        failure = {
            "instance": 0,
            "seed": 1,
            "kind": "action",
            "probe": "sample 0",
            "lhs": payload_to_obj(matrix_unit(Z5, 2, 1, 2)),
            "rhs": payload_to_obj(Matrix.zero(Z5, 2)),
        }
        failing = Report(config, 1, (failure,))
        assert failing.exit_code == 1
        parsed = json.loads(failing.to_json())
        assert parsed["failures"][0]["lhs"]["rows"] == [[0, 1], [0, 0]]

    def test_text_format_lists_failures(self):
        config = CampaignConfig(suite="theorem1", ring=Z5)
        failure = {
            "instance": 3,
            "seed": 9,
            "kind": "action",
            "probe": "sample 1",
            "lhs": 0,
            "rhs": 1,
        }
        text = Report(config, 5, (failure,)).to_text()
        assert "failures=1" in text
        assert "instance=3" in text


class TestViolationsAreData:
    def test_theorem1_flags_a_non_derivation(self):
        rng = random.Random(101)
        hidden = random_matrix(Z5, 2, rng)
        oracle = adversarial_oracle(hidden)
        family = WitnessFamily(Z5, 2, {(1, 2): hidden, (2, 1): hidden})
        family.validate(oracle)  # the probe identities all hold
        # any sample outside the probe set exposes the fraud
        report = verify_theorem1(oracle, family, [Matrix.identity(Z5, 2)])
        assert not report.ok
        assert report.violations[0].kind == "action"

    def test_jordan_theorem_flags_a_non_derivation(self):
        rng = random.Random(102)
        hidden = JordanPairDerivation(Z9, 2, random_pairs(Z9, 2, rng, 2))
        s = pairs_to_commutator(hidden)
        probes = {SymmetricMatrix.of(matrix_unit(Z9, 2, i, i)) for i in (1, 2)}

        def evaluate(x):
            if x in probes:
                return hidden(x)
            return hidden(x) + Matrix.identity(Z9, 2)

        oracle = TwoLocalOracle(Z9, 2, evaluate)
        family = JordanWitnessFamily(Z9, 2, {1: s, 2: s})
        family.validate(oracle)
        sample = random_symmetric(Z9, 2, rng) + Matrix.identity(Z9, 2)
        report = verify_jordan_theorem(oracle, family, [SymmetricMatrix.of(sample)])
        assert not report.ok
