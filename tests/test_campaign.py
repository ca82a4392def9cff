"""Campaign layer: dispatch, reports, the exit-code contract, and the
violation path through an oracle that agrees on every probe but is not a
derivation anywhere else."""

import dataclasses
import hashlib
import json
import random

import pytest

import derivring.campaign as campaign
import derivring.derivations as derivations
from derivring import (
    CampaignConfig,
    DomainError,
    InnerDerivation,
    JordanPairDerivation,
    JordanWitnessFamily,
    Matrix,
    NoiseSpec,
    PolyRing,
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
from derivring.twolocal import offdiag_sides

Z5 = Zmod(5)
Z9 = Zmod(9)
P5 = PolyRing(Z5)


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


def jordan_adversarial_oracle(hidden):
    """Agrees with the pair-list derivation on the diagonal probes e_{i,i}
    the Jordan witnesses are validated on, adds the identity elsewhere."""
    ring, n = hidden.ring, hidden.n
    probes = {SymmetricMatrix.of(matrix_unit(ring, n, i, i)) for i in range(1, n + 1)}

    def evaluate(x):
        if x in probes:
            return hidden(x)
        return hidden(x) + Matrix.identity(ring, n)

    return TwoLocalOracle(ring, n, evaluate)


class TestRunCampaign:
    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_campaign(CampaignConfig(suite="bogus", ring=Z5))

    def test_negative_trials(self):
        with pytest.raises(DomainError):
            run_campaign(CampaignConfig(suite="theorem1", ring=Z5, trials=-1))

    def test_every_suite_has_one_settings_row(self):
        # run_campaign checks each config against its suite's row
        assert list(campaign.SETTINGS) == list(campaign.SUITES)

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

    def test_config_is_written_once_in_field_order(self):
        report = Report(CampaignConfig(suite="theorem1", ring=Z5, trials=1, seed=7), 1)
        assert report.to_text().splitlines()[0] == (
            "suite=theorem1 ring=Z_5 n=2 trials=1 seed=7 noise=none"
            " max_degree=3 delta=zero max_len=6 samples=20"
        )
        names = {field.name for field in dataclasses.fields(CampaignConfig)}
        assert set(json.loads(report.to_json())["config"]) == names


class TestViolationsAreData:
    def test_theorem1_flags_a_non_derivation(self):
        rng = random.Random(101)
        hidden = random_matrix(Z5, 2, rng)
        oracle = adversarial_oracle(hidden)
        # the probe identities all hold, so the family can be built
        family = WitnessFamily(oracle, {(1, 2): hidden, (2, 1): hidden})
        # any sample outside the probe set exposes the fraud
        report = verify_theorem1(family, [Matrix.identity(Z5, 2)])
        assert not report.ok
        assert report.violations[0].kind == "action"

    def test_jordan_theorem_flags_a_non_derivation(self):
        rng = random.Random(102)
        hidden = JordanPairDerivation(Z9, 2, random_pairs(Z9, 2, rng, 2))
        s = pairs_to_commutator(hidden)
        family = JordanWitnessFamily(jordan_adversarial_oracle(hidden), {1: s, 2: s})
        sample = random_symmetric(Z9, 2, rng) + Matrix.identity(Z9, 2)
        samples = [SymmetricMatrix.of(sample)]
        report = verify_jordan_theorem(family, samples)
        assert not report.ok


def plant_theorem1(monkeypatch):
    real = campaign.gen_witness_family

    def planted(hidden, noise, seed, max_degree):
        _, family = real(hidden, noise, seed, max_degree)
        oracle = adversarial_oracle(hidden)
        return oracle, WitnessFamily(oracle, family.offdiag, family.c)

    monkeypatch.setattr(campaign, "gen_witness_family", planted)
    return CampaignConfig(suite="theorem1", ring=Z5, n=3, trials=3, seed=11, samples=2)


def plant_lemma_cross(monkeypatch):
    real = campaign.check_cross_corner

    def planted(a, b, i, j, k, mirror=False):
        return (i, j, k) != (1, 2, 3) and real(a, b, i, j, k, mirror=mirror)

    monkeypatch.setattr(campaign, "check_cross_corner", planted)
    return CampaignConfig(
        suite="lemma-cross", ring=Z9, n=3, trials=2, seed=12,
        noise=NoiseSpec.CENTRAL_SHIFTS,
    )


def plant_lemma_offdiag(monkeypatch):
    real = campaign.check_offdiag_formula

    def planted(family, i, j):
        return (i, j) != (2, 1) and real(family, i, j)

    monkeypatch.setattr(campaign, "check_offdiag_formula", planted)
    return CampaignConfig(
        suite="lemma-offdiag", ring=Z5, n=3, trials=2, seed=13,
        noise=NoiseSpec.CENTRAL_SHIFTS,
    )


def plant_lemma_diagdiff(monkeypatch):
    real = campaign.check_diag_difference
    monkeypatch.setattr(
        campaign, "check_diag_difference", lambda b, c, oracle: not real(b, c, oracle)
    )
    return CampaignConfig(
        suite="lemma-diagdiff", ring=Z9, n=3, trials=2, seed=14,
        noise=NoiseSpec.X0_COMMUTANT_SHIFT_ON_C,
    )


def _plant_tower(monkeypatch, bend):
    real = campaign.extend_tower

    def planted(delta, n):
        ext = real(delta, n)
        return lambda x: ext(x) + bend(x)

    monkeypatch.setattr(campaign, "extend_tower", planted)
    return CampaignConfig(
        suite="extend", ring=P5, n=3, trials=2, seed=15, delta="d/dt", max_degree=2
    )


def plant_extend_not_additive(monkeypatch):
    return _plant_tower(monkeypatch, lambda x: Matrix.identity(x.ring, x.n))


def plant_extend_not_leibniz(monkeypatch):
    # x -> ext(x) + x is additive, so only the product rule can fail
    return _plant_tower(monkeypatch, lambda x: x)


def plant_two_generator(monkeypatch):
    # Delta(x) = [d, x] + x on the generators: additive, but no derivation
    real = derivations.commutator
    monkeypatch.setattr(derivations, "commutator", lambda a, b: real(a, b) + b)
    return CampaignConfig(
        suite="two-generator", ring=Z5, n=2, trials=2, seed=16, max_len=3
    )


def plant_jordan_diag(monkeypatch):
    real = campaign.pairs_to_commutator
    monkeypatch.setattr(campaign, "check_diag_zero", lambda pairs: False)
    monkeypatch.setattr(
        campaign,
        "pairs_to_commutator",
        lambda pd: real(pd) + matrix_unit(pd.ring, pd.n, 1, 2),
    )
    return CampaignConfig(suite="jordan-diag", ring=Z9, n=3, trials=2, seed=17)


def plant_jordan_oracle(monkeypatch):
    real = campaign.gen_jordan_instance

    def planted(hidden, seed, max_degree):
        _, family = real(hidden, seed, max_degree)
        oracle = jordan_adversarial_oracle(hidden)
        return oracle, JordanWitnessFamily(oracle, family.diag)

    monkeypatch.setattr(campaign, "gen_jordan_instance", planted)
    return CampaignConfig(
        suite="jordan-theorem", ring=Z9, n=3, trials=2, seed=18, samples=2
    )


def plant_jordan_samples(monkeypatch):
    # a "symmetric" sample that is not: [abar, x] still matches the pair
    # action, but it is no longer symmetric. A SymmetricMatrix cannot hold
    # it, so the sample is the plain Matrix that the sum gives
    real = campaign.random_symmetric

    def planted(ring, n, rng, max_degree=3):
        return real(ring, n, rng, max_degree) + matrix_unit(ring, n, 1, 2)

    monkeypatch.setattr(campaign, "random_symmetric", planted)
    return CampaignConfig(
        suite="jordan-theorem", ring=Z9, n=3, trials=2, seed=19, samples=2
    )


PLANTED = [
    (
        plant_theorem1, {"action"},
        "9ef1e603f0b6f7fbb2bc480fccf2b33f143e446b11d269c0864a93d83ae67ac4",
    ),
    (
        plant_lemma_cross, {"cross-corner", "cross-corner-mirror"},
        "55d7343330ce99e58d8f284ce554ffcca7bda022653509ea660fb9c8f5bb67b0",
    ),
    (
        plant_lemma_offdiag, {"offdiag-expansion"},
        "9a7b334d70538acf303eec98e4a1825827dfcca3298c0630e89e9a2829438d1a",
    ),
    (
        plant_lemma_diagdiff, {"diag-difference"},
        "f4bc0ef1eaacc17e9cfb60dedaf1c5882b95e83c160d6d85ee945915968f6362",
    ),
    (
        plant_extend_not_additive, {"additivity", "restriction"},
        "58a3aa8f34fc168755205ecfbcf0e5c177b39d2448a87d59b3149cec982a00de",
    ),
    (
        plant_extend_not_leibniz, {"leibniz", "restriction"},
        "066ca6751929387ff9e8710de6e3cfed740b446cf463c1a136eb10e1126ce81b",
    ),
    (
        plant_two_generator, {"inner-mismatch"},
        "b12cafc4cf4c3f72938b6ad2568caf2e821e84ad7240afe12a1bd78f79a287ba",
    ),
    (
        plant_jordan_diag, {"diag-zero", "skew"},
        "e728b18bc11a9351b781901afde5d6754008a5483dcfb10a4f275654b4a4a562",
    ),
    (
        plant_jordan_oracle, {"action"},
        "eb02794366e31a34b49aa6350cc7a491bd57dd491f1baf5164b564d8ff97d0db",
    ),
    (
        plant_jordan_samples, {"closure"},
        "6257cd2d1e9f628d81134cd203292724de0a1590874d3fa8e93ac1dba36e06ed",
    ),
]

# ids from the plant's name, so a deliberate digest change renames no test
_PLANT_IDS = [plant.__name__ for plant, _, _ in PLANTED]


class TestPlantedDefects:
    """Sensitivity matrix: each suite reports a planted defect with exit 1,
    the expected kinds, and exactly these report bytes."""

    @pytest.mark.parametrize("plant,kinds,digest", PLANTED, ids=_PLANT_IDS)
    def test_defect_is_reported(self, monkeypatch, plant, kinds, digest):
        config = plant(monkeypatch)
        report = run_campaign(config)
        assert report.exit_code == 1
        assert {rec["kind"] for rec in report.failures} == kinds
        assert {rec["instance"] for rec in report.failures} == set(range(config.trials))
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize("plant", [p for p, _, _ in PLANTED], ids=_PLANT_IDS)
    def test_record_seed_replays_its_instance(self, monkeypatch, plant):
        config = plant(monkeypatch)
        report = run_campaign(config)
        check = campaign.SUITES[config.suite](config)
        for idx in range(config.trials):
            records = [rec for rec in report.failures if rec["instance"] == idx]
            replayed = [
                (v.kind, v.probe, payload_to_obj(v.lhs), payload_to_obj(v.rhs))
                for v in check(random.Random(records[0]["seed"]))
            ]
            assert replayed == [
                (rec["kind"], rec["probe"], rec["lhs"], rec["rhs"]) for rec in records
            ]


class TestFailureRecordSides:
    """A lemma record carries both values its check compared, as the
    replayed instance computes them: two witness entries, or Delta(e_{i,j})
    and its expansion."""

    def test_lemma_cross_records_the_compared_entries(self, monkeypatch):
        config = plant_lemma_cross(monkeypatch)
        report = run_campaign(config)
        assert report.failures
        for rec in report.failures:
            _, family = campaign._witness_instance(config, random.Random(rec["seed"]))
            a = family.offdiag
            # the planted probe is i=1 j=2 k=3
            if rec["kind"] == "cross-corner":
                sides = a[(1, 2)].entry(3, 1), a[(1, 3)].entry(3, 1)
            else:
                sides = a[(1, 2)].entry(2, 3), a[(3, 2)].entry(2, 3)
            assert (rec["lhs"], rec["rhs"]) == tuple(map(payload_to_obj, sides))

    def test_lemma_offdiag_records_the_expansion(self, monkeypatch):
        config = plant_lemma_offdiag(monkeypatch)
        report = run_campaign(config)
        assert report.failures
        for rec in report.failures:
            _, family = campaign._witness_instance(config, random.Random(rec["seed"]))
            lhs, rhs = offdiag_sides(family, 2, 1)
            assert lhs == family.oracle(matrix_unit(config.ring, config.n, 2, 1))
            assert (rec["lhs"], rec["rhs"]) == (payload_to_obj(lhs), payload_to_obj(rhs))
