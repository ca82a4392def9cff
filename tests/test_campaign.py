"""Campaign layer: dispatch, reports, the exit-code contract, and the
violation path through an oracle that agrees on every probe but is not a
derivation anywhere else."""

import hashlib
import json
import random

import pytest

import derivring.campaign as campaign
import derivring.derivations as derivations
import derivring.jordan as jordan
import derivring.rings as rings
import derivring.twolocal as twolocal
from derivring import (
    CampaignConfig,
    CheckReport,
    ContractError,
    DomainError,
    InnerDerivation,
    JordanPairDerivation,
    JordanWitnessFamily,
    Matrix,
    NoiseSpec,
    PolyRing,
    ReconstructionResult,
    Report,
    SkewMatrix,
    SymmetricMatrix,
    TwoLocalOracle,
    Violation,
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

    @pytest.mark.parametrize(
        "suite, field, value",
        [
            ("lemma-diagdiff", "noise", "x0-commutant"),
            ("theorem1", "ring", 9),
            ("theorem1", "ring", "zmod:9"),
            ("theorem1", "n", 3.0),
            ("theorem1", "n", True),
            ("theorem1", "trials", "2"),
            ("theorem1", "trials", False),
            ("theorem1", "seed", 7.0),
            ("extend", "max_degree", None),
            ("extend", "max_degree", 2.0),
            ("two-generator", "max_len", True),
            ("theorem1", "samples", 2.5),
        ],
    )
    def test_config_types_are_checked(self, suite, field, value):
        # before any instance, so zero trials cannot pass a value that
        # every instance would misread (a noise string never equals its
        # NoiseSpec) or fail on; an int setting refuses a bool
        config = CampaignConfig(suite=suite, ring=P5, trials=0)
        config = config._replace(**{field: value})
        with pytest.raises(DomainError, match=f"^{field} must be "):
            run_campaign(config)

    def test_every_suite_has_one_settings_row(self):
        # run_campaign checks each config against its suite's row
        assert list(campaign.SETTINGS) == list(campaign.SUITES)

    def test_zero_trials(self):
        report = run_campaign(CampaignConfig(suite="theorem1", ring=Z5, trials=0))
        assert report.instances == 0 and report.ok and report.exit_code == 0

    @pytest.mark.parametrize("ring, n", [(Z9, 4), (P5, 5)])
    def test_extend_with_the_zero_delta(self, ring, n):
        # the one delta that Z_m allows, and the zero tower over Z_m[t]
        config = CampaignConfig(suite="extend", ring=ring, n=n, trials=2, delta="zero")
        report = run_campaign(config)
        assert report.instances == 2 and report.ok

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
        names = set(CampaignConfig._fields)
        assert set(json.loads(report.to_json())["config"]) == names


class TestRecords:
    """The record types keep what they had as frozen dataclasses: keyword
    construction with defaults, read-only fields, equality and hashing by
    value, and their methods."""

    def test_config_keywords_fill_each_default(self):
        config = CampaignConfig(suite="extend", ring=P5, delta="d/dt", n=3)
        assert (config.suite, config.ring, config.n, config.delta) == (
            "extend", P5, 3, "d/dt"
        )
        assert (
            config.trials, config.seed, config.noise, config.max_degree,
            config.max_len, config.samples,
        ) == (100, 0, NoiseSpec.NONE, 3, 6, 20)
        assert CampaignConfig("extend", P5, 3, delta="d/dt") == config

    def test_config_needs_suite_and_ring(self):
        with pytest.raises(TypeError):
            CampaignConfig(suite="theorem1")

    @pytest.mark.parametrize(
        "record, field",
        [
            (CampaignConfig("theorem1", Z5), "n"),
            (Report(CampaignConfig("theorem1", Z5), 0), "failures"),
            (Violation("action", "sample 0", 0, 1), "kind"),
            (CheckReport(1), "violations"),
            (InnerDerivation(matrix_unit(Z5, 2, 1, 2)), "generator"),
            (ReconstructionResult(matrix_unit(Z5, 2, 1, 2)), "abar"),
        ],
    )
    def test_fields_are_read_only(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_equal_configs_compare_and_hash_equal(self):
        a = CampaignConfig("theorem1", PolyRing(Zmod(5)), n=3)
        b = CampaignConfig(suite="theorem1", ring=P5, n=3)
        assert a == b and hash(a) == hash(b)
        assert a != CampaignConfig("theorem1", P5, n=4)
        assert a != CampaignConfig("theorem1", P5, n=3, noise=NoiseSpec.CENTRAL_SHIFTS)

    def test_to_obj_keys_in_field_order(self):
        obj = CampaignConfig("theorem1", Z5, seed=4).to_obj()
        assert list(obj) == list(CampaignConfig._fields)
        assert obj["ring"] == {"ring": "zmod", "m": 5}
        assert obj["noise"] == "none" and obj["seed"] == 4

    def test_check_report_defaults_to_no_violations(self):
        report = CheckReport(7)
        assert report.checked == 7 and report.violations == ()
        assert report.ok
        failed = CheckReport(7, (Violation("action", "sample 0", 0, 1),))
        assert not failed.ok and failed.violations[0].probe == "sample 0"

    def test_inner_derivation_equality_follows_its_generator(self):
        a = matrix_unit(Z5, 2, 1, 2)
        same = InnerDerivation(Matrix.from_rows(Z5, [[0, 1], [0, 0]]))
        assert InnerDerivation(a) == same and hash(InnerDerivation(a)) == hash(same)
        assert InnerDerivation(a) != InnerDerivation(matrix_unit(Z5, 2, 2, 1))


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


def plant_extend_multiplier(monkeypatch):
    """An off-by-one derivative multiplier inside the closed form of the
    lift: a_k t^k goes to (k + 1) a_k t^(k-1) delta(t), which is additive
    but no derivation. The restriction check compares against the same
    planted delta, so only `leibniz` fires.

    Blind spot: dropping the s a term of the closed form leaves the
    entrywise lift, which is still a derivation and still restricts to
    delta on e_{1,1}, so this suite passes it; only `TestTowerClosedForm`
    (tests/test_derivations.py) catches that defect."""
    real = rings._derivative_terms

    def planted(scale):
        return tuple((shift, start + c, c) for shift, start, c in real(scale))

    monkeypatch.setattr(rings, "_derivative_terms", planted)
    return CampaignConfig(
        suite="extend", ring=P5, n=3, trials=2, seed=18, delta="d/dt", max_degree=2
    )


def plant_two_generator(monkeypatch):
    # Delta(x) = [d, x] + x on the generators: additive, but no derivation
    real = derivations.commutator
    monkeypatch.setattr(derivations, "commutator", lambda a, b: real(a, b) + b)
    return CampaignConfig(
        suite="two-generator", ring=Z5, n=2, trials=2, seed=16, max_len=3
    )


def plant_product_sum(monkeypatch):
    # ab + sign cd that drops its cd term, on both rings: the two sides of
    # each fused identity are now two kernels, so the campaigns see it
    def dropped(self, a, b, c, d, sign):
        return self.matmul(a, b)

    for ring_type in (Zmod, PolyRing):
        monkeypatch.setattr(ring_type, "product_sum", dropped)


def plant_product_sum_extend(monkeypatch):
    plant_product_sum(monkeypatch)
    return CampaignConfig(
        suite="extend", ring=P5, n=2, trials=2, seed=18, delta="d/dt", max_degree=2
    )


def plant_product_sum_two_generator(monkeypatch):
    # each split drops its second term, so every split of a word gives
    # Delta(first letter) * rest and they agree; the target does not
    plant_product_sum(monkeypatch)
    return CampaignConfig(
        suite="two-generator", ring=P5, n=2, trials=2, seed=16, max_len=3
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


def plant_jordan_closure(monkeypatch):
    # x -> hidden(x) + x_{1,2} e_{1,2} agrees with the pair map on every
    # e_{i,i}, so the witnesses validate, but leaves H_n(R) off the probes;
    # `closure` is checked before `action`, so it is reported as such
    real = campaign.gen_jordan_instance

    def planted(hidden, seed, max_degree):
        _, family = real(hidden, seed, max_degree)
        ring, n = hidden.ring, hidden.n
        e12 = matrix_unit(ring, n, 1, 2)
        oracle = TwoLocalOracle(ring, n, lambda x: hidden(x) + e12 * x.entry(1, 2))
        return oracle, JordanWitnessFamily(oracle, family.diag)

    monkeypatch.setattr(campaign, "gen_jordan_instance", planted)
    return CampaignConfig(
        suite="jordan-theorem", ring=Z9, n=3, trials=2, seed=19, samples=2
    )


def plant_jordan_leibniz(monkeypatch):
    # the oracle answers its first n + samples calls (the validation
    # probes and the action samples) with the pair map and adds the
    # identity after that: the witnesses validate and every action check
    # passes, so only the Leibniz check on Delta, Delta(x.y) against
    # [abar, x.y], can see it
    real = campaign.gen_jordan_instance
    samples = 2

    def planted(hidden, seed, max_degree):
        _, family = real(hidden, seed, max_degree)
        ring, n = hidden.ring, hidden.n
        calls = [0]

        def evaluate(x):
            calls[0] += 1
            if calls[0] <= n + samples:
                return hidden(x)
            return hidden(x) + Matrix.identity(ring, n)

        oracle = TwoLocalOracle(ring, n, evaluate)
        return oracle, JordanWitnessFamily(oracle, family.diag)

    monkeypatch.setattr(campaign, "gen_jordan_instance", planted)
    return CampaignConfig(
        suite="jordan-theorem", ring=Z9, n=3, trials=2, seed=20, samples=samples
    )


def plant_jordan_abar(monkeypatch):
    # abar + (e_12 - e_21) is still skew, and every witness still
    # validates, but the theorem check's right-hand sides, all from one
    # stacked `brackets` call, now disagree with Delta: `action` fires
    real = jordan.reconstruct_abar_jordan

    def planted(family):
        ring, n = family.ring, family.n
        bend = matrix_unit(ring, n, 1, 2) - matrix_unit(ring, n, 2, 1)
        return ReconstructionResult(SkewMatrix.of(real(family).abar + bend))

    monkeypatch.setattr(jordan, "reconstruct_abar_jordan", planted)
    return CampaignConfig(
        suite="jordan-theorem", ring=Z9, n=3, trials=2, seed=21, samples=2
    )


def plant_theorem1_abar(monkeypatch):
    # abar + e_12 in the theorem check alone: the campaign's recovery
    # check reconstructs through its own binding and still sees the true
    # abar, so `action` fires by itself
    real = twolocal.reconstruct_abar

    def planted(family):
        bend = matrix_unit(family.ring, family.n, 1, 2)
        return ReconstructionResult(real(family).abar + bend)

    monkeypatch.setattr(twolocal, "reconstruct_abar", planted)
    return CampaignConfig(suite="theorem1", ring=Z5, n=3, trials=3, seed=22, samples=2)


def plant_jordan_samples(monkeypatch):
    # a "symmetric" sample that is not: a plain Matrix outside H_n(R),
    # which the Jordan layer refuses (see TestJordanBoundary)
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
        plant_extend_multiplier, {"leibniz"},
        "2187fd41223d5eef7043f4d2ea754db86bb2f3eda8ed5d69f57f6ad6d3496a24",
    ),
    (
        plant_two_generator, {"inner-mismatch"},
        "b12cafc4cf4c3f72938b6ad2568caf2e821e84ad7240afe12a1bd78f79a287ba",
    ),
    (
        plant_product_sum_extend, {"leibniz"},
        "d9d7ecf2b37580cac6ffe7687c0c02f7604e6a6382a156a19e5966ce95b513b5",
    ),
    (
        plant_product_sum_two_generator, {"inner-mismatch"},
        "8d06b94554af9a625b83f0c09ce64d7fa39a27e75022d7da9abc36355e9196bb",
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
        plant_jordan_closure, {"closure"},
        "b8ae3bd8cfe16dddaac90838f21517041f7054b4b39d1ff1dabfa25dd853a207",
    ),
    (
        plant_jordan_leibniz, {"jordan-leibniz"},
        "a44c3a93275db946b7143f928ab0bc08019c791e124f5c4b2307f27a0b18a934",
    ),
    (
        plant_jordan_abar, {"action"},
        "cc3d4d348ef25bfcb138a606dfe6142dfe62d13173cea41d6b0524a71bbee51d",
    ),
    (
        plant_theorem1_abar, {"action"},
        "2940fb283210e37001283e407bee243e38fc5aeb332c59822a9ce7ed80a80aaf",
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


class TestDroppedProductSumTerm:
    """A `ring.product_sum` that drops its cd term reaches the jordan
    suites through the pair list, whose `a.(b.x) - b.(a.x)` is one fused
    difference: the tabulated oracle then disagrees with the reduced
    witnesses, and the family's validation refuses it before any sample
    is checked."""

    @pytest.mark.parametrize("ring", [Z9, P5], ids=str)
    def test_jordan_theorem_refuses_the_family(self, monkeypatch, ring):
        plant_product_sum(monkeypatch)
        config = CampaignConfig(
            suite="jordan-theorem", ring=ring, n=3, trials=2, seed=18, samples=2
        )
        with pytest.raises(ContractError, match="does not witness"):
            run_campaign(config)


class TestJordanBoundary:
    """H_n(R) is the boundary of the Jordan layer: a sample outside it is
    refused, not reported."""

    def test_non_symmetric_samples_are_refused(self, monkeypatch):
        config = plant_jordan_samples(monkeypatch)
        with pytest.raises(DomainError, match="not symmetric"):
            run_campaign(config)


def count_pair_list_calls(monkeypatch):
    """Count each evaluation of a pair list, hidden or not; the returned
    cell holds the count."""
    real = JordanPairDerivation.__call__
    calls = [0]

    def counted(pd, x):
        calls[0] += 1
        return real(pd, x)

    monkeypatch.setattr(JordanPairDerivation, "__call__", counted)
    return calls


def plant_dropped_pair_term(monkeypatch):
    """A pair list that drops its last pair's term. Every d(ii) is reduced
    from the whole re-expressed list, so validation at e_{i,i} sees it."""
    real = JordanPairDerivation.__call__
    monkeypatch.setattr(
        JordanPairDerivation,
        "__call__",
        lambda pd, x: real(pd._replace(pairs=pd.pairs[:-1]), x),
    )


class TestTabulatedOracleRule:
    """gen_jordan_instance tabulates the hidden pair list up to
    jordan._TABULATED_UP_TO = 4: an instance evaluates the pair list once
    per symmetric unit there, and once per oracle call above it: n
    validations, and two per sample, its action check and the Leibniz
    check of the pair it starts."""

    @pytest.mark.parametrize("ring", [Z9, P5], ids=str)
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pair_list_calls_per_instance(self, monkeypatch, ring, n):
        samples = 7
        calls = count_pair_list_calls(monkeypatch)
        config = CampaignConfig(
            suite="jordan-theorem", ring=ring, n=n, trials=1, seed=5, samples=samples
        )
        assert run_campaign(config).exit_code == 0
        assert calls[0] == (n * (n + 1) // 2 if n <= 4 else 2 * samples + n)

    # the pair-list oracle raised these same errors before n <= 4 took
    # the table
    @pytest.mark.parametrize(
        "n,seed,index", [(3, 0, 1), (3, 3, 2), (5, 0, 1)], ids=["n3", "n3-e22", "n5"]
    )
    def test_a_dropped_pair_term_fails_validation(self, monkeypatch, n, seed, index):
        # n = 3 takes the table, n = 5 the pair list: a defect in the pair
        # list reaches the oracle through either
        plant_dropped_pair_term(monkeypatch)
        config = CampaignConfig(
            suite="jordan-theorem", ring=Z9, n=n, trials=3, seed=seed, samples=4
        )
        i = index
        message = rf"^d\({i}{i}\) does not witness Delta at e\[{i},{i}\]$"
        with pytest.raises(ContractError, match=message):
            run_campaign(config)


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
