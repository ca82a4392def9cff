"""Acceptance suite: every criterion from the build contract, exercised
at its stated scale with exact equality throughout. Each test prints one
PASS line on success; the terminal summary lists every criterion."""

import random
import time

from derivring import (
    BaseDerivation,
    CampaignConfig,
    JordanPairDerivation,
    NoiseSpec,
    PolyRing,
    Zmod,
    check_diag_zero,
    commutator,
    extend_m2,
    extend_tower,
    leibniz_check,
    matrix_unit,
    pairs_to_commutator,
    run_campaign,
)
from derivring.sampling import (
    random_element,
    random_matrix,
    random_pairs,
    random_symmetric,
)
from derivring.serialize import matrix_from_json, matrix_to_json

Z5 = Zmod(5)
Z9 = Zmod(9)
P5 = PolyRing(Z5)

RINGS = [Z5, Z9, P5]
NOISES = [NoiseSpec.NONE, NoiseSpec.CENTRAL_SHIFTS, NoiseSpec.X0_COMMUTANT_SHIFT_ON_C]


def test_c1_theorem1_reconstruction():
    # 2-local inner derivations on M_n(R) are inner: reconstruction
    # recovers the hidden element up to center and reproduces the action,
    # for every dimension/ring/noise cell, 200 seeded instances each.
    start = time.perf_counter()
    for n in (2, 3, 4):
        for ring_idx, ring in enumerate(RINGS):
            for noise_idx, noise in enumerate(NOISES):
                config = CampaignConfig(
                    suite="theorem1",
                    ring=ring,
                    n=n,
                    trials=200,
                    seed=20_000 + 100 * n + 10 * ring_idx + noise_idx,
                    noise=noise,
                    max_degree=3,
                    samples=10,
                )
                report = run_campaign(config)
                assert report.ok, (
                    f"n={n} ring={ring} noise={noise.value}: {report.failures[:1]}"
                )
                assert report.instances == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s, budget is 60s"
    print(
        f"PASS criterion 1: theorem1 reconstruction, 27 cells x 200 instances, "
        f"exact, {elapsed:.1f}s"
    )


def test_c2_lemma_suite():
    # the three supporting identities, 500 seeded instances each at n=4
    # over Z_9 with the noise each one tolerates
    cells = [
        ("lemma-cross", NoiseSpec.CENTRAL_SHIFTS),
        ("lemma-offdiag", NoiseSpec.CENTRAL_SHIFTS),
        ("lemma-diagdiff", NoiseSpec.X0_COMMUTANT_SHIFT_ON_C),
    ]
    for suite, noise in cells:
        config = CampaignConfig(
            suite=suite, ring=Z9, n=4, trials=500, seed=31, noise=noise
        )
        report = run_campaign(config)
        assert report.ok, f"{suite}: {report.failures[:1]}"
        assert report.instances == 500
    print("PASS criterion 2: lemma suite (cross/offdiag/diagdiff), 500 x n=4 Z9, exact")


def test_c3_extension():
    # the 2x2 block extension and the doubling tower are derivations and
    # restrict to the base derivation on the (1,1) slot
    deltas = {
        "zero": BaseDerivation.zero(P5),
        "d/dt": BaseDerivation.formal(P5),
        "t*d/dt": BaseDerivation.scaled(P5.t),
    }
    rng = random.Random(300)
    for name, delta in deltas.items():
        block = extend_m2(delta)
        pairs = [
            (random_matrix(P5, 2, rng), random_matrix(P5, 2, rng)) for _ in range(1000)
        ]
        report = leibniz_check(block, pairs)
        assert report.ok and report.checked == 1000, f"extend_m2 {name}"
    for n in (2, 3, 4, 5):
        for name, delta in deltas.items():
            tower = extend_tower(delta, n)
            pairs = [
                (random_matrix(P5, n, rng), random_matrix(P5, n, rng))
                for _ in range(1000)
            ]
            report = leibniz_check(tower, pairs)
            assert report.ok and report.checked == 1000, f"tower n={n} {name}"
            unit = matrix_unit(P5, n, 1, 1)
            for _ in range(200):
                lam = random_element(P5, rng)
                assert tower(unit * lam) == unit * delta(lam), f"restriction n={n}"
    print(
        "PASS criterion 3: extension block + tower, Leibniz on 1000 pairs and "
        "restriction on 200 scalars per cell, exact"
    )


def test_c4_two_generators():
    # Delta fixed by [d, .] on two generators propagates to every word as
    # [d, word], with all Leibniz splits agreeing
    config = CampaignConfig(
        suite="two-generator", ring=Z5, n=2, trials=100, seed=41, max_len=6
    )
    report = run_campaign(config)
    assert report.ok, report.failures[:1]
    assert report.instances == 100
    print("PASS criterion 4: two-generator propagation, 100 triples, words <= 6, exact")


def test_c5_jordan_reduction():
    # the pair-list action on H_4(Z_9) equals the commutator action of the
    # reduced generator, and summed commutators of symmetric pairs have
    # zero diagonal
    rng = random.Random(51)
    for _ in range(1000):
        pd = JordanPairDerivation(Z9, 4, random_pairs(Z9, 4, rng, rng.randint(1, 3)))
        s = pairs_to_commutator(pd)
        x = random_symmetric(Z9, 4, rng)
        out = pd(x)
        assert out == commutator(s, x)
        assert out.is_symmetric()
    for _ in range(500):
        pd = JordanPairDerivation(Z9, 4, random_pairs(Z9, 4, rng, rng.randint(1, 4)))
        assert check_diag_zero(pd)
    print(
        "PASS criterion 5: pair-list action == reduced commutator action on 1000 "
        "draws, zero diagonal on 500 pair lists, exact"
    )


def test_c6_jordan_theorem():
    # 2-local inner derivations on H_n(R) are derivations: the
    # reconstructed skew element implements the action and satisfies the
    # Jordan Leibniz rule, 50 samples per instance and 50 pairs of
    # consecutive samples (the last pairs with the first)
    start = time.perf_counter()
    for n in (2, 3):
        for ring in (Z5, Z9):
            config = CampaignConfig(
                suite="jordan-theorem",
                ring=ring,
                n=n,
                trials=200,
                seed=60 + n,
                samples=50,
            )
            report = run_campaign(config)
            assert report.ok, f"n={n} ring={ring}: {report.failures[:1]}"
            assert report.instances == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s, budget is 60s"
    print(
        f"PASS criterion 6: jordan theorem, 4 cells x 200 instances, 50+50 "
        f"checks each, exact, {elapsed:.1f}s"
    )


def test_c7_determinism_and_io():
    # identical configs give byte-identical reports; matrix JSON
    # round-trips bit-exactly
    config = CampaignConfig(
        suite="theorem1",
        ring=Z9,
        n=3,
        trials=20,
        seed=71,
        noise=NoiseSpec.CENTRAL_SHIFTS,
        samples=5,
    )
    first = run_campaign(config).to_json()
    second = run_campaign(config).to_json()
    assert first == second
    rngs = [Z5, Z9, P5, PolyRing(Z9)]
    rng = random.Random(72)
    for _ in range(1000):
        ring = rngs[rng.randrange(len(rngs))]
        mat = random_matrix(ring, rng.randint(1, 4), rng)
        text = matrix_to_json(mat)
        again = matrix_from_json(text)
        assert again == mat
        assert matrix_to_json(again) == text
    print(
        "PASS criterion 7: byte-identical reports under a fixed config, 1000 "
        "bit-exact matrix JSON round-trips"
    )
