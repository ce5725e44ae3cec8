"""Acceptance suite: one test per release criterion, each at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import math
import os
from itertools import product

import numpy as np

from semcom.allocator import (
    AllocationInstance,
    DqnConfig,
    action_rewards,
    dqn_act,
    dqn_train,
    evaluate_action,
    exhaustive_oracle,
    greedy_allocate,
)
from semcom.channel import ChannelConfig
from semcom.cli import main
from semcom.errors import ValidationFailedError
from semcom.extractors import Canny, QuantizeSegmentation, SobelMagnitude
from semcom.generation import (
    ExternalPairs,
    ServiceSpec,
    Surrogate,
    min_representation_search,
    validate_and_adjust,
)
from semcom.image import LABELS, SemanticMap, write_pgm
from semcom.metrics import (
    MseQuality,
    PsnrQuality,
    SsimQuality,
    ViQuality,
    metric_label,
    mse_quality,
    psnr_quality,
    score,
    ssim_quality,
    vi_quality,
)
from semcom.pairing import fit_predictability, select_pair, sweep_candidates, sweep_curve
from semcom.codec import encode
from semcom.qnet import Mlp, td_loss_and_gradients
from semcom.rng import stream

from _fixtures import (
    EXTRACTOR_CHOICES,
    METRIC_CHOICES,
    diagonal,
    filled_square,
    gradient,
    gradient_with_square,
    horizontal_step,
    random_instance,
    synthetic_image,
    vertical_step,
)
from _reference import (
    finite_difference_gradients,
    gradient_relative_error,
    reference_mse_quality,
    reference_psnr_quality,
    reference_ssim_quality,
    reference_vi_quality,
)


def _report(number, name):
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_compression_law():
    rng = np.random.default_rng(0)
    m = SemanticMap(rng.random((512, 512)))
    full = encode(m, 1)
    quarter = encode(m, 4)
    assert len(full.payload) == 262144
    assert len(quarter.payload) == 16384
    assert len(full.payload) == 16 * len(quarter.payload)
    _report(1, "compression-law")


def test_criterion_02_metric_normalization():
    rng = np.random.default_rng(1)
    kinds = [MseQuality(), PsnrQuality(), SsimQuality(), ViQuality(8)]
    shapes = [(16, 16), (9, 12), (8, 8), (11, 20)]
    for kind in kinds:
        for trial in range(200):
            h, w = shapes[trial % len(shapes)]
            a = SemanticMap(rng.random((h, w)))
            b = SemanticMap(rng.random((h, w)))
            q = score(kind, a, b)
            assert 0.0 <= q <= 1.0, (metric_label(kind), q)
            assert score(kind, a, SemanticMap(a.pixels.copy())) == 1.0
    _report(2, "metric-normalization")


def test_criterion_03_metric_oracles():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = SemanticMap(rng.random((16, 16)))
        b = SemanticMap(rng.random((16, 16)))
        assert abs(mse_quality(a, b) - reference_mse_quality(a.pixels, b.pixels)) < 1e-9
        assert abs(psnr_quality(a, b) - reference_psnr_quality(a.pixels, b.pixels)) < 1e-9
        assert abs(ssim_quality(a, b) - reference_ssim_quality(a.pixels, b.pixels)) < 1e-9
        assert abs(vi_quality(a, b, 8) - reference_vi_quality(a.pixels, b.pixels, 8)) < 1e-9

    zero = SemanticMap(np.zeros((8, 8)))
    half = SemanticMap(np.full((8, 8), 0.5))
    one = SemanticMap(np.ones((8, 8)))
    assert abs(mse_quality(zero, half) - 0.75) < 1e-6
    assert abs(psnr_quality(zero, half) * 50.0 - 6.020599913279624) < 1e-6
    assert abs(psnr_quality(zero, half) - 10.0 * math.log10(4.0) / 50.0) < 1e-12
    assert abs(ssim_quality(zero, one) - 9.999e-5) < 1e-6
    bins = np.random.default_rng(3).integers(0, 4, size=(12, 12))
    perm = np.array([3, 2, 0, 1])
    labela = SemanticMap(bins / 3.0, kind=LABELS, levels=4)
    labelb = SemanticMap(perm[bins] / 3.0, kind=LABELS, levels=4)
    assert abs(vi_quality(labela, labelb, 4) - 1.0) < 1e-6
    _report(3, "metric-oracles")


def monotonicity_corpus():
    return [
        vertical_step(24),
        horizontal_step(24),
        diagonal(24),
        vertical_step(24, at=7),
        filled_square(24, 6),
        filled_square(24, 10),
        filled_square(24, 14),
        gradient(24, True),
        gradient(24, False),
        gradient_with_square(24),
    ]


def test_criterion_04_degradation_monotonicity():
    corpus = monotonicity_corpus()
    assert len(corpus) == 10
    factors = (1, 2, 4, 8, 10)
    for extractor, metric in [(Canny(), MseQuality()), (SobelMagnitude(), SsimQuality())]:
        curve = sweep_curve(extractor, metric, corpus, factors, Surrogate(), stream(4, "gen"))
        report = fit_predictability(curve)
        assert report.spearman <= -0.8, (metric_label(metric), curve.qualities)
    _report(4, "degradation-monotonicity")


def linear_pair_backend(tmp_path):
    """External pairs whose mse curve is exactly q(d) = 1 - (d-1)/32.

    16x16 binary maps: the factor-d reconstruction differs from the
    reference in exactly 8(d-1) of the 256 pixels, so q(d) is an exact
    dyadic float and the least-squares fit has zero residual.
    """
    ref = np.zeros((16, 16))
    ref[8:, :] = 1.0
    cells = [(y, x) for y in range(16) for x in range(16)]
    for d in (1, 2, 4, 8):
        rec = ref.copy()
        for y, x in cells[: 8 * (d - 1)]:
            rec[y, x] = 1.0 - rec[y, x]
        write_pgm(SemanticMap(rec), tmp_path / f"lin_d{d}.pgm")
    return ExternalPairs(str(tmp_path)), SemanticMap(ref)


def test_criterion_05_pairing_selection(tmp_path):
    backend, ref = linear_pair_backend(tmp_path)
    images = [ref]
    ids = ["lin"]
    factors = [1, 2, 4, 8]
    extractors = [Canny(), SobelMagnitude()]
    metrics = [MseQuality(), ViQuality(2)]
    expected = (Canny(), MseQuality())

    # the four service archetypes: free, metric fixed, extractor fixed, both fixed
    archetypes = [
        (extractors, metrics),
        (extractors, [MseQuality()]),
        ([Canny()], metrics),
        ([expected[0]], [expected[1]]),
    ]
    for archetype in archetypes:
        winner = select_pair(*archetype, images, factors, backend, stream(5, "gen"), image_ids=ids)
        assert (winner.extractor, winner.metric) == expected, archetype
        assert winner.r_squared == 1.0
        assert winner.slope == -1.0 / 32.0
    curves = sweep_candidates(
        list(product(extractors, metrics)),
        images,
        factors,
        backend,
        stream(5, "gen"),
        image_ids=ids,
    )
    reports = [fit_predictability(c) for c in curves]
    assert winner.r_squared == max(r.r_squared for r in reports)
    _report(5, "pairing-selection")


def test_criterion_06_gradient_check():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(3, 5)))]
        net = Mlp(sizes, rng)
        batch = int(rng.integers(2, 6))
        states = rng.normal(size=(batch, sizes[0]))
        actions = rng.integers(0, sizes[-1], size=batch)
        targets = rng.normal(size=batch)
        _, dw, db = td_loss_and_gradients(net, states, actions, targets)
        fdw, fdb = finite_difference_gradients(net, states, actions, targets, h=1e-5)
        for a, b in zip(dw + db, fdw + fdb):
            assert gradient_relative_error(a, b) < 1e-4
    _report(6, "gradient-check")


def test_criterion_07_allocation_oracle_dominance():
    rng = np.random.default_rng(7)
    diffs = []
    for trial in range(50):
        inst = random_instance(rng, max_services=3, max_factors=4)
        oracle = exhaustive_oracle(inst, stream(trial, "gen"))
        greedy = greedy_allocate(inst, stream(trial, "gen"))
        assert oracle.reward >= greedy.reward - 1e-12
        random_mean = float(action_rewards(inst, stream(trial, "gen")).mean())
        diffs.append(greedy.reward - random_mean)
    diffs = np.array(diffs)
    t_stat = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(len(diffs)))
    assert t_stat > 1.676, (diffs.mean(), t_stat)  # one-sided 95%, 49 dof
    _report(7, "allocation-oracle-dominance")


def dqn_pool():
    services = (
        ServiceSpec(id="grad", extractor=SobelMagnitude(), metric=MseQuality()),
        ServiceSpec(id="regions", extractor=QuantizeSegmentation(4), metric=ViQuality(4)),
        ServiceSpec(id="edges", extractor=Canny(), metric=MseQuality()),
        ServiceSpec(id="texture", extractor=SobelMagnitude(), metric=SsimQuality()),
    )
    images = (gradient(24), filled_square(24, 8), diagonal(24), gradient_with_square(24))
    factors = (1, 2, 4, 8, 10)
    return [
        AllocationInstance(
            services=services, images=images, factors=factors, channel=ChannelConfig(budget_bytes=b)
        )
        for b in (1500, 1800)
    ]


def test_criterion_08_dqn_convergence():
    pool = dqn_pool()
    assert pool[0].n_actions == 625
    oracles = [exhaustive_oracle(inst, stream(8, "gen")) for inst in pool]
    config = DqnConfig(seed=0, learning_rate=0.02, episodes=500)
    out = dqn_train(pool, config)

    tail_rewards = out.rewards[-50:]
    tail_oracle = np.array([oracles[i].reward for i in out.instance_indices[-50:]])
    assert tail_oracle.mean() - tail_rewards.mean() <= 0.05, tail_rewards.mean()

    for inst, oracle in zip(pool, oracles):
        greedy_action = dqn_act(out.agent, inst.state_vector)
        reward = evaluate_action(inst, greedy_action, stream(9, "gen")).reward
        assert reward >= oracle.reward - 0.05

    assert out.rewards[-100:].var() < out.rewards[:100].var()
    _report(8, "dqn-convergence")


def _write_determinism_config(tmp_path):
    images_dir = tmp_path / "img"
    images_dir.mkdir()
    write_pgm(diagonal(24), images_dir / "diag.pgm")
    write_pgm(filled_square(24, 8), images_dir / "square.pgm")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"""
[services]
edges.extractor = canny
edges.metric = mse
edges.image = {images_dir / 'diag.pgm'}
edges.sigma_gen = 0.05
regions.extractor = quantize(k=4)
regions.metric = vi(k=4)
regions.image = {images_dir / 'square.pgm'}

[channel]
budget_bytes = 2000
bit_flip_prob = 0.01
seed = 41

[factors]
d = 1,2,4,8

[dqn]
episodes = 60
warmup = 16
batch = 8

[output]
dir = {tmp_path / 'out'}
"""
    )
    return cfg, tmp_path / "out"


def test_criterion_09_end_to_end_determinism(tmp_path):
    cfg, out = _write_determinism_config(tmp_path)

    def artifact_bytes():
        return {
            name: (out / name).read_bytes()
            for name in sorted(os.listdir(out))
            if name.endswith(".csv") or name.endswith(".bin")
        }

    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert main(["allocate", "--config", str(cfg), "--solver", "dqn"]) == 0
    assert main(["allocate", "--config", str(cfg), "--solver", "exhaustive"]) == 0
    first = artifact_bytes()
    assert any(name.endswith("_payload.bin") for name in first)

    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert main(["allocate", "--config", str(cfg), "--solver", "dqn"]) == 0
    assert main(["allocate", "--config", str(cfg), "--solver", "exhaustive"]) == 0
    second = artifact_bytes()

    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], name
    _report(9, "end-to-end-determinism")


def test_criterion_10_validation_loop_contract():
    rng = np.random.default_rng(10)
    factors = [1, 2, 4, 8]
    for trial in range(100):
        svc = ServiceSpec(
            id=f"fx{trial}",
            extractor=EXTRACTOR_CHOICES[int(rng.integers(len(EXTRACTOR_CHOICES)))],
            metric=METRIC_CHOICES[int(rng.integers(len(METRIC_CHOICES)))],
            threshold=float(rng.random()),
            sigma_gen=float(rng.choice([0.0, 0.1])),
        )
        image = synthetic_image(rng, size=16)
        try:
            result = validate_and_adjust(svc, image, 8, factors, Surrogate(), stream(trial, "gen"))
            assert result.quality >= svc.threshold
            assert result.accepted_d in factors
        except ValidationFailedError as exc:
            assert exc.quality < svc.threshold

        relaxed = ServiceSpec(
            id=svc.id, extractor=svc.extractor, metric=svc.metric, threshold=0.0, sigma_gen=svc.sigma_gen
        )
        assert min_representation_search(relaxed, image, factors, Surrogate(), stream(trial, "gen")) == 8
    _report(10, "validation-loop-contract")
