"""The shared evaluation core: memoised results match literal recomputation,
and every command extracts each (image, extractor) once."""

import numpy as np
import pytest

from semcom.allocator import AllocationInstance, DqnConfig, dqn_train, exhaustive_oracle, greedy_allocate
from semcom.channel import ChannelConfig
from semcom.extractors import Canny, QuantizeSegmentation, SobelMagnitude
from semcom.generation import ServiceSpec, Surrogate, validate_and_adjust
from semcom.metrics import MseQuality, PsnrQuality, SsimQuality, ViQuality
from semcom.pairing import sweep_curve
from semcom.rng import stream

from _fixtures import diagonal, filled_square, gradient_with_square, random_instance, vertical_step
from _reference import reference_dqn_train, reference_quality


def noisy_instance(image_shift=0):
    services = (
        ServiceSpec(id="edges", extractor=SobelMagnitude(), metric=SsimQuality()),
        ServiceSpec(id="regions", extractor=QuantizeSegmentation(4), metric=ViQuality(4), weight=2.0),
        ServiceSpec(id="gen", extractor=SobelMagnitude(), metric=PsnrQuality(), sigma_gen=0.05),
    )
    images = (diagonal(24), filled_square(24, 8 + image_shift), gradient_with_square(24))
    return AllocationInstance(
        services=services, images=images, factors=(1, 2, 4), channel=ChannelConfig(budget_bytes=900)
    )


def test_dqn_train_matches_literal_loop_with_generation_noise():
    pool = [noisy_instance(), noisy_instance(image_shift=4)]
    cfg = DqnConfig(seed=5, warmup=8, batch_size=4, buffer_capacity=16, hidden=(16,), episodes=60)
    out = dqn_train(pool, cfg)
    rewards, losses, actions, net = reference_dqn_train(pool, cfg)
    assert np.array_equal(out.rewards, rewards)
    assert np.array_equal(out.losses, losses)
    assert np.array_equal(out.action_indices, actions)
    assert (out.rewards > -1.0).any() and (out.rewards == -1.0).any()
    for got, want in zip(out.agent.online.weights + out.agent.online.biases, net.weights + net.biases):
        assert np.array_equal(got, want)


def test_dqn_train_losses_use_the_sampled_instance_weights():
    def instance(weight, image_shift):
        services = (
            ServiceSpec(id="edges", extractor=SobelMagnitude(), metric=SsimQuality()),
            ServiceSpec(id="regions", extractor=QuantizeSegmentation(4), metric=ViQuality(4), weight=weight),
        )
        images = (diagonal(24), filled_square(24, 8 + image_shift))
        return AllocationInstance(
            services=services, images=images, factors=(1, 2, 4), channel=ChannelConfig(budget_bytes=900)
        )

    pool = [instance(1.0, 0), instance(5.0, 4)]
    cfg = DqnConfig(seed=9, warmup=8, batch_size=4, buffer_capacity=16, hidden=(16,), episodes=60)
    out = dqn_train(pool, cfg)
    rewards, losses, actions, _ = reference_dqn_train(pool, cfg)
    assert set(out.instance_indices) == {0, 1}
    assert np.array_equal(out.rewards, rewards)
    assert np.array_equal(out.action_indices, actions)
    assert np.array_equal(out.losses, losses)


def test_noisy_sweep_curve_matches_literal_factor_outer_loop():
    images = [diagonal(24), filled_square(24, 8), gradient_with_square(24)]
    factors = [1, 2, 4, 8]
    curve = sweep_curve(
        SobelMagnitude(), MseQuality(), images, factors, Surrogate(), stream(0, "gen"), sigma_gen=0.1
    )
    streams = stream(0, "gen").spawn(len(images))
    want = []
    for d in factors:
        total = 0.0
        for i, (img, sub) in enumerate(zip(images, streams)):
            svc = ServiceSpec(id=f"img{i}", extractor=SobelMagnitude(), metric=MseQuality(), sigma_gen=0.1)
            total += reference_quality(svc, img, d, sub)
        want.append(total / len(images))
    assert curve.qualities == tuple(want)


@pytest.mark.parametrize("solver", [exhaustive_oracle, greedy_allocate])
def test_solvers_agree_on_memoised_and_fresh_instances(solver):
    rng = np.random.default_rng(17)
    instances = [noisy_instance()] + [random_instance(rng) for _ in range(6)]
    for trial, inst in enumerate(instances):
        first = solver(inst, stream(trial, "gen"))
        again = solver(inst, stream(trial, "gen"))  # served from the instance's memo
        fresh = AllocationInstance(
            services=inst.services, images=inst.images, factors=inst.factors, channel=inst.channel
        )
        assert again == first == solver(fresh, stream(trial, "gen"))


def test_sweep_curve_extracts_each_image_once(extract_calls):
    images = [diagonal(24), filled_square(24, 8)]
    sweep_curve(Canny(), MseQuality(), images, [1, 2, 4, 8], Surrogate(), stream(0, "gen"))
    assert len(extract_calls) == len(set(extract_calls)) == 2


def test_validate_extracts_once_across_retries(extract_calls):
    svc = ServiceSpec(id="s", extractor=SobelMagnitude(), metric=MseQuality(), threshold=0.999)
    res = validate_and_adjust(svc, vertical_step(24), 8, [1, 2, 4, 8], Surrogate(), stream(0, "gen"))
    assert res.accepted_d < 4  # at least three factors were tried
    assert len(extract_calls) == 1
