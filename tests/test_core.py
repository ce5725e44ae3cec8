"""The shared evaluation core: memoised results match literal recomputation,
each core extracts its image once, and a noisy
reconstruction is kept only once its factor is asked for again."""

from collections import Counter

import numpy as np
import pytest

from semcom.allocator import AllocationInstance, DqnConfig, dqn_train, exhaustive_oracle, greedy_allocate
from semcom.channel import ChannelConfig
from semcom.extractors import Canny, QuantizeSegmentation, SobelMagnitude
from semcom.errors import ValidationFailedError
from semcom.generation import QualityCore, ServiceSpec, Surrogate, validate_and_adjust
from semcom.metrics import MseQuality, SsimQuality, ViQuality
from semcom.pairing import sweep_curve
from semcom.rng import stream

from _fixtures import diagonal, filled_square, gradient_with_square, noisy_instance, random_instance, vertical_step
from _reference import reference_dqn_train, reference_quality


# The CLI trains on a pool of one.  Warmup 0 updates from the first episode,
# and warmup 60 makes one update, at the last of the 60 episodes.
@pytest.mark.parametrize("pool_size", [1, 2])
@pytest.mark.parametrize("warmup", [0, 8, 60])
def test_dqn_train_matches_literal_loop_with_generation_noise(pool_size, warmup):
    pool = [noisy_instance(), noisy_instance(image_shift=4)][:pool_size]
    cfg = DqnConfig(seed=5, warmup=warmup, batch_size=4, hidden=(16,), episodes=60)
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
    cfg = DqnConfig(seed=9, warmup=8, batch_size=4, hidden=(16,), episodes=60)
    out = dqn_train(pool, cfg)
    rewards, losses, actions, _ = reference_dqn_train(pool, cfg)
    assert set(out.instance_indices) == {0, 1}
    assert np.array_equal(out.rewards, rewards)
    assert np.array_equal(out.action_indices, actions)
    assert np.array_equal(out.losses, losses)


def test_sweep_curve_matches_literal_factor_outer_loop():
    images = [diagonal(24), filled_square(24, 8), gradient_with_square(24)]
    factors = [1, 2, 4, 8]
    curve = sweep_curve(SobelMagnitude(), MseQuality(), images, factors, Surrogate())
    want = []
    for d in factors:
        total = 0.0
        for i, img in enumerate(images):
            svc = ServiceSpec(id=f"img{i}", extractor=SobelMagnitude(), metric=MseQuality(), sigma_gen=0.0)
            total += reference_quality(svc, img, d, None)
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
    sweep_curve(Canny(), MseQuality(), images, [1, 2, 4, 8], Surrogate())
    assert len(extract_calls) == len(set(extract_calls)) == 2


def test_validate_extracts_once_across_retries(extract_calls):
    svc = ServiceSpec(id="s", extractor=SobelMagnitude(), metric=MseQuality(), threshold=0.999)
    res = validate_and_adjust(svc, vertical_step(24), 8, [1, 2, 4, 8], Surrogate(), stream(0, "gen"))
    assert res.accepted_d < 4  # at least three factors were tried
    assert len(extract_calls) == 1


@pytest.fixture
def encode_calls(monkeypatch):
    """Count the evaluator's encodes per (semantic map, factor)."""
    import semcom.generation

    calls = Counter()
    maps = []  # kept alive, so that no two counted maps share an id
    original = semcom.generation.encode

    def counted(smap, d):
        maps.append(smap)
        calls[id(smap), d] += 1
        return original(smap, d)

    monkeypatch.setattr(semcom.generation, "encode", counted)
    return calls


@pytest.fixture
def decode_calls(monkeypatch):
    """Count the evaluator's decodes per payload: each one builds a reconstruction."""
    import semcom.generation

    calls = Counter()
    payloads = []  # kept alive, so that no two counted payloads share an id
    original = semcom.generation.decode

    def counted(payload):
        payloads.append(payload)
        calls[id(payload)] += 1
        return original(payload)

    monkeypatch.setattr(semcom.generation, "decode", counted)
    return calls


def noisy_service(threshold=0.0):
    return ServiceSpec(id="n", extractor=SobelMagnitude(), metric=MseQuality(), threshold=threshold, sigma_gen=0.1)


def test_a_noisy_core_keeps_a_reconstruction_from_the_second_request(encode_calls, decode_calls):
    core = QualityCore(noisy_service(), diagonal(24))
    rng = stream(0, "gen")
    for _ in range(3):
        core.quality(4, rng)
    # each factor is encoded once; the factor-4 payload is decoded on the first two requests
    assert encode_calls == Counter({(id(core.semantic), 1): 1, (id(core.semantic), 4): 1})
    assert decode_calls == Counter({id(core.payload(1)): 1, id(core.payload(4)): 2})
    core.quality(4, rng)
    assert decode_calls[id(core.payload(4))] == 2
    assert encode_calls[id(core.semantic), 4] == 1


def test_a_noise_free_core_keeps_its_score(encode_calls):
    core = QualityCore(ServiceSpec(id="c", extractor=SobelMagnitude(), metric=MseQuality()), diagonal(24))
    first = core.quality(4, stream(0, "gen"))
    assert [core.quality(4, stream(1, "gen")) for _ in range(2)] == [first, first]
    assert encode_calls == Counter({(id(core.semantic), 1): 1, (id(core.semantic), 4): 1})


def test_validate_encodes_each_tried_factor_once(encode_calls):
    factors = [1, 2, 4, 8]
    with pytest.raises(ValidationFailedError):  # no noisy score reaches 1, so every factor is tried
        validate_and_adjust(noisy_service(threshold=1.0), vertical_step(24), 8, factors, Surrogate(), stream(0, "gen"))
    assert sorted(d for _, d in encode_calls) == factors
    assert set(encode_calls.values()) == {1}


def test_dqn_training_encodes_each_service_and_factor_once_and_decodes_it_at_most_twice(encode_calls, decode_calls):
    inst = noisy_instance()
    out = dqn_train([inst], DqnConfig(seed=5, warmup=8, batch_size=4, hidden=(16,), episodes=60))
    assert len(set(out.action_indices)) > inst.n_services  # many joint actions were scored
    assert len(encode_calls) == len(decode_calls) == inst.n_services * len(inst.factors)
    assert set(encode_calls.values()) == {1}
    # only the noisy service's reconstructions are built twice: unkept on the first request
    assert max(decode_calls.values()) == 2
