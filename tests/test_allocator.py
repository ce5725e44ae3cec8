import dataclasses
import re

import numpy as np
import pytest

import semcom.allocator
from semcom.allocator import (
    EPISODE_GUARD,
    AllocationInstance,
    DqnAgent,
    DqnConfig,
    action_rewards,
    decode_action,
    dqn_act,
    dqn_train,
    encode_action,
    epsilon_schedule,
    evaluate_action,
    exhaustive_oracle,
    greedy_allocate,
    quality_table,
    random_allocate,
    weighted_quality,
)
from semcom.channel import ChannelConfig
from semcom.codec import encoded_cost
from semcom.errors import DomainError, ShapeError, TooLargeError
from semcom.extractors import QuantizeSegmentation, SobelMagnitude
from semcom.generation import ExternalPairs, ServiceSpec, reconstruct_and_score
from semcom.image import SemanticMap, write_pgm
from semcom.metrics import MseQuality, SsimQuality, ViQuality
from semcom.qnet import Mlp
from semcom.rng import stream

from _fixtures import diagonal, filled_square, gradient, noisy_instance, random_instance
from _reference import reference_action_rewards


def two_service_instance(budget=10**6, factors=(1, 2, 4, 8), weights=(1.0, 1.0)):
    services = (
        ServiceSpec(id="edges", extractor=SobelMagnitude(), metric=SsimQuality(), weight=weights[0]),
        ServiceSpec(id="regions", extractor=QuantizeSegmentation(4), metric=ViQuality(4), weight=weights[1]),
    )
    images = (diagonal(24), filled_square(24, 8))
    return AllocationInstance(
        services=services, images=images, factors=factors, channel=ChannelConfig(budget_bytes=budget)
    )


def test_action_codec_hand_example():
    # S=2, D={1,2,4}: index 3 = digits (1,0) = factors (2,1)
    assert decode_action(3, (1, 2, 4), 2) == (2, 1)
    assert encode_action((2, 1), (1, 2, 4)) == 3


def test_action_codec_bijection():
    factors = (1, 2, 4)
    for index in range(27):
        action = decode_action(index, factors, 3)
        assert encode_action(action, factors) == index


def test_action_codec_bounds():
    with pytest.raises(DomainError):
        decode_action(9, (1, 2, 4), 1)
    with pytest.raises(DomainError):
        encode_action((3,), (1, 2, 4))


def test_weighted_quality_anchor():
    assert weighted_quality([1.0, 3.0], [1.0, 0.5]) == 0.625


def test_instance_guard():
    svc = ServiceSpec(id="s", extractor=SobelMagnitude(), metric=MseQuality())
    img = gradient(16)
    with pytest.raises(TooLargeError):
        AllocationInstance(
            services=(svc,) * 7,
            images=(img,) * 7,
            factors=(1, 2, 4, 8, 10),  # 5^7 > 4096
            channel=ChannelConfig(budget_bytes=10**6),
        )
    with pytest.raises(DomainError):
        AllocationInstance(
            services=(svc,), images=(img, img), factors=(1, 2), channel=ChannelConfig(budget_bytes=1)
        )


def test_an_instance_whose_weights_sum_to_infinity_is_a_domain_error():
    with pytest.raises(DomainError, match="sum of the service weights must be finite"):
        two_service_instance(weights=(1e308, 1e308))
    assert two_service_instance(weights=(1e308, 1.0)).weights.sum() == 1e308


def test_evaluate_all_ones_ample_budget():
    inst = two_service_instance()
    out = evaluate_action(inst, (1, 1), stream(0, "gen"))
    assert out.reward == 1.0
    assert out.feasible
    assert all(q == 1.0 for q in out.qualities)


def test_evaluate_zero_budget_penalty_with_reports():
    inst = two_service_instance(budget=0)
    out = evaluate_action(inst, (2, 2), stream(0, "gen"))
    assert out.reward == -1.0
    assert not out.feasible
    assert len(out.qualities) == 2
    assert all(q >= 0.0 for q in out.qualities)
    assert out.total_bytes == sum(inst.action_costs((2, 2)))


@pytest.mark.parametrize(
    "services, factors, message",
    [
        (0, (1, 2), "need at least one service"),
        (1, (0, 1), "factors must be positive integers, got (0, 1)"),
        (1, (2, 1), "factors must be strictly increasing, got (2, 1)"),
        (1, (1, 1), "factors must be strictly increasing, got (1, 1)"),
    ],
    ids=["no-services", "factor-0", "decreasing", "repeated"],
)
def test_an_instance_without_services_or_with_bad_factors_is_a_domain_error(services, factors, message):
    spec = ServiceSpec(id="a", extractor=SobelMagnitude(), metric=MseQuality())
    with pytest.raises(DomainError, match=re.escape(message)):
        AllocationInstance(
            services=(spec,) * services, images=(diagonal(8),) * services, factors=factors, channel=ChannelConfig(10**6)
        )


def test_dqn_train_rejects_an_empty_pool():
    with pytest.raises(DomainError, match="instance pool must be non-empty"):
        dqn_train([], DqnConfig())


def test_evaluate_rejects_inadmissible_action():
    inst = two_service_instance()
    with pytest.raises(DomainError):
        evaluate_action(inst, (1, 3), stream(0, "gen"))
    with pytest.raises(DomainError):
        evaluate_action(inst, (1,), stream(0, "gen"))


def test_cost_table_matches_codec():
    inst = two_service_instance()
    for s, img in enumerate(inst.images):
        for j, d in enumerate(inst.factors):
            assert inst.cost_table[s, j] == encoded_cost(img.width, img.height, d)


def test_state_vector_shape_and_range():
    inst = two_service_instance(budget=100)
    state = inst.state_vector
    assert state.shape == (3 * 2 + 1,)
    assert np.all(state >= 0.0) and np.all(state <= 1.0)


def test_oracle_single_service_lossless_dominates():
    svc = ServiceSpec(id="s", extractor=SobelMagnitude(), metric=MseQuality())
    inst = AllocationInstance(
        services=(svc,), images=(diagonal(16),), factors=(1, 2), channel=ChannelConfig(budget_bytes=10**6)
    )
    res = exhaustive_oracle(inst, stream(1, "gen"))
    assert res.action == (1,)
    assert res.reward == 1.0


def test_oracle_respects_budget():
    svc = ServiceSpec(id="s", extractor=SobelMagnitude(), metric=MseQuality())
    img = diagonal(16)
    only_d2 = encoded_cost(16, 16, 2)
    inst = AllocationInstance(
        services=(svc,), images=(img,), factors=(1, 2), channel=ChannelConfig(budget_bytes=only_d2)
    )
    res = exhaustive_oracle(inst, stream(1, "gen"))
    assert res.action == (2,)


def test_oracle_dominates_every_enumerated_action():
    inst = two_service_instance(factors=(1, 2, 4))
    rewards = action_rewards(inst, stream(2, "gen"))
    res = exhaustive_oracle(inst, stream(2, "gen"))
    assert res.reward >= rewards.max() - 1e-15
    assert res.reward == rewards[encode_action(res.action, inst.factors)]


def test_action_rewards_equal_the_per_action_loop():
    for seed in range(20):
        inst = random_instance(np.random.default_rng(seed))
        table = quality_table(inst, stream(seed, "gen"))
        rewards = action_rewards(inst, stream(seed, "gen"))
        assert np.array_equal(rewards, reference_action_rewards(inst, table))


def crafted_instance(weights, factors, budget):
    services = tuple(
        ServiceSpec(id=f"s{i}", extractor=SobelMagnitude(), metric=MseQuality(), weight=w) for i, w in enumerate(weights)
    )
    images = tuple(gradient(8) for _ in weights)
    return AllocationInstance(
        services=services, images=images, factors=factors, channel=ChannelConfig(budget_bytes=budget)
    )


@pytest.mark.parametrize(
    "weights, factors, budget, tied",
    [
        ((1.0, 1.0, 1.0), (1, 2, 4), 10**6, True),  # equal weights and rows: permuted actions tie
        ((0.7, 1.3, 2.9), (1, 2, 4), 2 * encoded_cost(8, 8, 2) + encoded_cost(8, 8, 1), False),
        ((0.3, 1.7, 0.9, 2.2, 1.1, 0.5, 1.9, 0.8, 1.4, 0.6), (2, 4), 10**6, False),  # ten terms per sum
    ],
)
def test_action_rewards_equal_the_loop_on_crafted_tables(monkeypatch, weights, factors, budget, tied):
    inst = crafted_instance(weights, factors, budget)
    table = np.random.default_rng(len(weights)).random((len(weights), len(factors)))
    if tied:
        table[:] = table[0]
    table[-1] = 0.0  # a service that scores zero at every factor
    monkeypatch.setattr("semcom.allocator.quality_table", lambda *args: table)
    rewards = action_rewards(inst, stream(0, "gen"))
    expected = reference_action_rewards(inst, table)
    assert np.array_equal(rewards, expected)
    assert len(set(expected.tolist())) < len(expected)


def external_pairs_instance(tmp_path, budget):
    """Two services whose generated pairs are files: the reconstruction loses more pixels as d grows."""
    factors = (1, 2, 4)
    services = (
        ServiceSpec(id="a", extractor=SobelMagnitude(), metric=MseQuality(), weight=1.0),
        ServiceSpec(id="b", extractor=QuantizeSegmentation(4), metric=SsimQuality(), weight=3.0),
    )
    rng = np.random.default_rng(8)
    for step, svc in enumerate(services, start=2):
        ref = rng.random((12, 12))
        for d in factors:
            rec = ref.copy()
            rec[: step * (d - 1)] = 0.0
            write_pgm(SemanticMap(rec), tmp_path / f"{svc.id}_d{d}.pgm")
    backend = ExternalPairs(str(tmp_path))
    inst = AllocationInstance(
        services=services,
        images=(gradient(12), diagonal(12)),
        factors=factors,
        channel=ChannelConfig(budget_bytes=budget),
        backend=backend,
    )
    return inst, backend


@pytest.mark.parametrize("budget", [10**6, encoded_cost(12, 12, 1) + encoded_cost(12, 12, 2), 0])
def test_external_pairs_solvers_score_the_files_without_extracting(tmp_path, extract_calls, budget):
    inst, backend = external_pairs_instance(tmp_path, budget)
    expected = np.array(
        [
            [reconstruct_and_score(svc, img, d, backend, stream(0, "gen")) for d in inst.factors]
            for svc, img in zip(inst.services, inst.images)
        ]
    )
    assert len(set(expected[:, 1:].ravel().tolist())) == 4
    assert np.array_equal(quality_table(inst, stream(1, "gen")), expected)
    rewards = reference_action_rewards(inst, expected)
    for index in range(inst.n_actions):
        action = decode_action(index, inst.factors, inst.n_services)
        ev = evaluate_action(inst, action, stream(2, "gen"))
        assert list(ev.qualities) == [expected[s, inst.factors.index(d)] for s, d in enumerate(action)]
        assert ev.reward == rewards[index]
    oracle = exhaustive_oracle(inst, stream(3, "gen"))
    assert oracle.reward == rewards.max() == rewards[encode_action(oracle.action, inst.factors)]
    greedy = greedy_allocate(inst, stream(4, "gen"))
    assert greedy.reward == rewards[encode_action(greedy.action, inst.factors)]
    assert extract_calls == []


def test_greedy_reaches_all_ones_under_ample_budget():
    # both services degrade strictly at every factor step, so every
    # decrease is an improving move and greedy walks down to d=1
    inst = two_service_instance()
    res = greedy_allocate(inst, stream(3, "gen"))
    assert res.action == (1, 1)
    oracle = exhaustive_oracle(inst, stream(3, "gen"))
    assert res.reward == oracle.reward


def test_greedy_zero_budget_returns_all_max_with_penalty():
    inst = two_service_instance(budget=0)
    res = greedy_allocate(inst, stream(3, "gen"))
    assert res.action == (8, 8)
    assert res.reward == -1.0


def test_exhaustive_beats_greedy_on_random_instances():
    rng = np.random.default_rng(99)
    for trial in range(15):
        inst = random_instance(rng)
        oracle = exhaustive_oracle(inst, stream(trial, "gen"))
        greedy = greedy_allocate(inst, stream(trial, "gen"))
        assert oracle.reward >= greedy.reward - 1e-12


def over_budget(inst):
    """The instance with a budget one byte below its cheapest joint action, the all-max(D) start."""
    cheapest = sum(inst.action_costs(inst.factors[-1] for _ in inst.services))
    return dataclasses.replace(inst, channel=ChannelConfig(budget_bytes=cheapest - 1))


def test_greedy_reward_is_the_oracle_grids_bit_for_bit():
    rng = np.random.default_rng(99)
    feasible = [random_instance(rng) for _ in range(15)] + [noisy_instance()]
    for trial, inst in enumerate(feasible + [over_budget(inst) for inst in feasible]):
        greedy = greedy_allocate(inst, stream(trial, "gen"))
        grid = action_rewards(inst, stream(trial, "gen"))
        assert greedy.reward == grid[encode_action(greedy.action, inst.factors)], trial
        if trial >= len(feasible):
            assert greedy.reward == -1.0 and greedy.action == (inst.factors[-1],) * inst.n_services


def test_random_allocate_valid_and_seeded():
    inst = two_service_instance()
    a = random_allocate(inst, stream(4, "gen"))
    b = random_allocate(inst, stream(4, "gen"))
    assert a == b
    assert all(d in inst.factors for d in a.action)


def test_quality_table_reproducible():
    inst = two_service_instance()
    t1 = quality_table(inst, stream(5, "gen"))
    t2 = quality_table(inst, stream(5, "gen"))
    assert np.array_equal(t1, t2)
    assert t1.shape == (2, 4)
    assert np.all(t1[:, 0] == 1.0)  # d=1 is lossless without generation noise


def test_an_epsilon_floor_of_one_always_explores():
    assert np.array_equal(epsilon_schedule(DqnConfig(episodes=10, epsilon_min=1.0, warmup=10)), np.ones(10))


def test_epsilon_schedule_endpoints():
    eps = epsilon_schedule(DqnConfig(episodes=100))
    assert eps[0] == 1.0
    assert eps[-1] <= 0.05 + 1e-9
    assert np.all(np.diff(eps) <= 0.0)


def test_dqn_train_is_bit_reproducible():
    inst = two_service_instance(factors=(1, 2))
    cfg = DqnConfig(seed=11, warmup=8, batch_size=4, episodes=30)
    a = dqn_train([inst], cfg)
    b = dqn_train([inst], cfg)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.action_indices, b.action_indices)
    for wa, wb in zip(a.agent.online.weights, b.agent.online.weights):
        assert np.array_equal(wa, wb)


def test_dqn_trace_lengths_and_loss_definition():
    inst = two_service_instance(factors=(1, 2))
    cfg = DqnConfig(seed=12, warmup=8, batch_size=4, episodes=25)
    out = dqn_train([inst], cfg)
    assert out.rewards.shape == (25,)
    assert out.losses.shape == (25,)
    feasible = out.rewards > -1.0
    assert np.allclose(out.losses[feasible], 1.0 - out.rewards[feasible], atol=1e-12)


def test_dqn_toy_convergence_to_near_oracle():
    inst = two_service_instance(factors=(1, 2, 4))
    oracle = exhaustive_oracle(inst, stream(6, "gen"))
    cfg = DqnConfig(seed=7, episodes=400)
    out = dqn_train([inst], cfg)
    tail = out.rewards[-50:]
    assert tail.mean() >= oracle.reward - 0.05
    greedy_action = dqn_act(out.agent, inst.state_vector)
    greedy_reward = evaluate_action(inst, greedy_action, stream(8, "gen")).reward
    assert greedy_reward >= oracle.reward - 0.05


def test_dqn_pool_must_be_homogeneous():
    a = two_service_instance(factors=(1, 2))
    b = two_service_instance(factors=(1, 4))
    with pytest.raises(DomainError, match="all pool instances must share the factor set and service count"):
        dqn_train([a, b], DqnConfig(episodes=10, warmup=10))


def test_a_warmup_above_the_episodes_is_rejected():
    """Training stores one replay entry per episode, so such a warmup would never train."""
    with pytest.raises(DomainError, match=re.escape("warmup 64 exceeds the 5 episodes")):
        DqnConfig(episodes=5)


def test_a_warmup_equal_to_the_episodes_makes_exactly_one_update(monkeypatch):
    real = semcom.allocator.td_loss_and_gradients
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(semcom.allocator, "td_loss_and_gradients", counted)
    dqn_train([noisy_instance()], DqnConfig(episodes=5, warmup=5, batch_size=4))
    assert len(calls) == 1


@pytest.mark.parametrize("episodes", [0, -1, EPISODE_GUARD + 1])
def test_dqn_config_rejects_episodes_outside_the_guard(episodes):
    with pytest.raises(DomainError, match=re.escape(f"episodes must lie in [1, {EPISODE_GUARD}], got {episodes}")):
        DqnConfig(episodes=episodes)


def test_dqn_act_decodes_hand_set_weights():
    factors = (1, 2)
    n_actions = 4
    state_dim = 7
    # linear net whose output 3 is always the largest
    w = np.zeros((state_dim, n_actions))
    b = np.array([0.0, 0.1, 0.2, 1.0])
    net = Mlp.from_params([state_dim, n_actions], [w], [b])
    agent = DqnAgent(net, factors, 2)
    action = dqn_act(agent, np.zeros(state_dim))
    assert action == decode_action(3, factors, 2) == (2, 2)


def test_dqn_act_ties_pick_index_zero():
    factors = (1, 2)
    net = Mlp.from_params([3, 4], [np.zeros((3, 4))], [np.zeros(4)])
    agent = DqnAgent(net, factors, 2)
    assert dqn_act(agent, np.zeros(3)) == decode_action(0, factors, 2)


def test_dqn_act_shape_check():
    net = Mlp.from_params([3, 4], [np.zeros((3, 4))], [np.zeros(4)])
    agent = DqnAgent(net, (1, 2), 2)
    with pytest.raises(ShapeError):
        dqn_act(agent, np.zeros(5))
