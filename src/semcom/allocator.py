"""Joint allocation of per-service downscaling factors under a byte budget.

A joint action assigns one factor from the admissible set D to each of
the S services; the reward is the weighted mean of the services'
normalized qualities, or -1 when the total byte cost exceeds the budget.
Solvers: an exhaustive oracle (ground truth), a marginal-gain greedy
heuristic, a uniform-random baseline, and a learned agent over the flat
index of D^S.  Each decision is one step that ends the episode, so the
agent is an epsilon-greedy neural contextual bandit (Riquelme et al.,
"Deep Bayesian Bandits Showdown", ICLR 2018): its Q-network regresses
the immediate reward, with no bootstrapped target and no target network.
The names ``dqn_*`` are kept for the CLI solver and the checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelConfig, budget_check
from .codec import encoded_cost
from .errors import DomainError, ShapeError, TooLargeError
from .generation import GenerationBackend, QualityCore, ServiceSpec, Surrogate
from .image import SemanticMap
from .qnet import Mlp, SgdMomentum, td_loss_and_gradients

JOINT_ACTION_GUARD = 4096
# Largest hidden layer or replay batch a config may ask for: the largest
# output layer that JOINT_ACTION_GUARD allows.
SIZE_GUARD = JOINT_ACTION_GUARD
# Most training episodes a config may ask for; each keeps four numbers in the trace.
EPISODE_GUARD = 10**6
# Exploration starts at EPSILON_START and decays to the configured floor over
# the first EPSILON_DECAY_FRACTION of the episodes; SGD uses MOMENTUM.
EPSILON_START = 1.0
EPSILON_DECAY_FRACTION = 0.8
MOMENTUM = 0.9
# Largest |Q| a trained network may give on a pool state; rewards lie in [-1, 1].
Q_GUARD = 1e3


@dataclass(frozen=True, eq=False)
class AllocationInstance:
    """S services with their source images, the factor set D, and the channel."""

    services: tuple[ServiceSpec, ...]
    images: tuple[SemanticMap, ...]
    factors: tuple[int, ...]
    channel: ChannelConfig
    backend: GenerationBackend = Surrogate()

    def __post_init__(self):
        object.__setattr__(self, "services", tuple(self.services))
        object.__setattr__(self, "images", tuple(self.images))
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.services:
            raise DomainError("need at least one service")
        if len(self.services) != len(self.images):
            raise DomainError(f"{len(self.services)} services but {len(self.images)} images")
        if not self.factors or any(d < 1 for d in self.factors):
            raise DomainError(f"factors must be positive integers, got {self.factors}")
        if list(self.factors) != sorted(set(self.factors)):
            raise DomainError(f"factors must be strictly increasing, got {self.factors}")
        if not math.isfinite(sum(svc.weight for svc in self.services)):
            raise DomainError("the sum of the service weights must be finite")
        if len(self.factors) ** len(self.services) > JOINT_ACTION_GUARD:
            raise TooLargeError(
                f"joint action space |D|^S = {len(self.factors)}^{len(self.services)} "
                f"exceeds the guard of {JOINT_ACTION_GUARD}"
            )

    @property
    def n_services(self) -> int:
        return len(self.services)

    @property
    def n_actions(self) -> int:
        return len(self.factors) ** len(self.services)

    @cached_property
    def semantic_maps(self) -> tuple[SemanticMap, ...]:
        """Each service's extracted map: the one its core extracts."""
        return tuple(core.semantic for core in self.cores)

    @cached_property
    def cores(self) -> tuple[QualityCore, ...]:
        """Per-service evaluators for the instance's backend, kept for its life."""
        return tuple(QualityCore(svc, img, self.backend) for svc, img in zip(self.services, self.images))

    @cached_property
    def weights(self) -> np.ndarray:
        """Service weights as floats, in service order."""
        return np.array([svc.weight for svc in self.services], dtype=float)

    @cached_property
    def cost_table(self) -> np.ndarray:
        """Byte cost of service s at factor index j, shape (S, |D|)."""
        return np.array(
            [
                [encoded_cost(img.width, img.height, d) for d in self.factors]
                for img in self.images
            ],
            dtype=np.int64,
        )

    @cached_property
    def state_vector(self) -> np.ndarray:
        """Per service mean/variance/relative-size of its semantic map, plus budget headroom.

        The budget is normalized by the cost of sending every service
        uncompressed, clipped to [0, 1]; dimension is 3S + 1.
        """
        max_pixels = max(img.width * img.height for img in self.images)
        feats = []
        for img, smap in zip(self.images, self.semantic_maps):
            feats.extend(
                [float(smap.pixels.mean()), float(smap.pixels.var()), img.width * img.height / max_pixels]
            )
        full_cost = sum(encoded_cost(img.width, img.height, 1) for img in self.images)
        feats.append(min(self.channel.budget_bytes / full_cost, 1.0))
        return np.clip(np.array(feats), 0.0, 1.0)

    def action_costs(self, action) -> list[int]:
        """Byte cost of each service under a joint action of admissible factors."""
        action = tuple(action)
        if len(action) != self.n_services:
            raise DomainError(f"action has {len(action)} factors for {self.n_services} services")
        pos = {d: i for i, d in enumerate(self.factors)}
        if any(d not in pos for d in action):
            raise DomainError(f"action {action} leaves the admissible set {list(self.factors)}")
        return [int(self.cost_table[s, pos[d]]) for s, d in enumerate(action)]


def encode_action(action, factors) -> int:
    """Flat index of a factor tuple; service 0 is the most significant digit."""
    base = len(factors)
    pos = {d: i for i, d in enumerate(factors)}
    index = 0
    for d in action:
        if d not in pos:
            raise DomainError(f"factor {d} not in admissible set {list(factors)}")
        index = index * base + pos[d]
    return index


def decode_action(index: int, factors, n_services: int) -> tuple[int, ...]:
    """Inverse of encode_action over the same mixed-radix layout."""
    base = len(factors)
    if not 0 <= index < base**n_services:
        raise DomainError(f"action index {index} out of range for {base}^{n_services} actions")
    digits = []
    for _ in range(n_services):
        digits.append(factors[index % base])
        index //= base
    return tuple(reversed(digits))


def weighted_quality(weights, qualities):
    """Aggregate reward on the feasible set: weighted mean of qualities over the trailing service axis."""
    weights = np.asarray(weights, dtype=float)
    return np.sum(weights * np.asarray(qualities, dtype=float), axis=-1) / np.sum(weights)


@dataclass(frozen=True)
class ActionEvaluation:
    reward: float
    qualities: tuple[float, ...]
    total_bytes: int
    feasible: bool


def evaluate_action(inst: AllocationInstance, action, rng: np.random.Generator) -> ActionEvaluation:
    """Score one joint action; infeasible actions earn -1 but still report qualities."""
    action = tuple(action)
    check = budget_check(inst.action_costs(action), inst.channel)
    qualities = tuple(core.quality(d, rng) for core, d in zip(inst.cores, action))
    reward = float(weighted_quality(inst.weights, qualities)) if check.feasible else -1.0
    return ActionEvaluation(reward=reward, qualities=qualities, total_bytes=check.total, feasible=check.feasible)


def quality_table(inst: AllocationInstance, rng: np.random.Generator) -> np.ndarray:
    """Quality of service s at factor index j, shape (S, |D|).

    Each (s, j) cell gets its own stream spawned in a fixed order, so any
    solver building the table from an identically seeded generator sees
    identical values.
    """
    streams = iter(rng.spawn(inst.n_services * len(inst.factors)))
    return np.array([[core.quality(d, next(streams)) for d in inst.factors] for core in inst.cores])


@dataclass(frozen=True)
class AllocationResult:
    action: tuple[int, ...]
    reward: float


def action_rewards(inst: AllocationInstance, rng: np.random.Generator) -> np.ndarray:
    """Reward of every joint action, indexed by the flat action index."""
    table = quality_table(inst, rng)
    # Axis s of each grid is service s's factor index.  The qualities' trailing
    # axis is the service axis, laid out C-contiguous so that weighted_quality
    # sums every action's terms in the order it sums one action's list.
    qualities = np.ascontiguousarray(np.stack(np.meshgrid(*table, indexing="ij"), axis=-1))
    totals = sum(np.meshgrid(*inst.cost_table, indexing="ij"))
    rewards = weighted_quality(inst.weights, qualities)
    rewards[totals > inst.channel.budget_bytes] = -1.0
    return rewards.ravel()


def exhaustive_oracle(inst: AllocationInstance, rng: np.random.Generator) -> AllocationResult:
    """Enumerate all joint actions; ties go to the lexicographically smallest tuple."""
    rewards = action_rewards(inst, rng)
    best = int(np.argmax(rewards))  # first maximum = smallest index = lexicographic min
    return AllocationResult(
        action=decode_action(best, inst.factors, inst.n_services), reward=float(rewards[best])
    )


def greedy_allocate(inst: AllocationInstance, rng: np.random.Generator) -> AllocationResult:
    """Start everything at max(D); repeatedly buy the best quality-per-byte upgrade.

    A move lowers one service's factor to the next smaller admissible
    value; only budget-feasible moves with a strict quality gain are
    considered, ranked by gain per extra byte.
    """
    table = quality_table(inst, rng)
    last = len(inst.factors) - 1
    positions = [last] * inst.n_services
    total = sum(inst.action_costs(inst.factors[last] for _ in inst.services))
    weight_sum = float(inst.weights.sum())
    while True:
        best_ratio = 0.0
        best_service = None
        for s in range(inst.n_services):
            j = positions[s]
            if j == 0:
                continue
            extra = int(inst.cost_table[s, j - 1] - inst.cost_table[s, j])
            if total + extra > inst.channel.budget_bytes:
                continue
            gain = inst.weights[s] * (table[s, j - 1] - table[s, j]) / weight_sum
            if gain <= 0.0:
                continue
            ratio = np.inf if extra == 0 else gain / extra
            if ratio > best_ratio:
                best_ratio = ratio
                best_service = s
                best_extra = extra
        if best_service is None:
            break
        positions[best_service] -= 1
        total += best_extra
    action = tuple(inst.factors[j] for j in positions)
    # Moves keep the total within budget, so the action is feasible exactly when the start is.
    feasible = total <= inst.channel.budget_bytes
    reward = weighted_quality(inst.weights, table[range(inst.n_services), positions]) if feasible else -1.0
    return AllocationResult(action=action, reward=float(reward))


def random_allocate(inst: AllocationInstance, rng: np.random.Generator) -> AllocationResult:
    """Uniform random joint action, evaluated like any other."""
    index = int(rng.integers(inst.n_actions))
    action = decode_action(index, inst.factors, inst.n_services)
    return AllocationResult(action=action, reward=evaluate_action(inst, action, rng).reward)


@dataclass(frozen=True)
class DqnConfig:
    hidden: tuple[int, ...] = (64, 64)
    buffer_capacity: int = 4096
    batch_size: int = 32
    learning_rate: float = 1e-3
    epsilon_min: float = 0.05
    warmup: int = 64
    seed: int = 0
    episodes: int = 500

    def __post_init__(self):
        if not 1 <= self.episodes <= EPISODE_GUARD:
            raise DomainError(f"episodes must lie in [1, {EPISODE_GUARD}], got {self.episodes}")
        if self.warmup > self.episodes:
            # training stores one replay entry per episode, so it would never start
            raise DomainError(f"warmup {self.warmup} exceeds the {self.episodes} episodes")
        if any(size < 1 for size in self.hidden):
            raise DomainError(f"hidden layer sizes must be >= 1, got {self.hidden}")
        if self.buffer_capacity < 1 or self.batch_size < 1:
            raise DomainError(f"buffer and batch must be >= 1, got {self.buffer_capacity} and {self.batch_size}")
        if max(self.hidden, default=0) > SIZE_GUARD or self.batch_size > SIZE_GUARD:
            raise DomainError(
                f"hidden layer sizes and batch must be <= {SIZE_GUARD}, got {self.hidden} and {self.batch_size}"
            )
        if self.warmup > self.buffer_capacity:
            # the buffer holds at most its capacity, so training would never start
            raise DomainError(f"warmup {self.warmup} exceeds the buffer capacity {self.buffer_capacity}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise DomainError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 < self.epsilon_min <= 1.0:
            # a multiplicative decay cannot reach 0: it would drop to 0 after one episode
            raise DomainError(f"epsilon_min must lie in (0, 1], got {self.epsilon_min}")


class DqnAgent:
    """Trained Q-network plus the action layout needed to decode its argmax."""

    def __init__(self, online: Mlp, factors, n_services: int):
        self.online = online
        self.factors = tuple(factors)
        self.n_services = n_services

    @property
    def state_dim(self) -> int:
        return self.online.sizes[0]


@dataclass(frozen=True, eq=False)
class TrainResult:
    agent: DqnAgent
    rewards: np.ndarray
    losses: np.ndarray
    epsilons: np.ndarray
    action_indices: np.ndarray
    instance_indices: np.ndarray


def epsilon_schedule(config: DqnConfig) -> np.ndarray:
    """Multiplicative decay from EPSILON_START to the floor over EPSILON_DECAY_FRACTION of the episodes."""
    decay_episodes = max(1, round(EPSILON_DECAY_FRACTION * config.episodes))
    ratio = (config.epsilon_min / EPSILON_START) ** (1.0 / decay_episodes)
    eps = EPSILON_START * ratio ** np.arange(config.episodes)
    return np.maximum(eps, config.epsilon_min)


def dqn_train(pool, config: DqnConfig) -> TrainResult:
    """Train the contextual-bandit agent over a pool of allocation instances.

    Episodes are one joint decision: sample an instance, pick a joint
    action epsilon-greedily, collect the reward, store (state, action,
    reward), then take one gradient step regressing Q(s, a) on the stored
    reward over a uniform replay mini-batch once the warmup is filled.
    Training runs config.episodes episodes, driven by config.seed.  A
    network that ends with a non-finite weight or bias, or with a Q-value
    outside [-Q_GUARD, Q_GUARD] on a pool instance's state, raises
    DomainError.
    """
    pool = list(pool)
    if not pool:
        raise DomainError("instance pool must be non-empty")
    first = pool[0]
    for inst in pool:
        if inst.factors != first.factors or inst.n_services != first.n_services:
            raise DomainError("all pool instances must share the factor set and service count")

    state_dim = first.state_vector.size
    n_actions = first.n_actions
    base = np.random.default_rng(config.seed)
    init_rng, instance_rng, explore_rng, replay_rng, eval_rng = base.spawn(5)

    online = Mlp([state_dim, *config.hidden, n_actions], init_rng)
    optimizer = SgdMomentum(online, config.learning_rate, MOMENTUM)
    # Replay ring: training stores one entry per episode, so episode e writes row e % capacity.
    capacity = min(config.buffer_capacity, config.episodes)
    replay_states = np.zeros((capacity, state_dim))
    replay_actions = np.zeros(capacity, dtype=np.int64)
    replay_rewards = np.zeros(capacity)
    epsilons = epsilon_schedule(config)

    rewards = np.zeros(config.episodes)
    losses = np.zeros(config.episodes)
    action_indices = np.zeros(config.episodes, dtype=np.int64)
    instance_indices = np.zeros(config.episodes, dtype=np.int64)

    for e in range(config.episodes):
        inst_idx = int(instance_rng.integers(len(pool)))
        inst = pool[inst_idx]
        state = inst.state_vector
        if float(explore_rng.random()) < epsilons[e]:
            a_idx = int(explore_rng.integers(n_actions))
        else:
            q, _ = online.forward(state)
            a_idx = int(np.argmax(q[0]))
        action = decode_action(a_idx, inst.factors, inst.n_services)
        evaluation = evaluate_action(inst, action, eval_rng)
        row = e % capacity
        replay_states[row] = state
        replay_actions[row] = a_idx
        replay_rewards[row] = evaluation.reward

        filled = min(e + 1, capacity)
        if filled >= config.warmup:
            idx = replay_rng.integers(0, filled, size=config.batch_size)
            _, d_w, d_b = td_loss_and_gradients(online, replay_states[idx], replay_actions[idx], replay_rewards[idx])
            optimizer.step(online, d_w, d_b)

        rewards[e] = evaluation.reward
        losses[e] = weighted_quality(inst.weights, 1.0 - np.array(evaluation.qualities))
        action_indices[e] = a_idx
        instance_indices[e] = inst_idx

    if not all(np.isfinite(p).all() for p in online.weights + online.biases):
        raise DomainError(f"training diverged to non-finite Q-network weights at learning rate {config.learning_rate}")
    q_max = max(float(np.abs(online.forward(inst.state_vector)[0]).max()) for inst in pool)
    if not q_max <= Q_GUARD:  # also a NaN
        raise DomainError(
            f"training diverged to Q-values of magnitude {q_max:.3g}, above {Q_GUARD:g}, "
            f"at learning rate {config.learning_rate}"
        )
    agent = DqnAgent(online, first.factors, first.n_services)
    return TrainResult(
        agent=agent,
        rewards=rewards,
        losses=losses,
        epsilons=epsilons,
        action_indices=action_indices,
        instance_indices=instance_indices,
    )


def dqn_act(agent: DqnAgent, state: np.ndarray) -> tuple[int, ...]:
    """Greedy action of the trained agent; ties resolve to the smallest index."""
    state = np.asarray(state, dtype=np.float64)
    if state.ndim != 1 or state.size != agent.state_dim:
        raise ShapeError(f"state has shape {state.shape}, agent expects ({agent.state_dim},)")
    q, _ = agent.online.forward(state)
    return decode_action(int(np.argmax(q[0])), agent.factors, agent.n_services)
