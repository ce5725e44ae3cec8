"""From-scratch multilayer perceptron used as the Q-network.

Hidden layers are rectified-linear, the output layer is linear.  The
backward pass returns gradients of a squared error on the outputs with
respect to every weight and bias; training uses plain SGD with momentum.

Checkpoint format: magic "DQN1", uint32 little-endian layer count, the
layer sizes as uint32 little-endian, then for each layer its weight
matrix (fan_in x fan_out, row-major) followed by its bias vector, all
little-endian float64.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import CorruptPayloadError, ShapeError
from .files import read_bytes, write_atomic

_MAGIC = b"DQN1"


class Mlp:
    """Feed-forward network; weights shaped (fan_in, fan_out)."""

    def __init__(self, sizes, rng: np.random.Generator):
        if len(sizes) < 2:
            raise ShapeError(f"need at least input and output sizes, got {sizes}")
        self.sizes = tuple(int(s) for s in sizes)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.sizes, self.sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, (fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, fan_out))

    @classmethod
    def from_params(cls, weights, biases) -> "Mlp":
        """A network holding these parameters; its layer sizes are read from the weight shapes."""
        net = cls.__new__(cls)
        net.weights = [np.array(w, dtype=np.float64) for w in weights]
        net.biases = [np.array(b, dtype=np.float64) for b in biases]
        if not net.weights or any(w.ndim != 2 for w in net.weights):
            raise ShapeError("need one or more 2-D weight matrices")
        net.sizes = (net.weights[0].shape[0], *(w.shape[1] for w in net.weights))
        want = [((fan_in, fan_out), (fan_out,)) for fan_in, fan_out in zip(net.sizes, net.sizes[1:])]
        if [(w.shape, b.shape) for w, b in zip(net.weights, net.biases)] != want or len(net.biases) != len(want):
            raise ShapeError(f"weight and bias shapes do not chain as layer sizes {net.sizes}")
        return net

    def forward(self, x: np.ndarray):
        """Outputs and the per-layer activations the backward pass needs."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.sizes[0]:
            raise ShapeError(f"input has {x.shape[1]} features, network expects {self.sizes[0]}")
        activations = [x]
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            a = z if i == last else np.maximum(z, 0.0)
            activations.append(a)
        return a, activations

    def backward(self, activations, grad_out: np.ndarray):
        """Gradients of the loss whose output-gradient is ``grad_out``.

        Each hidden activation is max(z, 0), so it is positive exactly
        where its pre-activation z is.  Returns ([dW...], [db...])
        matching self.weights / self.biases.
        """
        grad_out = np.asarray(grad_out, dtype=np.float64)
        if grad_out.shape != activations[-1].shape:
            raise ShapeError(f"grad shape {grad_out.shape} does not match output {activations[-1].shape}")
        d_weights = [None] * len(self.weights)
        d_biases = [None] * len(self.biases)
        delta = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            d_weights[i] = activations[i].T @ delta
            d_biases[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (activations[i] > 0.0)
        return d_weights, d_biases


def td_loss_and_gradients(net: Mlp, states: np.ndarray, action_idx: np.ndarray, targets: np.ndarray):
    """Mean squared TD error over a batch and its parameter gradients.

    Only the chosen action's output contributes for each sample.
    """
    q, activations = net.forward(states)
    batch = q.shape[0]
    rows = np.arange(batch)
    errors = q[rows, action_idx] - targets
    loss = float(np.mean(errors**2))
    grad_out = np.zeros_like(q)
    grad_out[rows, action_idx] = 2.0 * errors / batch
    d_weights, d_biases = net.backward(activations, grad_out)
    return loss, d_weights, d_biases


class SgdMomentum:
    """Classical momentum, in place: v <- m v - lr g;  w <- w + v."""

    def __init__(self, net: Mlp, learning_rate: float, momentum: float):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocities = [np.zeros_like(p) for p in net.weights + net.biases]

    def step(self, net: Mlp, d_weights, d_biases) -> None:
        for p, v, g in zip(net.weights + net.biases, self.velocities, [*d_weights, *d_biases]):
            v *= self.momentum
            v -= self.learning_rate * g
            p += v


def save_qnet(net: Mlp, path) -> None:
    sizes = struct.pack(f"<{1 + len(net.sizes)}I", len(net.sizes), *net.sizes)
    params = [np.ascontiguousarray(p, dtype="<f8") for wb in zip(net.weights, net.biases) for p in wb]
    write_atomic(path, _MAGIC, sizes, *params)


def load_qnet(path) -> Mlp:
    data = read_bytes(path)
    if data[:4] != _MAGIC:
        raise CorruptPayloadError(f"bad checkpoint magic {data[:4]!r}")
    if len(data) < 8:
        raise CorruptPayloadError(f"checkpoint has {len(data)} bytes, too short for a layer count")
    (count,) = struct.unpack_from("<I", data, 4)
    offset = 8 + 4 * count
    # Check every declared size against the file length before reading it,
    # so a corrupt count or size never asks for a huge buffer.
    if count < 2:
        raise CorruptPayloadError(f"checkpoint declares {count} layer sizes, a network needs at least 2")
    if offset > len(data):
        raise CorruptPayloadError(f"checkpoint of {len(data)} bytes cannot hold {count} layer sizes")
    sizes = struct.unpack_from(f"<{count}I", data, 8)
    expected = offset + 8 * sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))
    if expected != len(data):
        raise CorruptPayloadError(f"checkpoint has {len(data)} bytes, layer sizes {sizes} need {expected}")
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = np.frombuffer(data, dtype="<f8", count=fan_in * fan_out, offset=offset)
        offset += 8 * fan_in * fan_out
        b = np.frombuffer(data, dtype="<f8", count=fan_out, offset=offset)
        offset += 8 * fan_out
        weights.append(w.reshape(fan_in, fan_out).copy())
        biases.append(b.copy())
    return Mlp.from_params(weights, biases)
