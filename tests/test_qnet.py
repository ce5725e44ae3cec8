import re

import numpy as np
import pytest

from semcom.errors import CorruptPayloadError, IoError, ShapeError
from semcom.qnet import Mlp, SgdMomentum, load_qnet, save_qnet, td_loss_and_gradients

from _reference import finite_difference_gradients, gradient_relative_error, reference_mlp_backward


def test_zero_input_zero_params_outputs_zero():
    net = Mlp.from_params([3, 4, 2], [np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4), np.zeros(2)])
    out, _ = net.forward(np.zeros((1, 3)))
    assert np.array_equal(out, np.zeros((1, 2)))


def test_single_linear_layer_identity():
    net = Mlp.from_params([3, 3], [np.eye(3)], [np.zeros(3)])
    x = np.array([[0.1, -0.5, 2.0]])
    out, _ = net.forward(x)
    assert np.array_equal(out, x)


def test_init_bounds_respect_fan_in():
    rng = np.random.default_rng(0)
    net = Mlp([16, 64, 4], rng)
    assert np.max(np.abs(net.weights[0])) <= 1.0 / 4.0
    assert np.max(np.abs(net.weights[1])) <= 1.0 / 8.0


def test_forward_shape_check():
    net = Mlp([5, 8, 2], np.random.default_rng(1))
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 4)))


@pytest.mark.parametrize("seed", range(20))
def test_gradient_check_against_central_differences(seed):
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(2, 5)) for _ in range(3)]
    net = Mlp(sizes, rng)
    batch = 4
    states = rng.normal(size=(batch, sizes[0]))
    actions = rng.integers(0, sizes[-1], size=batch)
    targets = rng.normal(size=batch)
    _, dw, db = td_loss_and_gradients(net, states, actions, targets)
    fdw, fdb = finite_difference_gradients(net, states, actions, targets)
    for a, b in zip(dw + db, fdw + fdb):
        assert gradient_relative_error(a, b) < 1e-4


def zero_hidden_net(bias):
    """A net whose hidden weights are 0 and biases ``bias`` (0.0 or -0.0), so every hidden pre-activation is zero."""
    rng = np.random.default_rng(99)
    weights = [np.zeros((3, 5)), np.zeros((5, 4)), rng.normal(size=(4, 2))]
    biases = [np.full(5, bias), np.full(4, bias), rng.normal(size=2)]
    return Mlp.from_params([3, 5, 4, 2], weights, biases)


def test_backward_masks_each_hidden_unit_on_its_pre_activation_above_zero():
    cases = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        sizes = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(2, 5)))]
        cases.append((Mlp(sizes, rng), rng.normal(size=(int(rng.integers(1, 6)), sizes[0]))))
    states = -np.abs(np.random.default_rng(5).normal(size=(4, 3)))
    cases += [(zero_hidden_net(0.0), states), (zero_hidden_net(-0.0), states)]
    for net, x in cases:
        q, activations = net.forward(x)
        grad_out = np.random.default_rng(q.size).normal(size=q.shape)
        dw, db = net.backward(activations, grad_out)
        ref_w, ref_b = reference_mlp_backward(net, x, grad_out)
        for got, want in zip(dw + db, ref_w + ref_b):
            assert np.array_equal(got, want)
    # a zero pre-activation, whatever the sign of its bias, masks its unit out
    for net, x in cases[-2:]:
        assert not (x @ net.weights[0] + net.biases[0]).any()
        assert not net.backward(net.forward(x)[1], np.ones((4, 2)))[0][0].any()


def test_td_loss_value():
    net = Mlp.from_params([2, 2], [np.zeros((2, 2))], [np.array([1.0, 3.0])])
    states = np.zeros((2, 2))
    actions = np.array([0, 1])
    targets = np.array([0.0, 1.0])
    loss, _, _ = td_loss_and_gradients(net, states, actions, targets)
    # errors are (1-0) and (3-1): mean of 1 and 4
    assert loss == 2.5


def test_sgd_momentum_update_rule():
    net = Mlp.from_params([1, 1], [np.array([[1.0]])], [np.array([0.0])])
    opt = SgdMomentum(net, learning_rate=0.1, momentum=0.9)
    opt.step(net, [np.array([[1.0]])], [np.array([0.5])])
    assert np.isclose(net.weights[0][0, 0], 0.9)
    assert np.isclose(net.biases[0][0], -0.05)
    opt.step(net, [np.array([[1.0]])], [np.array([0.0])])
    # velocity = 0.9*(-0.1) - 0.1 = -0.19
    assert np.isclose(net.weights[0][0, 0], 0.71)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    net = Mlp([4, 8, 3], rng)
    path = tmp_path / "agent.bin"
    save_qnet(net, path)
    data = path.read_bytes()
    assert data[:4] == b"DQN1"
    back = load_qnet(path)
    assert back.sizes == net.sizes
    for a, b in zip(net.weights + net.biases, back.weights + back.biases):
        assert np.array_equal(a, b)


def test_checkpoint_rejects_corruption(tmp_path):
    rng = np.random.default_rng(8)
    net = Mlp([2, 2], rng)
    path = tmp_path / "agent.bin"
    save_qnet(net, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(CorruptPayloadError):
        load_qnet(bad)
    short = tmp_path / "short.bin"
    short.write_bytes(raw + b"\x00")
    with pytest.raises(CorruptPayloadError):
        load_qnet(short)


def test_checkpoint_rejects_truncation_and_impossible_sizes(tmp_path):
    net = Mlp([3, 4, 2], np.random.default_rng(9))
    path = tmp_path / "agent.bin"
    save_qnet(net, path)
    raw = path.read_bytes()
    cases = {
        "mid_weights": raw[: 8 + 4 * 3 + 8 * 5],
        "no_count": raw[:6],
        "huge_count": raw[:4] + (2**30).to_bytes(4, "little") + raw[8:],
        "one_layer": raw[:4] + (1).to_bytes(4, "little") + raw[8:12],
        "huge_size": raw[:8] + (2**31).to_bytes(4, "little") + raw[12:],
    }
    for name, data in cases.items():
        bad = tmp_path / f"{name}.bin"
        bad.write_bytes(data)
        with pytest.raises(CorruptPayloadError):
            load_qnet(bad)


def test_checkpoint_io_failures_are_io_errors(tmp_path):
    with pytest.raises(IoError, match="cannot read"):
        load_qnet(tmp_path / "missing" / "agent.bin")
    with pytest.raises(IoError, match="cannot read"):
        load_qnet(tmp_path)
    net = Mlp([2, 2], np.random.default_rng(10))
    with pytest.raises(IoError, match="cannot write"):
        save_qnet(net, tmp_path / "missing" / "agent.bin")
    with pytest.raises(IoError, match="cannot write"):
        save_qnet(net, tmp_path)


def test_a_network_needs_an_input_and_an_output_size():
    with pytest.raises(ShapeError, match=re.escape("need at least input and output sizes, got [3]")):
        Mlp([3], np.random.default_rng(0))


def test_backward_rejects_a_gradient_shaped_unlike_the_output():
    net = Mlp([3, 4, 2], np.random.default_rng(0))
    _, activations = net.forward(np.zeros((5, 3)))
    with pytest.raises(ShapeError, match=re.escape("grad shape (5, 3) does not match output (5, 2)")):
        net.backward(activations, np.zeros((5, 3)))
