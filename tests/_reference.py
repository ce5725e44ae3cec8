"""Independent straightforward oracles used only by the test suite.

Everything here is written as literal loops over the defining formulas so
the fast library implementations can be checked against a second,
unrelated code path.
"""

import math

import numpy as np


def reference_canny(pixels, low=0.1, high=0.2, sigma=1.4):
    """Literal five-stage Canny on a float image in [0, 1].

    Conventions: Gaussian kernel radius ceil(3*sigma) with clamped
    coordinates, 3x3 Sobel on paired differences, direction quantized to 4 sectors, keep-if->=
    non-maximum suppression, fractional double threshold, 8-connected
    hysteresis from strong pixels.
    """
    img = np.asarray(pixels, dtype=float)
    h, w = img.shape

    def at(a, y, x):
        return a[min(max(y, 0), h - 1), min(max(x, 0), w - 1)]

    r = math.ceil(3 * sigma)
    ker1 = [math.exp(-(k * k) / (2 * sigma * sigma)) for k in range(-r, r + 1)]
    s = sum(ker1)
    ker1 = [v / s for v in ker1]
    blurred = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    acc += ker1[dy + r] * ker1[dx + r] * at(img, y + dy, x + dx)
            blurred[y, x] = acc

    # Sobel taps (1, 2, 1) applied to paired differences, so that a flat
    # region has exactly zero gradient rather than rounding residue.
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            ax = ay = 0.0
            for d, k in ((-1, 1.0), (0, 2.0), (1, 1.0)):
                ax += k * (at(blurred, y + d, x + 1) - at(blurred, y + d, x - 1))
                ay += k * (at(blurred, y + 1, x + d) - at(blurred, y - 1, x + d))
            gx[y, x] = ax
            gy[y, x] = ay
    mag = np.sqrt(gx * gx + gy * gy)
    gmax = mag.max()
    if gmax == 0.0:
        return np.zeros_like(img)

    sector_neighbors = {
        0: ((0, 1), (0, -1)),
        1: ((1, 1), (-1, -1)),
        2: ((1, 0), (-1, 0)),
        3: ((1, -1), (-1, 1)),
    }
    nms = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            deg = math.degrees(math.atan2(gy[y, x], gx[y, x])) % 180.0
            if deg < 22.5 or deg >= 157.5:
                sec = 0
            elif deg < 67.5:
                sec = 1
            elif deg < 112.5:
                sec = 2
            else:
                sec = 3
            (dy1, dx1), (dy2, dx2) = sector_neighbors[sec]
            g = mag[y, x]
            if g >= at(mag, y + dy1, x + dx1) and g >= at(mag, y + dy2, x + dx2):
                nms[y, x] = g

    strong = nms >= high * gmax
    weak = nms >= low * gmax
    edges = strong.copy()
    stack = [tuple(p) for p in np.argwhere(strong)]
    while stack:
        y, x = stack.pop()
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and weak[ny, nx] and not edges[ny, nx]:
                    edges[ny, nx] = True
                    stack.append((ny, nx))
    return edges.astype(float)


def reference_bilinear_upscale(pixels, width, height):
    """Corner-aligned bilinear resampling, one output pixel at a time.

    Each pixel lerps along x on its top and bottom source rows, then
    along y between the two, with the same operations in the same order
    as the library's lerp form.
    """
    a = np.asarray(pixels, dtype=float)
    h, w = a.shape

    def coord(i, n_in, n_out):
        if n_out == 1 or n_in == 1:
            return 0.0
        return i * ((n_in - 1) / (n_out - 1))

    out = np.zeros((height, width))
    for i in range(height):
        sy = coord(i, h, height)
        y0 = math.floor(sy)
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(width):
            sx = coord(j, w, width)
            x0 = math.floor(sx)
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            top = a[y0, x0] + fx * (a[y0, x1] - a[y0, x0])
            bottom = a[y1, x0] + fx * (a[y1, x1] - a[y1, x0])
            out[i, j] = top + fy * (bottom - top)
    return out


def reference_separable_blur(pixels, sigma):
    """Gaussian blur as two literal 1-D passes (along x, then along y).

    Each output pixel starts from 0.0 and adds the clamped taps in offset
    order, which is the summation order the library's blur promises.
    """
    img = np.asarray(pixels, dtype=float)
    h, w = img.shape
    r = math.ceil(3.0 * sigma)
    weights = np.exp(-(np.arange(-r, r + 1).astype(float) ** 2) / (2.0 * sigma * sigma))
    weights /= weights.sum()
    across = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for k in range(2 * r + 1):
                acc += weights[k] * img[y, min(max(x + k - r, 0), w - 1)]
            across[y, x] = acc
    out = np.zeros_like(img)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for k in range(2 * r + 1):
                acc += weights[k] * across[min(max(y + k - r, 0), h - 1), x]
            out[y, x] = acc
    return out


def reference_sobel_gradients(pixels):
    """3x3 Sobel (gx, gy) per pixel: d(-1) + 2 d(0) + d(+1) on clamped paired differences."""
    a = np.asarray(pixels, dtype=float)
    h, w = a.shape

    def at(y, x):
        return a[min(max(y, 0), h - 1), min(max(x, 0), w - 1)]

    gx = np.zeros_like(a)
    gy = np.zeros_like(a)
    for y in range(h):
        for x in range(w):
            gx[y, x] = (
                (at(y - 1, x + 1) - at(y - 1, x - 1)) + 2.0 * (at(y, x + 1) - at(y, x - 1))
            ) + (at(y + 1, x + 1) - at(y + 1, x - 1))
            gy[y, x] = (
                (at(y + 1, x - 1) - at(y - 1, x - 1)) + 2.0 * (at(y + 1, x) - at(y - 1, x))
            ) + (at(y + 1, x + 1) - at(y - 1, x + 1))
    return gx, gy


def reference_mlp_backward(net, states, grad_out):
    """Mlp.backward from recomputed pre-activations, masking each hidden unit on z > 0 one entry at a time.

    The matrix products are the network's own, so the gradients match bit
    for bit; only the ReLU mask comes from a second path.
    """
    x = np.atleast_2d(np.asarray(states, dtype=np.float64))
    inputs, pre = [x], []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = inputs[-1] @ w + b
        pre.append(z)
        inputs.append(z if i == len(net.weights) - 1 else np.maximum(z, 0.0))
    d_weights = [None] * len(net.weights)
    d_biases = [None] * len(net.biases)
    delta = np.asarray(grad_out, dtype=np.float64)
    for i in range(len(net.weights) - 1, -1, -1):
        d_weights[i] = inputs[i].T @ delta
        d_biases[i] = delta.sum(axis=0)
        if i > 0:
            z = pre[i - 1]
            mask = np.zeros(z.shape)
            for r in range(z.shape[0]):
                for c in range(z.shape[1]):
                    if z[r, c] > 0.0:
                        mask[r, c] = 1.0
            delta = (delta @ net.weights[i].T) * mask
    return d_weights, d_biases


def finite_difference_gradients(net, states, actions, targets, h=1e-5):
    """Central-difference gradients of the batch TD loss for every parameter."""
    d_weights = [np.zeros_like(w) for w in net.weights]
    d_biases = [np.zeros_like(b) for b in net.biases]

    def loss():
        q, _ = net.forward(states)
        err = q[np.arange(q.shape[0]), actions] - targets
        return float(np.mean(err**2))

    for layer, w in enumerate(net.weights):
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + h
            up = loss()
            w[idx] = orig - h
            down = loss()
            w[idx] = orig
            d_weights[layer][idx] = (up - down) / (2 * h)
    for layer, b in enumerate(net.biases):
        for idx in range(b.size):
            orig = b[idx]
            b[idx] = orig + h
            up = loss()
            b[idx] = orig - h
            down = loss()
            b[idx] = orig
            d_biases[layer][idx] = (up - down) / (2 * h)
    return d_weights, d_biases


def gradient_relative_error(a, b):
    return np.max(np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-8))


def reference_mse_quality(a, b):
    h, w = a.shape
    acc = 0.0
    for y in range(h):
        for x in range(w):
            acc += (a[y, x] - b[y, x]) ** 2
    return 1.0 - acc / (h * w)


def reference_psnr_quality(a, b, cap_db=50.0):
    h, w = a.shape
    mse = 0.0
    for y in range(h):
        for x in range(w):
            mse += (a[y, x] - b[y, x]) ** 2
    mse /= h * w
    if mse == 0.0:
        return 1.0
    return min(10.0 * math.log10(1.0 / mse), cap_db) / cap_db


def reference_ssim_quality(a, b, window=8, c1=1e-4, c2=9e-4):
    h, w = a.shape
    n = window * window
    total = 0.0
    count = 0
    for y in range(h - window + 1):
        for x in range(w - window + 1):
            xs = a[y : y + window, x : x + window]
            ys = b[y : y + window, x : x + window]
            mx = sum(xs.flat) / n
            my = sum(ys.flat) / n
            vx = sum((v - mx) ** 2 for v in xs.flat) / n
            vy = sum((v - my) ** 2 for v in ys.flat) / n
            cov = sum((u - mx) * (v - my) for u, v in zip(xs.flat, ys.flat)) / n
            num = (2 * mx * my + c1) * (2 * cov + c2)
            den = (mx * mx + my * my + c1) * (vx + vy + c2)
            total += num / den
            count += 1
    return min(max(total / count, 0.0), 1.0)


def legacy_ssim_quality(a, b, params=None):
    """ssim_quality as first written: np.cumsum integral images and whole-array temporaries."""
    from semcom.errors import TooSmallError
    from semcom.metrics import SsimQuality, _check_shapes

    if params is None:
        params = SsimQuality()

    def _window_means(arr, w):
        c = np.cumsum(np.cumsum(arr, axis=0), axis=1)
        c = np.pad(c, ((1, 0), (1, 0)))
        return (c[w:, w:] - c[:-w, w:] - c[w:, :-w] + c[:-w, :-w]) / (w * w)

    _check_shapes(a, b)
    w = params.window
    if a.width < w or a.height < w:
        raise TooSmallError(f"both dimensions must be >= window {w}, got {a.width}x{a.height}")
    x, y = a.pixels, b.pixels
    mx = _window_means(x, w)
    my = _window_means(y, w)
    # sample (not Bessel-corrected) second moments
    vx = _window_means(x * x, w) - mx * mx
    vy = _window_means(y * y, w) - my * my
    cov = _window_means(x * y, w) - mx * my
    c1, c2 = 0.01**2, 0.03**2
    ssim = ((2.0 * mx * my + c1) * (2.0 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
    return min(max(float(np.mean(ssim)), 0.0), 1.0)


def reference_grid_ssim_quality(a, b, params=None):
    """ssim_quality of two BINARY or LABELS maps from each window's integer sums, in literal loops.

    Pixel v of a K-level map (K = 2 for BINARY) is level round(v (K - 1)).
    Each window sums the levels, their products and their squares as Python
    ints; each mean is one such sum divided by w*w times its level scale,
    rounded once. legacy_ssim_quality's ratio formula and one np.mean follow.
    """
    from semcom.errors import TooSmallError
    from semcom.image import BINARY
    from semcom.metrics import SsimQuality, _check_shapes

    if params is None:
        params = SsimQuality()
    _check_shapes(a, b)
    w = params.window
    if a.width < w or a.height < w:
        raise TooSmallError(f"both dimensions must be >= window {w}, got {a.width}x{a.height}")

    def levels(m):
        scale = 1 if m.kind == BINARY else m.levels - 1
        return [[round(v * scale) for v in row] for row in m.pixels.tolist()], scale

    lx, sx = levels(a)
    ly, sy = levels(b)
    planes = [
        (lx, sx),
        (ly, sy),
        ([[p * q for p, q in zip(r, s)] for r, s in zip(lx, ly)], sx * sy),
        ([[p * p for p in r] for r in lx], sx * sx),
        ([[q * q for q in s] for s in ly], sy * sy),
    ]
    oh, ow = a.height - w + 1, a.width - w + 1
    mx, my, mxy, mxx, myy = (
        np.array([[sum(sum(row[c : c + w]) for row in plane[r : r + w]) / (w * w * scale) for c in range(ow)] for r in range(oh)])
        for plane, scale in planes
    )
    vx = mxx - mx * mx
    vy = myy - my * my
    cov = mxy - mx * my
    c1, c2 = 0.01**2, 0.03**2
    ssim = ((2.0 * mx * my + c1) * (2.0 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
    return min(max(float(np.mean(ssim)), 0.0), 1.0)


def reference_window_ssim_quality(a, b, params=None):
    """ssim_quality from whole-array window sums taken by doubling, in float64.

    A BINARY or LABELS map enters as its levels rint(v (K - 1)), a SOFT map
    as its own values with scale 1. Each w-wide sum is taken down the
    columns and then along the rows: the sums of widths 1, 2, 4, ... each
    add two of the width before, and the ones for the set bits of w are
    added lowest bit first. Each mean is one such sum divided by w*w times
    its plane's scale; legacy_ssim_quality's ratio formula and one np.mean
    follow.
    """
    from semcom.errors import TooSmallError
    from semcom.image import LABELS
    from semcom.metrics import SsimQuality, _check_shapes

    if params is None:
        params = SsimQuality()
    _check_shapes(a, b)
    w = params.window
    if a.width < w or a.height < w:
        raise TooSmallError(f"both dimensions must be >= window {w}, got {a.width}x{a.height}")

    def plane(m):
        scale = m.levels - 1 if m.kind == LABELS else 1
        return (np.rint(m.pixels * scale) if scale > 1 else m.pixels), scale

    def doubled(v, axis):
        total, offset, width, sums = None, 0, 1, v
        while width <= w:
            if w & width:
                part = np.take(sums, range(offset, offset + v.shape[axis] - w + 1), axis=axis)
                total = part if total is None else total + part
                offset += width
            sums = np.take(sums, range(sums.shape[axis] - width), axis=axis) + np.take(sums, range(width, sums.shape[axis]), axis=axis)
            width *= 2
        return total

    (lx, sx), (ly, sy) = plane(a), plane(b)
    mx, my, mxy, mxx, myy = (
        doubled(doubled(p, 0), 1) / (w * w * scale)
        for p, scale in ((lx, sx), (ly, sy), (lx * ly, sx * sy), (lx * lx, sx * sx), (ly * ly, sy * sy))
    )
    vx = mxx - mx * mx
    vy = myy - my * my
    cov = mxy - mx * my
    c1, c2 = 0.01**2, 0.03**2
    ssim = ((2.0 * mx * my + c1) * (2.0 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
    return min(max(float(np.mean(ssim)), 0.0), 1.0)


def reference_vi_quality(a, b, k):
    h, w = a.shape
    joint = {}
    for y in range(h):
        for x in range(w):
            la = min(int(min(a[y, x], 1 - 1e-9) * k), k - 1)
            lb = min(int(min(b[y, x], 1 - 1e-9) * k), k - 1)
            joint[(la, lb)] = joint.get((la, lb), 0) + 1
    n = h * w
    pa = {}
    pb = {}
    for (la, lb), c in joint.items():
        pa[la] = pa.get(la, 0) + c
        pb[lb] = pb.get(lb, 0) + c
    hx = -sum((c / n) * math.log(c / n) for c in pa.values())
    hy = -sum((c / n) * math.log(c / n) for c in pb.values())
    mi = 0.0
    for (la, lb), c in joint.items():
        pxy = c / n
        mi += pxy * math.log(pxy / ((pa[la] / n) * (pb[lb] / n)))
    vi = hx + hy - 2.0 * mi
    return min(max(1.0 - vi / (2.0 * math.log(k)), 0.0), 1.0)


def reference_quality(svc, image, d, rng):
    """One service's quality at factor d, recomputed from the source image on every call."""
    from semcom.codec import decode, encode
    from semcom.extractors import extract
    from semcom.image import restore_kind
    from semcom.metrics import score

    semantic = extract(svc.extractor, image, image_id=svc.id)
    reference = decode(encode(semantic, 1))
    recon = decode(encode(semantic, d))
    if svc.sigma_gen > 0.0:
        noisy = np.clip(recon.pixels + rng.normal(0.0, svc.sigma_gen, recon.pixels.shape), 0.0, 1.0)
        recon = restore_kind(noisy, recon.kind, recon.levels)
    return score(svc.metric, reference, recon)


def reference_encode_action(action, factors):
    """encode_action as a digit loop: service 0 is the most significant base-|D| digit."""
    from semcom.errors import DomainError

    base = len(factors)
    pos = {d: i for i, d in enumerate(factors)}
    index = 0
    for d in action:
        if d not in pos:
            raise DomainError(f"factor {d} not in admissible set {list(factors)}")
        index = index * base + pos[d]
    return index


def reference_decode_action(index, factors, n_services):
    """decode_action as a digit loop, least significant digit first."""
    from semcom.errors import DomainError

    base = len(factors)
    if not 0 <= index < base**n_services:
        raise DomainError(f"action index {index} out of range for {base}^{n_services} actions")
    digits = []
    for _ in range(n_services):
        digits.append(factors[index % base])
        index //= base
    return tuple(reversed(digits))


class ReferenceSgdMomentum:
    """SgdMomentum out of place: each step builds new velocity and parameter arrays."""

    def __init__(self, net, learning_rate, momentum):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.v_weights = [np.zeros_like(w) for w in net.weights]
        self.v_biases = [np.zeros_like(b) for b in net.biases]

    def step(self, net, d_weights, d_biases):
        for i in range(len(net.weights)):
            self.v_weights[i] = self.momentum * self.v_weights[i] - self.learning_rate * d_weights[i]
            self.v_biases[i] = self.momentum * self.v_biases[i] - self.learning_rate * d_biases[i]
            net.weights[i] = net.weights[i] + self.v_weights[i]
            net.biases[i] = net.biases[i] + self.v_biases[i]


def reference_greedy_scan(inst, table):
    """greedy_allocate on a given quality table, scanning one service at a time.

    Each pass takes the move with the best gain per extra byte; the
    strict ``>`` keeps the lowest service index among equal ratios.
    Returns the action and its reward.
    """
    from semcom.allocator import weighted_quality

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
    feasible = total <= inst.channel.budget_bytes
    reward = weighted_quality(inst.weights, table[range(inst.n_services), positions]) if feasible else -1.0
    return action, float(reward)


def reference_dqn_train(pool, config):
    """dqn_train as a literal episode loop that reruns every service's round trip.

    Every episode scores each service with reference_quality, so nothing
    is kept between episodes.  Returns the rewards,
    losses, action indices and the trained network.
    """
    from semcom.allocator import MOMENTUM, epsilon_schedule
    from semcom.codec import encoded_cost
    from semcom.qnet import Mlp, td_loss_and_gradients

    first = pool[0]
    init_rng, instance_rng, explore_rng, replay_rng, eval_rng = np.random.default_rng(config.seed).spawn(5)
    net = Mlp([3 * first.n_services + 1, *config.hidden, first.n_actions], init_rng)
    optimizer = ReferenceSgdMomentum(net, config.learning_rate, MOMENTUM)
    epsilons = epsilon_schedule(config)
    memory = []
    rewards, losses, actions = [], [], []
    for e in range(config.episodes):
        inst = pool[int(instance_rng.integers(len(pool)))]
        state = inst.state_vector
        if float(explore_rng.random()) < epsilons[e]:
            a_idx = int(explore_rng.integers(first.n_actions))
        else:
            a_idx = int(np.argmax(net.forward(state)[0][0]))
        action = reference_decode_action(a_idx, inst.factors, inst.n_services)
        qualities = [
            reference_quality(svc, img, d, eval_rng) for svc, img, d in zip(inst.services, inst.images, action)
        ]
        total = sum(encoded_cost(img.width, img.height, d) for img, d in zip(inst.images, action))
        weights = np.array([svc.weight for svc in inst.services])
        q = np.array(qualities)
        reward = float(np.sum(weights * q) / np.sum(weights)) if total <= inst.channel.budget_bytes else -1.0

        memory.append((state, a_idx, reward))
        if len(memory) >= config.warmup:
            idx = replay_rng.integers(0, len(memory), size=config.batch_size)
            s_b = np.array([memory[i][0] for i in idx])
            a_b = np.array([memory[i][1] for i in idx])
            r_b = np.array([memory[i][2] for i in idx])
            _, d_w, d_b = td_loss_and_gradients(net, s_b, a_b, r_b)
            optimizer.step(net, d_w, d_b)
        rewards.append(reward)
        losses.append(float(np.sum(weights * (1.0 - q)) / np.sum(weights)))
        actions.append(a_idx)
    return np.array(rewards), np.array(losses), np.array(actions), net


def reference_transmit(payload, p, rng):
    """transmit as a literal loop over its geometric gaps, drawn in the same batches.

    Each gap is the distance from one flipped bit to the next, counted from
    position -1; bit ``i`` is bit ``7 - i % 8`` of byte ``i // 8``. The
    loop ends at the first position past the last bit, once its whole batch
    is drawn. Python ints never overflow, so no gap is clipped. Returns the
    delivered payload bytes and the number of flipped bits.
    """
    import semcom.channel

    out = bytearray(payload.payload)
    if p == 0.0:
        return bytes(out), 0
    bits = 8 * len(out)
    position, flipped = -1, 0
    while True:
        for gap in rng.geometric(p, size=semcom.channel._GAP_BATCH).tolist():
            position += gap
            if position >= bits:
                return bytes(out), flipped
            out[position // 8] ^= 1 << (7 - position % 8)
            flipped += 1


def reference_on_label_grid(pixels, k):
    """SemanticMap's K-level grid verdict as first written, with four full-size temporaries."""
    scaled = pixels * (k - 1)
    nearest = np.rint(scaled)
    return bool(np.all(np.abs(scaled - nearest) <= 1e-9))


def legacy_decode(payload):
    """decode as first written: a whole-array upscale, then every kind, soft included, rebuilt through legacy_restore_kind."""
    from semcom.image import Resolution, SemanticMap

    raw = np.frombuffer(payload.payload, dtype=np.uint8).astype(np.float64) / 255.0
    small = SemanticMap(raw.reshape(payload.enc_height, payload.enc_width))
    full = legacy_bilinear_upscale(small, Resolution(payload.orig_width, payload.orig_height))
    return legacy_restore_kind(full.pixels, payload.kind, payload.levels)


def legacy_restore_kind(pixels, kind, levels):
    """restore_kind as first written, over the whole array: np.where, the level floor, then one division."""
    from semcom.image import BINARY, LABELS, SOFT, SemanticMap

    if kind == BINARY:
        return SemanticMap(np.where(pixels >= 0.5, 1.0, 0.0), kind=BINARY)
    if kind == LABELS:
        grid = np.minimum(pixels, 1.0 - 1e-9)
        grid *= levels
        np.floor(grid, out=grid)
        grid /= levels - 1
        return SemanticMap(grid, kind=LABELS, levels=levels)
    return SemanticMap(pixels, kind=SOFT)


def reference_action_rewards(inst, table):
    """Reward of every joint action on a given quality table, one flat index at a time."""
    base = len(inst.factors)
    weights = np.array([svc.weight for svc in inst.services])
    rewards = np.empty(inst.n_actions)
    for index in range(inst.n_actions):
        positions = []
        rem = index
        for _ in range(inst.n_services):
            positions.append(rem % base)
            rem //= base
        positions.reverse()
        total = sum(int(inst.cost_table[s, j]) for s, j in enumerate(positions))
        q = np.array([table[s, j] for s, j in enumerate(positions)])
        rewards[index] = float(np.sum(weights * q) / np.sum(weights)) if total <= inst.channel.budget_bytes else -1.0
    return rewards


def reference_box_downscale(map, d):
    """box_downscale as first written: two np.add.reduceat passes, then one division."""
    from semcom.image import SemanticMap

    if d == 1:
        return SemanticMap(map.pixels)
    arr = map.pixels
    h, w = arr.shape
    row_idx = np.arange(0, h, d)
    col_idx = np.arange(0, w, d)
    sums = np.add.reduceat(np.add.reduceat(arr, row_idx, axis=0), col_idx, axis=1)
    row_counts = np.minimum(row_idx + d, h) - row_idx
    col_counts = np.minimum(col_idx + d, w) - col_idx
    return SemanticMap(sums / np.outer(row_counts, col_counts))


def legacy_encode_payload(map, d):
    """encode's payload bytes by its first route: reference_box_downscale (a new soft map even at d = 1), then rint(v * 255) per byte."""
    small = reference_box_downscale(map, d)
    return np.rint(small.pixels * 255.0).astype(np.uint8).tobytes()


def reference_validate(pixels, kind="soft", levels=None):
    """SemanticMap's checks as first written, each over the whole array; returns the copy it keeps."""
    from semcom.errors import DomainError, ShapeError
    from semcom.image import _KINDS, BINARY, LABELS, MAX_LEVELS

    arr = np.array(pixels, dtype=np.float64, copy=True, order="C")
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"pixels must be a non-empty 2D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("pixel values must be finite")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise DomainError(f"pixel values must lie in [0, 1], got range [{arr.min()}, {arr.max()}]")
    if kind not in _KINDS:
        raise DomainError(f"unknown map kind {kind!r}")
    if kind == BINARY:
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise DomainError("binary map values must be exactly 0 or 1")
    if kind == LABELS:
        if levels is None or levels < 2:
            raise DomainError("labels map needs a level count K >= 2")
        if levels > MAX_LEVELS:
            raise DomainError(f"labels map level count K must be <= {MAX_LEVELS}, got {levels}")
        residue = arr * (levels - 1)
        residue -= np.rint(residue)
        np.abs(residue, out=residue)
        if not np.all(residue <= 1e-9):
            raise DomainError(f"labels map values must lie on the {levels}-level grid")
    elif levels is not None:
        raise DomainError("levels is only meaningful for labels maps")
    return arr


def legacy_bilinear_upscale(map, target):
    """bilinear_upscale as first vectorised: whole-array gathers, the column gathers F-ordered."""
    from semcom.image import SOFT, SemanticMap

    arr = map.pixels
    h, w = arr.shape
    th, tw = target.height, target.width
    if (th, tw) == (h, w):
        return map if map.kind == SOFT else SemanticMap(arr)

    def sample_coords(n_in, n_out):
        if n_out == 1 or n_in == 1:
            return np.zeros(n_out)
        return np.arange(n_out) * ((n_in - 1) / (n_out - 1))

    ys = sample_coords(h, th)
    xs = sample_coords(w, tw)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    left = arr[:, x0]
    rows = arr[:, x1]
    rows -= left
    rows *= fx
    rows += left
    top = rows[y0]
    out = rows[y1]
    out -= top
    out *= fy
    out += top
    return SemanticMap(out)


def legacy_vi_quality(a, b, levels):
    """vi_quality as first vectorised: whole-map int64 levels and one bincount."""
    from semcom.image import quantize_levels
    from semcom.metrics import _check_shapes

    _check_shapes(a, b)
    la = quantize_levels(a.pixels, levels).ravel()
    lb = quantize_levels(b.pixels, levels).ravel()
    n = la.size
    la *= levels
    la += lb
    joint = np.bincount(la, minlength=levels * levels).reshape(levels, levels) / n

    def entropy(p):
        nz = p[p > 0.0]
        return float(-np.sum(nz * np.log(nz)))

    hx = entropy(joint.sum(axis=1))
    hy = entropy(joint.sum(axis=0))
    hxy = entropy(joint.ravel())
    mutual = hx + hy - hxy
    vi = hx + hy - 2.0 * mutual
    return min(max(1.0 - vi / (2.0 * math.log(levels)), 0.0), 1.0)


def _legacy_edge_padded(arr, ry, rx):
    """arr with ry rows and rx columns of clamped border on each side.

    Slice ``[ry + dy : ry + dy + h, rx + dx : rx + dx + w]`` of the result
    is arr shifted by (dy, dx) with border coordinates clamped, for any
    |dy| <= ry and |dx| <= rx, even when the pad is wider than arr.
    """
    return np.pad(arr, ((ry, ry), (rx, rx)), mode="edge")


def _legacy_gaussian_blur(arr, sigma):
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1)
    weights = np.exp(-(offsets.astype(float) ** 2) / (2.0 * sigma * sigma))
    weights /= weights.sum()
    h, w = arr.shape
    # Separable passes with per-axis clamping equal the 2D product kernel.
    # Taps are added in offset order, starting from zero.
    term = np.empty_like(arr)
    out = np.zeros_like(arr)
    padded = _legacy_edge_padded(arr, 0, radius)
    for k in range(offsets.size):
        out += np.multiply(padded[:, k : k + w], weights[k], out=term)
    final = np.zeros_like(arr)
    padded = _legacy_edge_padded(out, radius, 0)
    for k in range(offsets.size):
        final += np.multiply(padded[k : k + h], weights[k], out=term)
    return final


def _legacy_sobel_gradients(arr):
    # Paired differences keep flat regions at exactly zero gradient.  gx
    # smooths the column differences of three adjacent rows, gy the row
    # differences of three adjacent columns.
    padded = _legacy_edge_padded(arr, 1, 1)
    gx = _legacy_smooth_121(padded[:, 2:] - padded[:, :-2], axis=0)
    gy = _legacy_smooth_121(padded[2:] - padded[:-2], axis=1)
    return gx, gy


def _legacy_smooth_121(diff, axis):
    """d[-1] + 2 d[0] + d[1] over neighbouring slices of diff along axis, summed in that order."""
    if axis == 0:
        out = diff[:-2] + diff[1:-1] * 2.0
        out += diff[2:]
    else:
        out = diff[:, :-2] + diff[:, 1:-1] * 2.0
        out += diff[:, 2:]
    return out


_LEGACY_SECTOR_NEIGHBORS = ((0, 1), (1, 1), (1, 0), (1, -1))


def legacy_canny(image, params=None):
    """extractors.canny as first vectorised: every stage over the whole array.

    Binary edge map via blur, Sobel, non-maximum suppression, hysteresis.

    Stages: Gaussian blur (radius ceil(3*sigma), clamped borders), 3x3
    Sobel gradients, direction quantized to 4 sectors, keep-if->= NMS
    along the gradient, double threshold at low/high fractions of the
    maximum magnitude, then 8-connected hysteresis from strong pixels.
    """
    from semcom.errors import DomainError
    from semcom.extractors import Canny
    from semcom.image import BINARY, SemanticMap

    params = Canny() if params is None else params
    if min(image.width, image.height) < 5:
        raise DomainError(f"canny needs min dimension >= 5, got {image.width}x{image.height}")
    blurred = _legacy_gaussian_blur(image.pixels, params.sigma)
    gx, gy = _legacy_sobel_gradients(blurred)
    mag = np.hypot(gx, gy)
    gmax = mag.max()
    if gmax == 0.0:
        return SemanticMap(np.zeros_like(mag), kind=BINARY)

    # Direction modulo 180 degrees.  Adding 180 to the negative angles is
    # what % 180 computes for them; -180 and 180 (0 under %) and -0.0 all
    # fall in sector 0 either way.
    deg = np.degrees(np.arctan2(gy, gx))
    np.add(deg, 180.0, out=deg, where=deg < 0.0)
    bands = [(deg >= lo) & (deg < lo + 45.0) for lo in (22.5, 67.5, 112.5)]
    sectors = [~(bands[0] | bands[1] | bands[2]), *bands]

    h, w = mag.shape
    padded = _legacy_edge_padded(mag, 1, 1)
    keep = np.zeros(mag.shape, dtype=bool)
    for in_sector, (dy, dx) in zip(sectors, _LEGACY_SECTOR_NEIGHBORS):
        fwd = padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]
        bwd = padded[1 - dy : 1 - dy + h, 1 - dx : 1 - dx + w]
        keep |= in_sector & (mag >= fwd) & (mag >= bwd)
    nms = np.where(keep, mag, 0.0)

    strong = nms >= params.high * gmax
    weak = nms >= params.low * gmax
    edges = strong.copy()
    frontier = strong
    while frontier.any():
        # 3x3 dilation as a row pass then a column pass; the centre term
        # adds only pixels already in edges.
        padded = _legacy_edge_padded(frontier, 1, 1)
        rows = padded[:, :-2] | padded[:, 1:-1]
        rows |= padded[:, 2:]
        reach = rows[:-2] | rows[1:-1]
        reach |= rows[2:]
        newly = reach & weak & ~edges
        edges |= newly
        frontier = newly
    return SemanticMap(edges.astype(np.float64), kind=BINARY)


def legacy_sobel_magnitude(image):
    """extractors.sobel_magnitude as first vectorised, over the whole array.

    Gradient magnitude rescaled by its maximum; all-flat input gives zeros.
    """
    from semcom.errors import DomainError
    from semcom.image import SemanticMap

    if min(image.width, image.height) < 3:
        raise DomainError(f"sobel needs min dimension >= 3, got {image.width}x{image.height}")
    gx, gy = _legacy_sobel_gradients(image.pixels)
    mag = np.hypot(gx, gy)
    gmax = mag.max()
    if gmax == 0.0:
        return SemanticMap(np.zeros_like(mag))
    return SemanticMap(mag / gmax)
