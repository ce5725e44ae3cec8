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
    c1, c2 = params.c1, params.c2
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


def reference_dqn_train(pool, config):
    """dqn_train as a literal episode loop that reruns every service's round trip.

    Every episode scores each service with reference_quality, so nothing
    is kept between episodes.  Returns the rewards,
    losses, action indices and the trained network.
    """
    from semcom.allocator import MOMENTUM, decode_action, epsilon_schedule
    from semcom.codec import encoded_cost
    from semcom.qnet import Mlp, SgdMomentum, td_loss_and_gradients

    first = pool[0]
    init_rng, instance_rng, explore_rng, replay_rng, eval_rng = np.random.default_rng(config.seed).spawn(5)
    net = Mlp([3 * first.n_services + 1, *config.hidden, first.n_actions], init_rng)
    optimizer = SgdMomentum(net, config.learning_rate, MOMENTUM)
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
        action = decode_action(a_idx, inst.factors, inst.n_services)
        qualities = [
            reference_quality(svc, img, d, eval_rng) for svc, img, d in zip(inst.services, inst.images, action)
        ]
        total = sum(encoded_cost(img.width, img.height, d) for img, d in zip(inst.images, action))
        weights = np.array([svc.weight for svc in inst.services])
        q = np.array(qualities)
        reward = float(np.sum(weights * q) / np.sum(weights)) if total <= inst.channel.budget_bytes else -1.0

        entry = (state, a_idx, reward)
        if len(memory) < config.buffer_capacity:
            memory.append(entry)
        else:
            memory[e % config.buffer_capacity] = entry
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
    """transmit as first written, drawing every per-bit uniform at once.

    Returns the delivered payload bytes and the number of flipped bits.
    """
    raw = np.frombuffer(payload.payload, dtype=np.uint8)
    if p == 0.0:
        return raw.tobytes(), 0
    flips = rng.random((raw.size, 8)) < p
    mask = np.packbits(flips, axis=1).ravel()
    return (raw ^ mask).tobytes(), int(flips.sum())


def reference_on_label_grid(pixels, k):
    """SemanticMap's K-level grid verdict as first written, with four full-size temporaries."""
    scaled = pixels * (k - 1)
    nearest = np.rint(scaled)
    return bool(np.all(np.abs(scaled - nearest) <= 1e-9))


def legacy_decode(payload):
    """decode as first written: every kind, soft included, rebuilt through restore_kind."""
    from semcom.image import Resolution, SemanticMap, bilinear_upscale, restore_kind

    raw = np.frombuffer(payload.payload, dtype=np.uint8).astype(np.float64) / 255.0
    small = SemanticMap(raw.reshape(payload.enc_height, payload.enc_width))
    full = bilinear_upscale(small, Resolution(payload.orig_width, payload.orig_height))
    return restore_kind(full.pixels, payload.kind, payload.levels)


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


def reference_validate(pixels, kind="soft", levels=None):
    """SemanticMap's checks as first written, each over the whole array; returns the copy it keeps."""
    from semcom.errors import DomainError, ShapeError
    from semcom.image import _KINDS, BINARY, LABELS

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
