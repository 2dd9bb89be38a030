"""Brute-force reference implementations for the property suites.

Every function is a standalone straight-line computation; none call into
the modules they check. Tests (and the `ddhf oracle` CLI) compare these
against the main code paths. The CLI's oracles hold their inputs to the
domain of the code they check: ValueError("<oracle>: <param> must ...").
"""

from __future__ import annotations

import math

import numpy as np

_NEIGHBORS_7 = ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _silu(x: float) -> float:
    return x * _sigmoid(x)


def _softplus(x: float) -> float:
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _softplus_delta(x: float) -> float:
    # step sizes carry a tiny positive floor
    return max(_softplus(x), 1e-30)


def _phi(z: float) -> float:
    if abs(z) < 1e-8:
        return 1.0
    return math.expm1(z) / z


def _check_shape(where: str, t, shape: tuple) -> np.ndarray:
    """t as an array of `shape`, in which a str names a free axis; an error
    names `where`, "<oracle>: <param>"."""
    t = np.asarray(t)
    if t.ndim != len(shape) or any(
        isinstance(want, int) and got != want for got, want in zip(t.shape, shape)
    ):
        text = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise ValueError(f"{where} must have shape ({text}), got {t.shape}")
    return t


# ---------------------------------------------------------------------------
# Dense-unrolled selective scan
# ---------------------------------------------------------------------------

FLUSH_EVERY = 32  # steps between flushes of ssm_dense's shrinking products
FLUSH_BELOW = 1e-200


def ssm_dense(
    x: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray, delta: np.ndarray
) -> np.ndarray:
    """out_i = sum_{j<=i} C_i . (prod_{k=j+1..i} Abar_k) Bbar_j x_j + x_i.

    Explicit products and sums, no carried scan state. Float64 output.
    x (n, C); a (C, ds) strictly negative; b, c (n, ds); delta (n, C)
    positive, as `selective_scan` requires.

    The products only shrink with age, so every FLUSH_EVERY steps those
    below FLUSH_BELOW are set to zero (running on through float64
    subnormals would cost about 4x), and the leading history rows that are
    all zero are no longer summed.
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    n, cw = _check_shape("ssm_dense: x", x, ("n", "C")).shape
    ds = _check_shape("ssm_dense: a", a, (cw, "d_state")).shape[1]
    for name, t, shape in (("b", b, (n, ds)), ("c", c, (n, ds)), ("delta", delta, (n, cw))):
        _check_shape(f"ssm_dense: {name}", t, shape)
    if not np.all(a < 0):
        raise ValueError("ssm_dense: a must be strictly negative")
    if not np.all(delta > 0):
        raise ValueError("ssm_dense: delta must be positive")

    za = delta[:, :, None] * a[None, :, :]  # (n, C, ds)
    abar = np.exp(za)
    small = np.abs(za) < 1e-8
    safe = np.where(small, 1.0, za)
    phi = np.where(small, 1.0, np.expm1(safe) / safe)
    bx = phi * delta[:, :, None] * b[:, None, :] * x[:, :, None]

    out = np.zeros((n, cw))
    prods = np.empty((n, cw, ds))  # prods[j] = prod_{k=j+1..i} abar_k
    live = 0  # rows before it are all zero
    for i in range(n):
        prods[live:i] *= abar[i]
        prods[i] = 1.0
        if i % FLUSH_EVERY == 0:
            rows = prods[live:i]
            rows[rows < FLUSH_BELOW] = 0.0
            live += int(np.argmax(np.append(rows.any(axis=(1, 2)), True)))
        s = (prods[live : i + 1] * bx[live : i + 1]).sum(axis=0)
        out[i] = (s * c[i]).sum(axis=-1) + x[i]
    return out


def zoh_quadrature(a: float, b: float, delta: float, panels: int = 2048) -> tuple[float, float]:
    """Abar and Bbar by direct integration: Bbar = (int_0^delta e^{s a} ds) b."""
    s = np.linspace(0.0, delta, 2 * panels + 1)
    vals = np.exp(s * a)
    integral = (delta / (2 * panels)) / 3.0 * (
        vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-1:2].sum()
    )
    return math.exp(a * delta), integral * b


# ---------------------------------------------------------------------------
# Heatmap NMS + top-k
# ---------------------------------------------------------------------------

def nms_topk(heat: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells >= every in-bounds 3x3 neighbor, ranked by (score desc, flat asc).
    heat (K, H, W) in [0, 1], as `pqg.Heatmap` holds; k >= 1."""
    heat = _check_shape("nms_topk: heat", heat, ("K", "H", "W"))
    if not np.all((heat >= 0) & (heat <= 1)):
        raise ValueError("nms_topk: heat must hold values in [0, 1]")
    if k < 1:
        raise ValueError(f"nms_topk: k must be >= 1, got {k}")
    kc, h, w = heat.shape
    cands = []
    for cls in range(kc):
        for r in range(h):
            for col in range(w):
                val = heat[cls, r, col]
                best = True
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, col + dc
                        if 0 <= rr < h and 0 <= cc < w and heat[cls, rr, cc] > val:
                            best = False
                if best:
                    cands.append((float(val), cls * h * w + r * w + col, cls, r, col))
    cands.sort(key=lambda t: (-t[0], t[1]))
    cands = cands[:k]
    pos = np.array([(t[3], t[4]) for t in cands], dtype=np.int64).reshape(-1, 2)
    classes = np.array([t[2] for t in cands], dtype=np.int64)
    scores = np.array([heat[t[2], t[3], t[4]] for t in cands], dtype=np.float32)
    return pos, classes, scores


# ---------------------------------------------------------------------------
# Farthest point sampling
# ---------------------------------------------------------------------------

def fps(points: np.ndarray, n: int) -> np.ndarray:
    """n greedy farthest picks of finite (N, 3) points, 1 <= n <= N, as
    `viewtrans.fps` requires."""
    points = _check_shape("fps: points", points, ("N", 3))
    if not len(points) or not np.all(np.isfinite(points)):
        raise ValueError("fps: points must hold at least one point, all finite")
    if not 1 <= n <= len(points):
        raise ValueError(f"fps: n must be in [1, {len(points)}], got {n}")
    pts = [tuple(float(v) for v in p) for p in points]
    dist = []
    for p in pts:
        dx, dy, dz = p[0] - pts[0][0], p[1] - pts[0][1], p[2] - pts[0][2]
        dist.append(dx * dx + dy * dy + dz * dz)
    chosen = [0]
    for _ in range(1, n):
        best = 0
        for i in range(1, len(pts)):
            if dist[i] > dist[best]:
                best = i
        chosen.append(best)
        q = pts[best]
        for i in range(len(pts)):
            dx, dy, dz = pts[i][0] - q[0], pts[i][1] - q[1], pts[i][2] - q[2]
            d = dx * dx + dy * dy + dz * dz
            if d < dist[i]:
                dist[i] = d
    return np.array(chosen, dtype=np.int64)


# ---------------------------------------------------------------------------
# Pillar height compression
# ---------------------------------------------------------------------------

def height_compress(
    coords: np.ndarray, feats: np.ndarray, extents: tuple[int, int, int]
) -> np.ndarray:
    """(ny, nx, C) channelwise pillar max; empty pillars zero. Positive
    integer extents, integer (n, 3) coords inside them and one (n, C) feats
    row per coord, as `GridSpec` and `SparseVoxelSet` hold."""
    if len(extents) != 3 or min(extents) < 1:
        raise ValueError(f"height_compress: extents must be three positive integers, got {extents}")
    coords = _check_shape("height_compress: coords", coords, ("n", 3))
    # NaN fails every comparison
    if not np.all((coords >= 0) & (coords < extents) & (coords == np.floor(coords))):
        raise ValueError(f"height_compress: coords must be integer cells inside {extents}")
    _check_shape("height_compress: feats", feats, (len(coords), "C"))
    nx, ny = extents[0], extents[1]
    cw = feats.shape[1]
    out = np.zeros((ny, nx, cw), dtype=np.float32)
    pillars: dict[tuple[int, int], list[int]] = {}
    for i, (ix, iy, _iz) in enumerate(coords):
        pillars.setdefault((int(ix), int(iy)), []).append(i)
    for (ix, iy), rows in pillars.items():
        for ch in range(cw):
            out[iy, ix, ch] = max(float(feats[r, ch]) for r in rows)
    return out


# ---------------------------------------------------------------------------
# Voxel neighborhood pooling
# ---------------------------------------------------------------------------

def voxel_pool(
    coords: np.ndarray,
    feats: np.ndarray,
    origin: tuple[float, float, float],
    voxel_size: tuple[float, float, float],
    extents: tuple[int, int, int],
    points: np.ndarray,
) -> np.ndarray:
    table = {tuple(int(v) for v in c): i for i, c in enumerate(coords)}
    cw = feats.shape[1]
    out = np.zeros((points.shape[0], cw), dtype=np.float64)
    for p_idx, p in enumerate(np.asarray(points, dtype=np.float64)):
        cell = tuple(
            int(math.floor((p[ax] - origin[ax]) / voxel_size[ax])) for ax in range(3)
        )
        count = 0
        for off in _NEIGHBORS_7:
            cand = (cell[0] + off[0], cell[1] + off[1], cell[2] + off[2])
            if any(cand[ax] < 0 or cand[ax] >= extents[ax] for ax in range(3)):
                continue
            row = table.get(cand)
            if row is not None:
                out[p_idx] += feats[row].astype(np.float64)
                count += 1
        if count:
            out[p_idx] /= count
    return out.astype(np.float32)


# ---------------------------------------------------------------------------
# Four-direction merge
# ---------------------------------------------------------------------------

def cross_merge(
    seqs: tuple[np.ndarray, ...], perms: tuple[np.ndarray, ...], h: int, w: int
) -> np.ndarray:
    cw = seqs[0].shape[1]
    acc = np.zeros((h * w, cw), dtype=np.float64)
    for seq, perm in zip(seqs, perms):
        for step in range(h * w):
            acc[perm[step]] += seq[step].astype(np.float64)
    return acc.reshape(h, w, cw).astype(np.float32)


# ---------------------------------------------------------------------------
# Query-conditioned grid mixing (scalar)
# ---------------------------------------------------------------------------

def mmvfm_mix(
    q: np.ndarray,
    feats: np.ndarray,
    offsets: np.ndarray,
    off_w, off_b, cw, cb, sw, sb, down_w, down_b,
) -> np.ndarray:
    """q (C,) and feats (G, C), G divisible by 4 as `decoder.GridFeatures`
    holds; the other tensors sized by C and G/4."""
    (c,) = _check_shape("mmvfm_mix: q", q, ("C",)).shape
    g = len(_check_shape("mmvfm_mix: feats", feats, ("G", c)))
    if g % 4:
        raise ValueError(f"mmvfm_mix: feats must have G rows divisible by 4, got {g}")
    gq = g // 4
    shapes = {
        "offsets": (g, 3), "off_w": (3, c), "off_b": (c,), "cw": (c, c * c), "cb": (c * c,),
        "sw": (c, g * gq), "sb": (g * gq,), "down_w": (c * gq, c), "down_b": (c,),
    }
    rest = (offsets, off_w, off_b, cw, cb, sw, sb, down_w, down_b)
    for (name, shape), t in zip(shapes.items(), rest):
        _check_shape(f"mmvfm_mix: {name}", t, shape)
    f = [[0.0] * c for _ in range(g)]
    for i in range(g):
        for ch in range(c):
            acc = float(feats[i, ch]) + float(off_b[ch])
            for ax in range(3):
                acc += float(offsets[i, ax]) * float(off_w[ax, ch])
            f[i][ch] = acc
    ck = [[0.0] * c for _ in range(c)]
    for i in range(c):
        for j in range(c):
            acc = float(cb[i * c + j])
            for ch in range(c):
                acc += float(q[ch]) * float(cw[ch, i * c + j])
            ck[i][j] = acc
    f2 = [[0.0] * c for _ in range(g)]
    for i in range(g):
        for j in range(c):
            f2[i][j] = sum(f[i][ch] * ck[ch][j] for ch in range(c))
    sk = [[0.0] * gq for _ in range(g)]
    for i in range(g):
        for t in range(gq):
            acc = float(sb[i * gq + t])
            for ch in range(c):
                acc += float(q[ch]) * float(sw[ch, i * gq + t])
            sk[i][t] = acc
    mixed = [[0.0] * gq for _ in range(c)]
    for ch in range(c):
        for t in range(gq):
            mixed[ch][t] = sum(f2[i][ch] * sk[i][t] for i in range(g))
    out = np.zeros(c, dtype=np.float64)
    for j in range(c):
        acc = float(down_b[j])
        for ch in range(c):
            for t in range(gq):
                acc += mixed[ch][t] * float(down_w[ch * gq + t, j])
        out[j] = acc
    return out.astype(np.float32)


# ---------------------------------------------------------------------------
# Four-direction scan blocks (scalar)
# ---------------------------------------------------------------------------

def _scan_positions(h: int, w: int) -> list[list[int]]:
    row_fwd = [r * w + c for r in range(h) for c in range(w)]
    col_fwd = [r * w + c for c in range(w) for r in range(h)]
    return [row_fwd, row_fwd[::-1], col_fwd, col_fwd[::-1]]


def _scan_direction(x_flat, a, bmap, cmap, dtmap, order, eps=1e-5):
    """Selective scan along `order`, then per-position layer norm (scale 1)."""
    cw, ds = len(a), len(a[0])
    h_state = [[0.0] * ds for _ in range(cw)]
    normed = {}
    for flat in order:
        y = []
        for ch in range(cw):
            dt = dtmap[flat][ch]
            acc = 0.0
            for s in range(ds):
                za = dt * a[ch][s]
                bb = _phi(za) * dt * bmap[flat][s]
                h_state[ch][s] = math.exp(za) * h_state[ch][s] + bb * x_flat[flat][ch]
                acc += h_state[ch][s] * cmap[flat][s]
            y.append(acc + x_flat[flat][ch])
        mean = sum(y) / cw
        var = sum((v - mean) ** 2 for v in y) / cw
        denom = math.sqrt(var + eps)
        normed[flat] = [(v - mean) / denom for v in y]
    return normed


def _ss2d_scalar(x_flat, a, dir_params, norm_scale, norm_shift, h, w):
    cw = len(a)
    merged = [[0.0] * cw for _ in range(h * w)]
    for k, order in enumerate(_scan_positions(h, w)):
        bmap, cmap, dtmap = dir_params[k]
        normed = _scan_direction(x_flat, a, bmap, cmap, dtmap, order)
        for flat, vals in normed.items():
            for ch in range(cw):
                merged[flat][ch] += vals[ch] * float(norm_scale[k][ch]) + float(
                    norm_shift[k][ch]
                )
    return merged


def _linear_rows(data: np.ndarray, w: np.ndarray, b=None) -> list[list[float]]:
    rows, cols = data.shape[0], w.shape[1]
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = float(b[j]) if b is not None else 0.0
            for k in range(data.shape[1]):
                acc += float(data[i, k]) * float(w[k, j])
            row.append(acc)
        out.append(row)
    return out


def ib_mamba(data: np.ndarray, w) -> np.ndarray:
    """Scalar transcription of the intra-modal four-direction block."""
    h, wd, cw = data.shape
    flat_in = data.reshape(h * wd, cw)
    x = _linear_rows(flat_in, w.in_w, w.in_b)
    x_arr = np.array(x)
    bmap = _linear_rows(x_arr, w.b_w)
    cmap = _linear_rows(x_arr, w.c_w)
    dt_lin = _linear_rows(x_arr, w.dt_w, w.dt_b)
    dtmap = [[_softplus_delta(v) for v in row] for row in dt_lin]
    a = [[float(w.a[ch, s]) for s in range(w.a.shape[1])] for ch in range(cw)]
    merged = _ss2d_scalar(
        x, a, [(bmap, cmap, dtmap)] * 4, w.norm_scale, w.norm_shift, h, wd
    )
    gate_lin = _linear_rows(flat_in, w.y_w, w.y_b)
    out = np.zeros((h * wd, cw))
    for i in range(h * wd):
        gated = [merged[i][ch] * _silu(gate_lin[i][ch]) for ch in range(cw)]
        for j in range(cw):
            acc = float(flat_in[i, j]) + float(w.out_b[j])
            for ch in range(cw):
                acc += gated[ch] * float(w.out_w[ch, j])
            out[i, j] = acc
    return out.reshape(h, wd, cw)


def cb_mamba(img: np.ndarray, lid: np.ndarray, w) -> np.ndarray:
    """Scalar transcription of the cross-modal block with joint parameters."""
    h, wd, cw = img.shape
    n = h * wd
    ds = w.img.a.shape[1]
    flat_img = img.reshape(n, cw)
    flat_lid = lid.reshape(n, cw)
    f_comb = np.concatenate([flat_img, flat_lid], axis=1)

    t1_lin = _linear_rows(f_comb, w.t1_w, w.t1_b)
    t1 = [
        [
            _silu(v * float(w.bn_scale[j]) + float(w.bn_shift[j]))
            for j, v in enumerate(row)
        ]
        for row in t1_lin
    ]
    t = _linear_rows(np.array(t1), w.t2_w, w.t2_b)

    span = 2 * ds + cw
    split = []
    for modality in range(2):
        dirs = []
        for k in range(4):
            off = (modality * 4 + k) * span
            bmap = [row[off : off + ds] for row in t]
            cmap = [row[off + ds : off + 2 * ds] for row in t]
            dtmap = [[_softplus_delta(v) for v in row[off + 2 * ds : off + span]] for row in t]
            dirs.append((bmap, cmap, dtmap))
        split.append(dirs)

    a_img = [[float(w.img.a[ch, s]) for s in range(ds)] for ch in range(cw)]
    a_lid = [[float(w.lid.a[ch, s]) for s in range(ds)] for ch in range(cw)]
    x_img = _linear_rows(flat_img, w.img.in_w, w.img.in_b)
    x_lid = _linear_rows(flat_lid, w.lid.in_w, w.lid.in_b)
    ss_img = _ss2d_scalar(x_img, a_img, split[0], w.img.norm_scale, w.img.norm_shift, h, wd)
    ss_lid = _ss2d_scalar(x_lid, a_lid, split[1], w.lid.norm_scale, w.lid.norm_shift, h, wd)

    gate_lin = _linear_rows(np.array(t), w.gate_w, w.gate_b)
    out = np.zeros((n, cw))
    for i in range(n):
        for ch in range(cw):
            y = _silu(gate_lin[i][ch])
            out[i, ch] = (
                y * ss_img[i][ch]
                + (1.0 - y) * ss_lid[i][ch]
                + 0.5 * (float(flat_img[i, ch]) + float(flat_lid[i, ch]))
            )
    return out.reshape(h, wd, cw)


# ---------------------------------------------------------------------------
# Hilbert curve (scalar transcription) and adjacency walk
# ---------------------------------------------------------------------------

def hilbert_index(x: int, y: int, z: int, bits: int) -> int:
    ax = [x, y, z]
    q = 1 << (bits - 1)
    while q > 1:
        p = q - 1
        for i in range(3):
            if ax[i] & q:
                ax[0] ^= p
            else:
                t = (ax[0] ^ ax[i]) & p
                ax[0] ^= t
                ax[i] ^= t
        q >>= 1
    for i in range(1, 3):
        ax[i] ^= ax[i - 1]
    t = 0
    q = 1 << (bits - 1)
    while q > 1:
        if ax[2] & q:
            t ^= q - 1
        q >>= 1
    for i in range(3):
        ax[i] ^= t
    h = 0
    for j in range(bits - 1, -1, -1):
        for i in range(3):
            h = (h << 1) | ((ax[i] >> j) & 1)
    return h


# the walk holds all 8**bits cells: 6 bits is 262,144 cells and about a
# second, and each further bit multiplies time and memory by about 8
WALK_MAX_BITS = 6


def hilbert_walk(bits: int) -> list[tuple[int, int, int, int, int]]:
    """(index, x, y, z, L1 step from previous cell) for every cell, in curve order."""
    if not 1 <= bits <= WALK_MAX_BITS:
        raise ValueError(f"hilbert_walk: bits must be in [1, {WALK_MAX_BITS}], got {bits}")
    side = 1 << bits
    cells = {}
    for x in range(side):
        for y in range(side):
            for z in range(side):
                cells[hilbert_index(x, y, z, bits)] = (x, y, z)
    walk = []
    prev = None
    for h in range(side**3):
        x, y, z = cells[h]
        step = 0 if prev is None else abs(x - prev[0]) + abs(y - prev[1]) + abs(z - prev[2])
        walk.append((h, x, y, z, step))
        prev = (x, y, z)
    return walk


# ---------------------------------------------------------------------------
# Depth-bin splat (scalar)
# ---------------------------------------------------------------------------

def lss_splat(
    feats: np.ndarray,
    depth: np.ndarray,
    intrinsics: np.ndarray,
    extrinsics: np.ndarray,
    stride: int,
    bins: np.ndarray,
    origin: tuple[float, float],
    cell: tuple[float, float],
    nx: int,
    ny: int,
) -> np.ndarray:
    """(ny, nx, C) splat of feats (h, w, C) by depth (h, w, D) at bins (D,),
    on viewtrans.lss_splat's grid: finite origin, positive cell, counts >= 1."""
    if len(origin) != 2 or not all(math.isfinite(v) for v in origin):
        raise ValueError(f"lss_splat: origin must be two finite numbers, got {origin}")
    if len(cell) != 2 or not all(v > 0 for v in cell):
        raise ValueError(f"lss_splat: cell must be two positive numbers, got {cell}")
    for name, count in (("stride", stride), ("nx", nx), ("ny", ny)):
        if count < 1:
            raise ValueError(f"lss_splat: {name} must be >= 1, got {count}")
    feats = _check_shape("lss_splat: feats", feats, ("h", "w", "C"))
    depth = _check_shape("lss_splat: depth", depth, (*feats.shape[:2], "D"))
    _check_shape("lss_splat: intrinsics", intrinsics, (3, 3))
    _check_shape("lss_splat: extrinsics", extrinsics, (4, 4))
    _check_shape("lss_splat: bins", bins, depth.shape[2:])
    h, w, cw = feats.shape
    nbins = depth.shape[2]
    acc = np.zeros((ny, nx, cw), dtype=np.float64)
    fx, fy = float(intrinsics[0, 0]), float(intrinsics[1, 1])
    cx, cy = float(intrinsics[0, 2]), float(intrinsics[1, 2])
    rot = extrinsics[:3, :3]
    trans = extrinsics[:3, 3]
    for i in range(h):
        for j in range(w):
            u, v = float(j * stride), float(i * stride)
            ray = ((u - cx) / fx, (v - cy) / fy, 1.0)
            for k in range(nbins):
                d = float(bins[k])
                cam = [ray[0] * d, ray[1] * d, d]
                world = [
                    sum((cam[r] - float(trans[r])) * float(rot[r, ax]) for r in range(3))
                    for ax in range(3)
                ]
                gx = math.floor((world[0] - origin[0]) / cell[0])
                gy = math.floor((world[1] - origin[1]) / cell[1])
                if 0 <= gx < nx and 0 <= gy < ny:
                    p = float(depth[i, j, k])
                    for ch in range(cw):
                        acc[gy, gx, ch] += float(feats[i, j, ch]) * p
    return acc.astype(np.float32)


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def project(point, intrinsics: np.ndarray, extrinsics: np.ndarray) -> tuple[float, float, float]:
    cam = [
        sum(float(extrinsics[r, k]) * float(point[k]) for k in range(3))
        + float(extrinsics[r, 3])
        for r in range(3)
    ]
    z = cam[2]
    u = float(intrinsics[0, 0]) * cam[0] / z + float(intrinsics[0, 2])
    v = float(intrinsics[1, 1]) * cam[1] / z + float(intrinsics[1, 2])
    return u, v, z


def bilinear(grid: np.ndarray, u: float, v: float) -> np.ndarray:
    h, w = grid.shape[:2]
    u = min(max(u, 0.0), w - 1.0)
    v = min(max(v, 0.0), h - 1.0)
    u0, v0 = int(math.floor(u)), int(math.floor(v))
    u1, v1 = min(u0 + 1, w - 1), min(v0 + 1, h - 1)
    fu, fv = u - u0, v - v0
    g = grid.astype(np.float64)
    top = g[v0, u0] * (1 - fu) + g[v0, u1] * fu
    bot = g[v1, u0] * (1 - fu) + g[v1, u1] * fu
    return top * (1 - fv) + bot * fv


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    m, d = q.shape
    n = k.shape[0]
    out = np.zeros((m, v.shape[1]), dtype=np.float64)
    for i in range(m):
        logits = []
        for j in range(n):
            logits.append(
                sum(float(q[i, t]) * float(k[j, t]) for t in range(d)) / math.sqrt(d)
            )
        peak = max(logits)
        weights = [math.exp(l - peak) for l in logits]
        total = sum(weights)
        for j in range(n):
            wgt = weights[j] / total
            for t in range(v.shape[1]):
                out[i, t] += wgt * float(v[j, t])
    return out


def box_surface_deviation(points: np.ndarray, center, size, yaw: float) -> float:
    """Max |signed distance to box surface| over points; 0 when all on surface."""
    c, s = math.cos(yaw), math.sin(yaw)
    worst = 0.0
    for p in np.asarray(points, dtype=np.float64):
        dx, dy, dz = p[0] - center[0], p[1] - center[1], p[2] - center[2]
        local = (c * dx + s * dy, -s * dx + c * dy, dz)
        margin = max(abs(local[ax]) - size[ax] / 2.0 for ax in range(3))
        worst = max(worst, abs(margin))
    return worst


def voxelize_ref(
    points: np.ndarray,
    origin: tuple[float, float, float],
    voxel_size: tuple[float, float, float],
    extents: tuple[int, int, int],
) -> dict:
    """Per-cell (mean offsets, mean intensity, count) keyed by integer coords."""
    groups: dict[tuple[int, int, int], list] = {}
    for p in np.asarray(points, dtype=np.float64):
        cell = tuple(
            int(math.floor((p[ax] - origin[ax]) / voxel_size[ax])) for ax in range(3)
        )
        if any(cell[ax] < 0 or cell[ax] >= extents[ax] for ax in range(3)):
            continue
        groups.setdefault(cell, []).append(p)
    out = {}
    for cell, pts in groups.items():
        n = len(pts)
        centers = [origin[ax] + (cell[ax] + 0.5) * voxel_size[ax] for ax in range(3)]
        mean_off = [sum(p[ax] - centers[ax] for p in pts) / n for ax in range(3)]
        mean_int = sum(p[3] for p in pts) / n
        out[cell] = np.array(mean_off + [mean_int, float(n)])
    return out


# ---------------------------------------------------------------------------
# Evaluation reference
# ---------------------------------------------------------------------------

def eval_reference(dets: list[dict], gts: list[dict], thresholds) -> dict:
    """Greedy center-distance matching and 101-point AP, all in plain python."""
    classes = sorted({int(g["class"]) for g in gts})
    result = {}
    for cls in classes:
        cd = [d for d in dets if int(d["class"]) == cls]
        cg = [g for g in gts if int(g["class"]) == cls]
        for thr in thresholds:
            order = sorted(range(len(cd)), key=lambda i: (-float(cd[i]["score"]), i))
            taken = set()
            flags = []
            for i in order:
                best, best_dist = None, float(thr)
                for gi, g in enumerate(cg):
                    if gi in taken:
                        continue
                    dist = math.hypot(
                        float(cd[i]["center"][0]) - float(g["center"][0]),
                        float(cd[i]["center"][1]) - float(g["center"][1]),
                    )
                    if dist <= float(thr) and (best is None or dist < best_dist):
                        best, best_dist = gi, dist
                if best is not None:
                    taken.add(best)
                flags.append(best is not None)
            tp = 0
            prec, rec = [], []
            for rank, flag in enumerate(flags, start=1):
                tp += 1 if flag else 0
                prec.append(tp / rank)
                rec.append(tp / len(cg))
            total = 0.0
            for step in range(101):
                r = step / 100.0
                candidates = [p for p, rc in zip(prec, rec) if rc >= r - 1e-12]
                total += max(candidates) if candidates else 0.0
            result[(cls, float(thr))] = total / 101.0
    return result
