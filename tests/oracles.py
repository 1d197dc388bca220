"""Independent reference implementations the package code never touches.

The brute-force compositor loops per pixel over a global depth sort with
no tiling or binning; the dense tile compositor evaluates every pixel
of a tile against its whole depth list, with no early stop, over its own
radius-square binning (one 3-key lexsort of every pair); the reference
cull takes the least Mahalanobis^2 over all four edges of each pair's
pixel-centre box; the screen covariance is built in the direct form,
world covariance first; the SH table spells out the real basis
polynomials with their normalization constants in closed form; the mesh
rasterizer reference fills a z-buffer one triangle at a time over each
face's loop box, and its cache is applied by a gathered einsum and
differentiated by ``np.add.at`` scatters; D-SSIM blurs the whole
frame, with no occupied window. The weights of the dense references
use the direct per-pixel exponent, not the package's tile-local
quadratic form.

Also here, for the tests only: single-triangle and single-direction
wrappers of the package's batched binding and SH functions.
"""

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from meshsplat.assets import ValidationError
from meshsplat.gstexture import sh_apply, sh_basis, triangle_frames
from meshsplat.splat.tiles import TILE

CUTOFF = 9.0
W_MAX = 0.999


def _tile_pixel_centers(x0: int, y0: int, width: int, height: int):
    w = min(TILE, width - x0)
    h = min(TILE, height - y0)
    xs = x0 + 0.5 + np.arange(w)
    ys = y0 + 0.5 + np.arange(h)
    px = np.stack(np.meshgrid(xs, ys), axis=0).reshape(2, -1)  # [2, h*w]
    return px, w, h


def _weights(means2d, conic, opacity, px):
    """w = alpha * exp(power) truncated at the 3-sigma cutoff. [n, npx]."""
    dx = px[0][None, :] - means2d[:, 0:1]
    dy = px[1][None, :] - means2d[:, 1:2]
    power = -0.5 * (conic[:, 0:1] * dx * dx + conic[:, 2:3] * dy * dy) - conic[:, 1:2] * dx * dy
    w = opacity[:, None] * np.exp(power)
    w[power < -0.5 * CUTOFF] = 0.0
    return np.minimum(w, W_MAX)


def radius_square_pairs(means2d, radius, depth, width, height):
    """(tile, gaussian) pairs of every tile in each Gaussian's square of
    half-width ``radius``, grouped by tile and ordered by (depth, index)
    within a tile: one lexsort of (tile, depth, index) over all pairs."""
    ntx = (width + TILE - 1) // TILE
    nty = (height + TILE - 1) // TILE
    tiles, gauss = [], []
    for i in range(means2d.shape[0]):
        x0 = np.clip(np.floor((means2d[i, 0] - radius[i]) / TILE).astype(np.int64), 0, ntx)
        x1 = np.clip(np.floor((means2d[i, 0] + radius[i]) / TILE).astype(np.int64) + 1, 0, ntx)
        y0 = np.clip(np.floor((means2d[i, 1] - radius[i]) / TILE).astype(np.int64), 0, nty)
        y1 = np.clip(np.floor((means2d[i, 1] + radius[i]) / TILE).astype(np.int64) + 1, 0, nty)
        for ty in range(y0, y1):
            for tx in range(x0, x1):
                tiles.append(ty * ntx + tx)
                gauss.append(i)
    tile, gauss = np.array(tiles, np.int64), np.array(gauss, np.int64)
    order = np.lexsort((gauss, np.asarray(depth)[gauss], tile))
    return tile[order], gauss[order]


def reference_cull(tile_of, gauss_of, means2d, conic, width, height):
    """The pairs, in their order, whose 3-sigma ellipse reaches the box of
    their tile's pixel centres: the least Mahalanobis^2 over the box is 0
    with the mean inside it, else the least of the four edges' minima,
    each the edge's quadratic at its clipped stationary point. The 1e-6
    relative margin is the package's."""
    ntx = (width + TILE - 1) // TILE
    keep = np.zeros(tile_of.size, dtype=bool)
    for k, (t, i) in enumerate(zip(tile_of.tolist(), gauss_of.tolist())):
        ty, tx = divmod(t, ntx)
        mx, my = float(means2d[i, 0]), float(means2d[i, 1])
        a, b, c = (float(x) for x in conic[i])
        xs = (tx * TILE + 0.5 - mx, min(tx * TILE + TILE, width) - 0.5 - mx)
        ys = (ty * TILE + 0.5 - my, min(ty * TILE + TILE, height) - 0.5 - my)
        if xs[0] <= 0.0 <= xs[1] and ys[0] <= 0.0 <= ys[1]:
            keep[k] = True
            continue
        q = []
        for dx in xs:  # vertical edges: dy free in ys
            dy = min(max(-b * dx / c, ys[0]), ys[1])
            q.append(a * dx * dx + 2.0 * b * dx * dy + c * dy * dy)
        for dy in ys:  # horizontal edges: dx free in xs
            dx = min(max(-b * dy / a, xs[0]), xs[1])
            q.append(a * dx * dx + 2.0 * b * dx * dy + c * dy * dy)
        keep[k] = min(q) <= CUTOFF * (1.0 + 1e-6)
    return tile_of[keep], gauss_of[keep]


def brute_force_composite(means2d, conic, opacity, values, depth, width, height):
    """O(pixels x gaussians) compositing. Returns [H, W, C+1], alpha last."""
    n, c = values.shape
    order = np.lexsort((np.arange(n), depth))
    out = np.zeros((height, width, c + 1), dtype=np.float64)
    for row in range(height):
        for col in range(width):
            px, py = col + 0.5, row + 0.5
            trans = 1.0
            acc = np.zeros(c + 1)
            for i in order:
                dx = px - means2d[i, 0]
                dy = py - means2d[i, 1]
                rho = conic[i, 0] * dx * dx + 2.0 * conic[i, 1] * dx * dy + conic[i, 2] * dy * dy
                if rho > CUTOFF:
                    continue
                w = min(opacity[i] * np.exp(-0.5 * rho), W_MAX)
                acc[:c] += values[i] * (w * trans)
                acc[c] += w * trans
                trans *= 1.0 - w
            out[row, col] = acc
    return out


def reference_composite(means2d, conic, opacity, values, depth, radius, width, height):
    """Dense tile compositor: one [n, px] weight block and one running
    product per tile over its whole depth list. Returns ([H, W, C+1] in
    float64, cache of (x0, y0, ids, w) per tile)."""
    n_values = values.shape[1]
    out = np.zeros((height, width, n_values + 1))
    tile_of, gauss_of = radius_square_pairs(means2d, radius, depth, width, height)
    ntx = (width + TILE - 1) // TILE
    val64 = values.astype(np.float64)
    cache = []
    for t in np.unique(tile_of):
        ids = gauss_of[tile_of == t]
        ty, tx = divmod(int(t), ntx)
        px, w_px, h_px = _tile_pixel_centers(tx * TILE, ty * TILE, width, height)
        w = _weights(means2d[ids].astype(np.float64), conic[ids].astype(np.float64),
                     opacity[ids].astype(np.float64), px)
        trans = np.cumprod(1.0 - w, axis=0)
        t_excl = np.empty_like(trans)
        t_excl[0] = 1.0
        t_excl[1:] = trans[:-1]
        contrib = w * t_excl
        block = np.concatenate([val64[ids].T @ contrib, contrib.sum(axis=0)[None]], axis=0)
        out[ty * TILE : ty * TILE + h_px, tx * TILE : tx * TILE + w_px] = (
            block.reshape(n_values + 1, h_px, w_px).transpose(1, 2, 0))
        cache.append((tx * TILE, ty * TILE, ids, w))
    return out, cache


def reference_composite_backward(cache, means2d, conic, opacity, values, d_out):
    """Gradients of the dense compositor (values, alpha value, opacity, 2D
    means), recomputing each tile's running product from its weights."""
    height, width = d_out.shape[:2]
    n = values.shape[0]
    d_values = np.zeros((n, values.shape[1] + 1))
    d_opacity = np.zeros(n)
    d_means = np.zeros((n, 2))
    means64 = means2d.astype(np.float64)
    conic64 = conic.astype(np.float64)
    op64 = np.maximum(opacity.astype(np.float64), 1e-12)
    val_ext = np.concatenate([values.astype(np.float64), np.ones((n, 1))], axis=1)
    for (x0, y0, ids, w) in cache:
        px, w_px, h_px = _tile_pixel_centers(x0, y0, width, height)
        g_tile = d_out[y0 : y0 + h_px, x0 : x0 + w_px].astype(np.float64).transpose(2, 0, 1)
        g_tile = g_tile.reshape(d_out.shape[2], -1)
        trans = np.cumprod(1.0 - w, axis=0)
        t_excl = np.empty_like(trans)
        t_excl[0] = 1.0
        t_excl[1:] = trans[:-1]
        contrib = w * t_excl
        d_values[ids] += contrib @ g_tile.T
        p = val_ext[ids] @ g_tile
        m = contrib * p
        s = np.flip(np.cumsum(np.flip(m, axis=0), axis=0), axis=0) - m
        d_w = p * t_excl - s / (1.0 - w)
        d_w[w >= W_MAX] = 0.0
        d_w[w == 0.0] = 0.0
        d_opacity[ids] += (d_w * (w / op64[ids][:, None])).sum(axis=1)
        dx = px[0][None, :] - means64[ids, 0:1]
        dy = px[1][None, :] - means64[ids, 1:2]
        gx = conic64[ids, 0:1] * dx + conic64[ids, 1:2] * dy
        gy = conic64[ids, 1:2] * dx + conic64[ids, 2:3] * dy
        dww = d_w * w
        d_means[ids, 0] += (dww * gx).sum(axis=1)
        d_means[ids, 1] += (dww * gy).sum(axis=1)
    return d_values[:, :-1], d_values[:, -1], d_opacity, d_means


def reference_dssim(x, y, kernel, c1, c2):
    """Full-frame D-SSIM of ``x`` against ``y`` and its gradient w.r.t.
    ``x`` (as the engine seeds it, with a unit output gradient): every
    blur over the whole image, the closed-form backward of ``ops.DSSIM``
    with no window."""
    def blur(img):
        out = correlate1d(img, kernel, axis=0, mode="constant", cval=0.0)
        return correlate1d(out, kernel, axis=1, mode="constant", cval=0.0)

    mu_x, mu_y = blur(x), blur(y)
    sig_x = blur(x * x) - mu_x * mu_x
    sig_y = blur(y * y) - mu_y * mu_y
    sig_xy = blur(x * y) - mu_x * mu_y
    a1 = mu_x * mu_y * 2.0 + c1
    b1 = mu_x * mu_x + mu_y * mu_y + c1
    a2 = sig_xy * 2.0 + c2
    b2 = sig_x + sig_y + c2
    s = a1 * a2 / (b1 * b2)
    loss = np.asarray((1.0 - s.sum() * (1.0 / s.size)) * 0.5)

    g = np.ones_like(loss)
    d_mu = s * 2.0 * ((mu_y / a1 - mu_x / b1) + (mu_x / b2 - mu_y / a2))
    dx = blur(d_mu) + (y * blur(s / a2) - x * blur(s / b2)) * 2.0
    return loss, dx * (g * -0.5 * (1.0 / s.size))


# real spherical harmonics with closed-form normalizations
_PI = np.pi
SH_TABLE = [
    # l = 0
    lambda x, y, z: 0.5 * np.sqrt(1.0 / _PI) * np.ones_like(x),
    # l = 1 (3DGS sign convention: -y, +z, -x)
    lambda x, y, z: -np.sqrt(3.0 / (4.0 * _PI)) * y,
    lambda x, y, z: np.sqrt(3.0 / (4.0 * _PI)) * z,
    lambda x, y, z: -np.sqrt(3.0 / (4.0 * _PI)) * x,
    # l = 2
    lambda x, y, z: 0.5 * np.sqrt(15.0 / _PI) * x * y,
    lambda x, y, z: -0.5 * np.sqrt(15.0 / _PI) * y * z,
    lambda x, y, z: 0.25 * np.sqrt(5.0 / _PI) * (2.0 * z * z - x * x - y * y),
    lambda x, y, z: -0.5 * np.sqrt(15.0 / _PI) * x * z,
    lambda x, y, z: 0.25 * np.sqrt(15.0 / _PI) * (x * x - y * y),
    # l = 3
    lambda x, y, z: -0.25 * np.sqrt(35.0 / (2.0 * _PI)) * y * (3.0 * x * x - y * y),
    lambda x, y, z: 0.5 * np.sqrt(105.0 / _PI) * x * y * z,
    lambda x, y, z: -0.25 * np.sqrt(21.0 / (2.0 * _PI)) * y * (4.0 * z * z - x * x - y * y),
    lambda x, y, z: 0.25 * np.sqrt(7.0 / _PI) * z * (2.0 * z * z - 3.0 * x * x - 3.0 * y * y),
    lambda x, y, z: -0.25 * np.sqrt(21.0 / (2.0 * _PI)) * x * (4.0 * z * z - x * x - y * y),
    lambda x, y, z: 0.25 * np.sqrt(105.0 / _PI) * z * (x * x - y * y),
    lambda x, y, z: -0.25 * np.sqrt(35.0 / (2.0 * _PI)) * x * (x * x - 3.0 * y * y),
]


def reference_cov2d(jac, rot_mats, scales):
    """Screen covariance rows (a, b, c) in the direct form: the world
    covariance R S^2 R^T, then J Sigma J^T as one 3-operand einsum."""
    rs = rot_mats.astype(np.float64) * scales.astype(np.float64)[:, None, :]
    cov_w = rs @ np.swapaxes(rs, 1, 2)
    full = np.einsum("nab,nbc,ndc->nad", jac, cov_w, jac)
    return np.stack([full[:, 0, 0], full[:, 0, 1], full[:, 1, 1]], axis=1)


def sh_color_oracle(sh, direction):
    """Evaluate SH colors from the polynomial table, plus the 0.5 offset."""
    x, y, z = direction[..., 0], direction[..., 1], direction[..., 2]
    n_terms = sh.shape[-1]
    basis = np.stack([SH_TABLE[i](x, y, z) for i in range(n_terms)], axis=-1)
    return np.einsum("...cb,...b->...c", sh, basis) + 0.5


def reference_rasterize(pts2d, z, faces, width, height):
    """Per-triangle z-buffer loop: for each face in index order, fill the
    pixels of its clipped bbox whose centre passes the edge-function test
    and is strictly nearer than the buffer, so the lower face index wins
    an exact depth tie."""
    from meshsplat.splat.meshraster import RasterCache

    zbuf = np.full((height, width), np.inf)
    fbuf = np.full((height, width), -1, dtype=np.int64)
    wbuf = np.zeros((height, width, 3))

    tris = faces.astype(np.int64)
    p = pts2d.astype(np.float64)
    for fi in range(tris.shape[0]):
        ia, ib, ic = tris[fi]
        a, b, c = p[ia], p[ib], p[ic]
        denom = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if abs(denom) < 1e-12:
            continue
        x0 = max(int(np.floor(min(a[0], b[0], c[0]) - 0.5)), 0)
        x1 = min(int(np.ceil(max(a[0], b[0], c[0]) + 0.5)), width - 1)
        y0 = max(int(np.floor(min(a[1], b[1], c[1]) - 0.5)), 0)
        y1 = min(int(np.ceil(max(a[1], b[1], c[1]) + 0.5)), height - 1)
        if x1 < x0 or y1 < y0:
            continue
        xs = np.arange(x0, x1 + 1) + 0.5
        ys = np.arange(y0, y1 + 1) + 0.5
        gx, gy = np.meshgrid(xs, ys)
        w0 = ((b[0] - gx) * (c[1] - gy) - (b[1] - gy) * (c[0] - gx)) / denom
        w1 = ((c[0] - gx) * (a[1] - gy) - (c[1] - gy) * (a[0] - gx)) / denom
        w2 = 1.0 - w0 - w1
        inside = (w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9)
        if not inside.any():
            continue
        zi = w0 * z[ia] + w1 * z[ib] + w2 * z[ic]
        sub_z = zbuf[y0 : y1 + 1, x0 : x1 + 1]
        closer = inside & (zi < sub_z)
        sub_z[closer] = zi[closer]
        fbuf[y0 : y1 + 1, x0 : x1 + 1][closer] = fi
        wsub = wbuf[y0 : y1 + 1, x0 : x1 + 1]
        wsub[closer] = np.stack([w0[closer], w1[closer], w2[closer]], axis=-1)

    rows, cols = np.nonzero(fbuf >= 0)
    covered = fbuf[rows, cols]
    return RasterCache(pix_rows=rows, pix_cols=cols, vidx=tris[covered], weights=wbuf[rows, cols],
                       height=height, width=width, n_verts=pts2d.shape[0])


def reference_raster_apply(cache, attrs):
    """[H, W, C] float64 image of the cache's weighted sums, one gathered
    einsum over (pixel, corner), and the coverage mask."""
    img = np.zeros((cache.height, cache.width, attrs.shape[1]))
    img[cache.pix_rows, cache.pix_cols] = np.einsum(
        "pk,pkc->pc", cache.weights, attrs.astype(np.float64)[cache.vidx])
    mask = np.zeros((cache.height, cache.width), dtype=bool)
    mask[cache.pix_rows, cache.pix_cols] = True
    return img, mask


def reference_raster_backward(cache, d_img):
    """Vertex gradients by three ``np.add.at`` scatters, one per corner."""
    d_attrs = np.zeros((cache.n_verts, d_img.shape[2]))
    g = d_img.astype(np.float64)[cache.pix_rows, cache.pix_cols]
    for k in range(3):
        np.add.at(d_attrs, cache.vidx[:, k], cache.weights[:, k : k + 1] * g)
    return d_attrs


@dataclass
class TriangleFrame:
    p: np.ndarray  # [3] surface point
    R: np.ndarray  # [3,3] rotation, columns [n, q, n x q]
    e: float       # mean edge length
    n: np.ndarray  # [3] unit normal


def triangle_frame(v1, v2, v3, uv) -> TriangleFrame:
    """Single-triangle frame; see ``gstexture.triangle_frames`` for conventions."""
    verts = np.stack([v1, v2, v3]).astype(np.float64)
    faces = np.array([[0, 1, 2]], dtype=np.int64)
    R, e, n = triangle_frames(verts, faces)
    u, v = float(uv[0]), float(uv[1])
    p = u * verts[0] + v * verts[1] + (1.0 - u - v) * verts[2]
    return TriangleFrame(p=p, R=R[0], e=float(e[0]), n=n[0])


def sh_eval(sh: np.ndarray, direction: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Evaluate SH color along unit directions; DC offset +0.5, no clamp."""
    if degree is None:
        degree = int(np.sqrt(sh.shape[-1])) - 1
    d = np.linalg.norm(direction, axis=-1)
    if np.abs(d - 1.0).max() > 1e-6:
        raise ValidationError("sh_eval expects unit directions")
    return sh_apply(sh, sh_basis(direction, degree))
