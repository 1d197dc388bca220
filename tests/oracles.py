"""Independent reference implementations the package code never touches.

The brute-force compositor loops per pixel over a global depth sort with
no tiling or binning; the SH table spells out the real basis polynomials
with their normalization constants in closed form; the mesh rasterizer
reference fills a z-buffer one triangle at a time.
"""

import numpy as np

CUTOFF = 9.0
W_MAX = 0.999


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


def reference_raster_backward(cache, d_img):
    """Vertex gradients by three ``np.add.at`` scatters, one per corner."""
    d_attrs = np.zeros((cache.n_verts, d_img.shape[2]))
    g = d_img.astype(np.float64)[cache.pix_rows, cache.pix_cols]
    for k in range(3):
        np.add.at(d_attrs, cache.vidx[:, k], cache.weights[:, k : k + 1] * g)
    return d_attrs
