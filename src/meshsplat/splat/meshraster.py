"""Z-buffered triangle rasterization with barycentric attribute
interpolation, used for the canonical front/back deformation maps and for
mesh renders under a scene camera.

The rasterizer is one vectorized pass with no per-triangle loop. Each
face is tested over the pixel centres of its vertex bounding box, widened
by a margin that covers the inside test's tolerance and rounding (see
``_rasterize``); its (face, pixel) pairs are expanded with repeat/cumsum
indexing, as tile binning does. Each pair's pixel centre is tested with
Pineda's edge functions ("A Parallel Algorithm for Polygon
Rasterization", SIGGRAPH 1988), which also give its barycentric weights
and interpolated depth. The z-buffer is two scatter-minimums per pixel:
the least depth, then the lowest face index among the pairs at that
depth. The result is the same, bit for bit, as filling a z-buffer one
triangle at a time in index order with a strict ``<`` depth test.

Interpolation uses screen-space barycentric weights, so for a fixed mesh
every output pixel is an exact fixed linear combination of three vertex
attributes. The returned cache holds that structure as two sparse
matrices, one per direction, built once and applied as CSR products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from ..assets import Camera, DeformationMap, ValidationError
from .projection import camera_project

MAP_MARGIN = 0.05  # fractional bbox margin for front/back maps
_CHUNK_PAIRS = 1 << 17  # (face, pixel) pairs evaluated at once; bounds scratch memory


@dataclass
class RasterCache:
    """Per-pixel linear structure: value(px) = sum_k weight_k * attr[vidx_k].

    The covered pixels are distinct and in row-major order. ``apply`` and
    ``backward`` are products with the [H*W, V] matrix of this structure
    and with its transpose, both in CSR form and built on first use. A
    CSR row sums its entries from 0.0 in stored order, so the forward
    rows keep the corners in order k = 0, 1, 2 (the order of the weighted
    sum) and each transposed row keeps its vertex's entries in (corner,
    pixel) order: the summation order of three ``np.add.at`` scatters,
    one per corner.
    """

    pix_rows: np.ndarray   # [P] row of each covered pixel
    pix_cols: np.ndarray   # [P]
    vidx: np.ndarray       # [P,3] vertex indices
    weights: np.ndarray    # [P,3] barycentric weights
    height: int
    width: int
    n_verts: int

    @cached_property
    def _pix(self) -> np.ndarray:
        return self.pix_rows * self.width + self.pix_cols

    @cached_property
    def mask(self) -> np.ndarray:
        """[H, W] coverage, read-only: every ``apply`` returns this array."""
        mask = np.zeros(self.height * self.width, dtype=bool)
        mask[self._pix] = True
        mask.flags.writeable = False
        return mask.reshape(self.height, self.width)

    @cached_property
    def _forward(self) -> sparse.csr_matrix:
        counts = np.zeros(self.height * self.width, dtype=np.int64)
        counts[self._pix] = 3
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return sparse.csr_matrix((self.weights.ravel(), self.vidx.ravel(), indptr),
                                 shape=(self.height * self.width, self.n_verts))

    @cached_property
    def _transpose(self) -> sparse.csr_matrix:
        corner_major = self.vidx.T.ravel()
        order = np.argsort(corner_major, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(corner_major, minlength=self.n_verts))])
        return sparse.csr_matrix((self.weights.T.ravel()[order], np.tile(self._pix, 3)[order], indptr),
                                 shape=(self.n_verts, self.height * self.width))

    def apply(self, attrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interpolate [V,C] attributes to an [H,W,C] image in their own
        precision (float32 at least; summed in float64) and the coverage
        mask."""
        vals = self._forward @ attrs.astype(np.float64)
        img = vals.reshape(self.height, self.width, -1)
        return img.astype(np.promote_types(attrs.dtype, np.float32), copy=False), self.mask

    def backward(self, d_img: np.ndarray) -> np.ndarray:
        """Scatter [H,W,C] image gradients back to [V,C] float64 vertex
        attribute gradients."""
        return self._transpose @ d_img.reshape(self.height * self.width, -1).astype(np.float64)


def _check_finite(verts: np.ndarray) -> None:
    bad = np.nonzero(~np.isfinite(verts).all(axis=1))[0]
    if bad.size:
        raise ValidationError(f"non-finite vertex at indices {bad[:16].tolist()}")


def _nearest_per_pixel(pix: np.ndarray, zi: np.ndarray, face: np.ndarray, n_pix: int) -> np.ndarray:
    """Index of the nearest candidate of each covered pixel.

    The z-buffer's strict ``zi < zbuf`` rule over faces in index order:
    least depth wins, and the lower face index on an exact tie. A face
    is a candidate at most once per pixel, so each pixel keeps one.
    """
    zbuf = np.full(n_pix, np.inf)
    np.minimum.at(zbuf, pix, zi)
    cand = np.nonzero(zi == zbuf[pix])[0]
    fbuf = np.full(n_pix, np.iinfo(np.int64).max)
    np.minimum.at(fbuf, pix[cand], face[cand])
    return cand[face[cand] == fbuf[pix[cand]]]


def _rasterize(pts2d: np.ndarray, z: np.ndarray, faces: np.ndarray, width: int, height: int) -> RasterCache:
    """Edge-function test of each face's pixel box, then a per-pixel
    z-buffer; z smaller = closer. Pixel centers at +0.5.

    A face's box holds the pixel centres within m = 1e-4 + 1e-6 * e px of
    its vertex bbox, e the bbox's larger side. A centre that passes the
    inside test (every barycentric >= -1e-9 as computed) has exact
    barycentrics >= -(1e-9 + r), r their rounding, so it lies in the
    triangle grown about its centroid by at most 2 (1e-9 + r) e per axis.
    At distance d beyond the bbox, r is a small multiple of
    2^-53 (e + d)^2 / |denom|. For |denom| >= 1e-3 e^2 (and e >= 7e-7 px,
    which |denom| >= 1e-12 implies) that growth stays far below d for
    every d >= m below the 1 px the loop's box reaches, so no centre
    outside the box can pass. A face under that bound (a sliver) keeps
    the loop's box, floor(min - 0.5) .. ceil(max + 0.5), and every box is
    cut to the loop's box, which bounds far-off faces, whose margin is
    huge.
    """
    tris = faces.astype(np.int64)
    p = pts2d.astype(np.float64)
    z = z.astype(np.float64)
    ax, ay = p[tris[:, 0], 0], p[tris[:, 0], 1]
    bx, by = p[tris[:, 1], 0], p[tris[:, 1], 1]
    cx, cy = p[tris[:, 2], 0], p[tris[:, 2], 1]
    za, zb, zc = z[tris[:, 0]], z[tris[:, 1]], z[tris[:, 2]]
    denom = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    xmin, xmax = np.minimum(np.minimum(ax, bx), cx), np.maximum(np.maximum(ax, bx), cx)
    ymin, ymax = np.minimum(np.minimum(ay, by), cy), np.maximum(np.maximum(ay, by), cy)
    ext = np.maximum(xmax - xmin, ymax - ymin)
    margin = np.where(np.abs(denom) >= 1e-3 * ext * ext, 1e-4 + 1e-6 * ext, np.inf)
    # clipped in float before the integer cast, so far-off vertices
    # cannot overflow it
    x0 = np.clip(np.maximum(np.floor(xmin - 0.5), np.ceil(xmin - margin - 0.5)), 0, width).astype(np.int64)
    x1 = np.clip(np.minimum(np.ceil(xmax + 0.5), np.floor(xmax + margin - 0.5)), -1, width - 1).astype(np.int64)
    y0 = np.clip(np.maximum(np.floor(ymin - 0.5), np.ceil(ymin - margin - 0.5)), 0, height).astype(np.int64)
    y1 = np.clip(np.minimum(np.ceil(ymax + 0.5), np.floor(ymax + margin - 0.5)), -1, height - 1).astype(np.int64)
    live = np.nonzero((np.abs(denom) >= 1e-12) & (x1 >= x0) & (y1 >= y0))[0]
    nx = (x1 - x0 + 1)[live]
    counts = nx * (y1 - y0 + 1)[live]
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if live.size else 0

    # The (face, box pixel) pairs, face by face and row-major inside a
    # box, are numbered 0..total-1 and evaluated _CHUNK_PAIRS at a time.
    # Each chunk keeps its nearest pair per pixel; the chunks' winners
    # are resolved again at the end under the same rule. The empty first
    # entry gives a mesh with no pairs an empty cache of the same dtypes.
    winners = [(np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64), np.empty((3, 0)))]
    for lo in range(0, total, _CHUNK_PAIRS):
        hi = min(lo + _CHUNK_PAIRS, total)
        ka = int(np.searchsorted(ends, lo, side="right"))
        kb = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        k = np.repeat(np.arange(ka, kb), np.minimum(ends[ka:kb], hi) - np.maximum(starts[ka:kb], lo))
        within = np.arange(lo, hi) - starts[k]
        # within // nx in float: the quotient lies at least 0.5 / nx from
        # an integer, so the floor is exact, and it is much faster than
        # int64 division
        row = np.floor((within + 0.5) / nx[k]).astype(np.int64)
        f = live[k]
        px = x0[f] + (within - row * nx[k])
        py = y0[f] + row
        gx = px + 0.5
        gy = py + 0.5
        fax, fay, fbx, fby, fcx, fcy, fd = ax[f], ay[f], bx[f], by[f], cx[f], cy[f], denom[f]
        w0 = ((fbx - gx) * (fcy - gy) - (fby - gy) * (fcx - gx)) / fd
        w1 = ((fcx - gx) * (fay - gy) - (fcy - gy) * (fax - gx)) / fd
        w2 = 1.0 - w0 - w1
        keep = np.nonzero((w0 >= -1e-9) & (w1 >= -1e-9) & (w2 >= -1e-9))[0]
        fk = f[keep]
        zi = w0[keep] * za[fk] + w1[keep] * zb[fk] + w2[keep] * zc[fk]
        near = zi < np.inf
        keep, zi = keep[near], zi[near]
        pix = py[keep] * width + px[keep]
        best = _nearest_per_pixel(pix, zi, f[keep], width * height)
        sel = keep[best]
        winners.append((pix[best], zi[best], f[sel], np.stack([w0[sel], w1[sel], w2[sel]])))

    pix, zi, f, w = (np.concatenate(parts, axis=-1) for parts in zip(*winners))
    best = _nearest_per_pixel(pix, zi, f, width * height)
    slot = np.full(width * height, -1)
    slot[pix[best]] = best
    best = slot[slot >= 0]  # row-major pixel order
    return RasterCache(
        pix_rows=pix[best] // width,
        pix_cols=pix[best] % width,
        vidx=tris[f[best]],
        weights=np.ascontiguousarray(w[:, best].T),
        height=height,
        width=width,
        n_verts=pts2d.shape[0],
    )


def map_bounds(verts: np.ndarray) -> np.ndarray:
    """(xmin, xmax, zmin, zmax) of the canonical bbox plus ``MAP_MARGIN``."""
    xmin, xmax = float(verts[:, 0].min()), float(verts[:, 0].max())
    zmin, zmax = float(verts[:, 2].min()), float(verts[:, 2].max())
    mx = MAP_MARGIN * max(xmax - xmin, 1e-6)
    mz = MAP_MARGIN * max(zmax - zmin, 1e-6)
    return np.array([xmin - mx, xmax + mx, zmin - mz, zmax + mz], dtype=np.float32)


def map_projection(verts: np.ndarray, bounds: np.ndarray, resolution: int | tuple[int, int]):
    """World (x, z) to map pixel coordinates, shared by front and back."""
    if isinstance(resolution, int):
        w = h = resolution
    else:
        w, h = resolution
    xmin, xmax, zmin, zmax = (float(v) for v in bounds)
    px = (verts[:, 0] - xmin) / (xmax - xmin) * w
    py = (zmax - verts[:, 2]) / (zmax - zmin) * h
    return np.stack([px, py], axis=1), w, h


def _map_cache(verts: np.ndarray, faces: np.ndarray, side: str, resolution, bounds) -> RasterCache:
    """Orthographic raster along +y (front) or -y (back) into map pixels."""
    pts2d, w, h = map_projection(verts.astype(np.float64), bounds, resolution)
    depth = -verts[:, 1] if side == "front" else verts[:, 1]
    return _rasterize(pts2d, depth.astype(np.float64), faces, w, h)


def map_caches(
    verts: np.ndarray,
    faces: np.ndarray,
    resolution: int | tuple[int, int],
    bounds: np.ndarray | None = None,
) -> tuple[RasterCache, RasterCache, np.ndarray]:
    """Front/back canonical raster structure of a mesh, built once and
    applied to any per-vertex field with ``apply_map_caches``.

    Both sides share one pixel layout over ``bounds`` (default
    ``map_bounds(verts)``); only the depth test flips, so a closed mesh
    gives identical silhouettes on both. Returns (front, back, bounds).
    """
    if faces.size == 0:
        raise ValueError("mesh must be non-empty")
    if min(np.atleast_1d(resolution)) < 1:
        raise ValidationError(f"map resolution must be at least 1 px, got {resolution}")
    _check_finite(verts)
    if bounds is None:
        bounds = map_bounds(verts)
    return (_map_cache(verts, faces, "front", resolution, bounds),
            _map_cache(verts, faces, "back", resolution, bounds),
            np.asarray(bounds, dtype=np.float32))


def apply_map_caches(front: RasterCache, back: RasterCache, bounds: np.ndarray,
                     attrs: np.ndarray) -> DeformationMap:
    """Interpolate a per-vertex 3-vector field to both canonical map sides
    (float32 maps, summed in float64)."""
    fimg, fmask = front.apply(attrs)
    bimg, bmask = back.apply(attrs)
    return DeformationMap(front=fimg.astype(np.float32, copy=False), back=bimg.astype(np.float32, copy=False),
                          front_mask=fmask, back_mask=bmask, bounds=bounds)


def rasterize_mesh_camera(
    verts: np.ndarray,
    faces: np.ndarray,
    attrs: np.ndarray,
    camera: Camera,
) -> tuple[np.ndarray, np.ndarray, RasterCache]:
    """Mesh attribute render under a scene camera (z-buffered), in the
    attributes' precision (float32 at least).

    Vertices are projected by ``projection.camera_project``, as the
    splatter's Gaussian means are; a face with any vertex at or behind
    the near plane, or at or past the far plane, is dropped, as the
    splatter culls Gaussians there.
    """
    camera.validate()
    _check_finite(verts)
    x_cam, pts2d, _ = camera_project(verts, camera)
    z = x_cam[:, 2]
    keep = ~((z <= camera.near) | (z >= camera.far))[faces.astype(np.int64)].any(axis=1)
    cache = _rasterize(pts2d, z, faces[keep], *camera.resolution)
    img, mask = cache.apply(attrs)
    return img, mask, cache
