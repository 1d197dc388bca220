"""Z-buffered triangle rasterization with barycentric attribute
interpolation, used for the canonical front/back deformation maps and for
mesh renders under a scene camera.

The rasterizer is one vectorized pass with no per-triangle loop. The
(face, pixel) pairs of every face's clipped pixel bbox are expanded with
repeat/cumsum indexing, as tile binning does. Each pair's pixel centre is
tested with Pineda's edge functions ("A Parallel Algorithm for Polygon
Rasterization", SIGGRAPH 1988), which also give its barycentric weights
and interpolated depth. The z-buffer is two scatter-minimums per pixel:
the least depth, then the lowest face index among the pairs at that
depth. The result is the same, bit for bit, as filling a z-buffer one
triangle at a time in index order with a strict ``<`` depth test.

Interpolation uses screen-space barycentric weights, so for a fixed mesh
every output pixel is an exact fixed linear combination of three vertex
attributes; the returned cache exposes that sparse structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..assets import Camera, DeformationMap, ValidationError
from .projection import camera_project

MAP_MARGIN = 0.05  # fractional bbox margin for front/back maps
_CHUNK_PAIRS = 1 << 17  # (face, pixel) pairs evaluated at once; bounds scratch memory


@dataclass
class RasterCache:
    """Per-pixel linear structure: value(px) = sum_k weight_k * attr[vidx_k]."""

    pix_rows: np.ndarray   # [P] row of each covered pixel
    pix_cols: np.ndarray   # [P]
    vidx: np.ndarray       # [P,3] vertex indices
    weights: np.ndarray    # [P,3] barycentric weights
    height: int
    width: int
    n_verts: int

    def apply(self, attrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interpolate [V,3] attributes to an image + coverage mask."""
        img = np.zeros((self.height, self.width, attrs.shape[1]), dtype=np.float32)
        vals = np.einsum("pk,pkc->pc", self.weights, attrs.astype(np.float64)[self.vidx])
        img[self.pix_rows, self.pix_cols] = vals.astype(np.float32)
        mask = np.zeros((self.height, self.width), dtype=bool)
        mask[self.pix_rows, self.pix_cols] = True
        return img, mask

    def backward(self, d_img: np.ndarray) -> np.ndarray:
        """Scatter image gradients back to vertex attributes.

        One bincount per channel over the corners in order k = 0, 1, 2,
        each over the pixels in order: the summation order of three
        ``np.add.at`` scatters, one per corner.
        """
        g = d_img.astype(np.float64)[self.pix_rows, self.pix_cols]  # [P,C]
        idx = self.vidx.T.ravel()
        contrib = (g.T[:, None, :] * self.weights.T[None]).reshape(g.shape[1], -1)  # [C, 3P]
        d_attrs = np.zeros((self.n_verts, g.shape[1]))
        for c in range(g.shape[1]):
            d_attrs[:, c] = np.bincount(idx, contrib[c], minlength=self.n_verts)
        return d_attrs


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
    """Edge-function test of each face's clipped pixel bbox, then a
    per-pixel z-buffer; z smaller = closer. Pixel centers at +0.5."""
    tris = faces.astype(np.int64)
    p = pts2d.astype(np.float64)
    z = z.astype(np.float64)
    ax, ay = p[tris[:, 0], 0], p[tris[:, 0], 1]
    bx, by = p[tris[:, 1], 0], p[tris[:, 1], 1]
    cx, cy = p[tris[:, 2], 0], p[tris[:, 2], 1]
    za, zb, zc = z[tris[:, 0]], z[tris[:, 1]], z[tris[:, 2]]
    denom = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    # clipped in float before the integer cast, so far-off vertices
    # cannot overflow it
    x0 = np.clip(np.floor(np.minimum(np.minimum(ax, bx), cx) - 0.5), 0, width).astype(np.int64)
    x1 = np.clip(np.ceil(np.maximum(np.maximum(ax, bx), cx) + 0.5), -1, width - 1).astype(np.int64)
    y0 = np.clip(np.floor(np.minimum(np.minimum(ay, by), cy) - 0.5), 0, height).astype(np.int64)
    y1 = np.clip(np.ceil(np.maximum(np.maximum(ay, by), cy) + 0.5), -1, height - 1).astype(np.int64)
    live = np.nonzero((np.abs(denom) >= 1e-12) & (x1 >= x0) & (y1 >= y0))[0]
    nx = (x1 - x0 + 1)[live]
    counts = nx * (y1 - y0 + 1)[live]
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if live.size else 0

    # The (face, bbox pixel) pairs, face by face and row-major inside a
    # bbox, are numbered 0..total-1 and evaluated _CHUNK_PAIRS at a time.
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
    _check_finite(verts)
    if bounds is None:
        bounds = map_bounds(verts)
    return (_map_cache(verts, faces, "front", resolution, bounds),
            _map_cache(verts, faces, "back", resolution, bounds),
            np.asarray(bounds, dtype=np.float32))


def apply_map_caches(front: RasterCache, back: RasterCache, bounds: np.ndarray,
                     attrs: np.ndarray) -> DeformationMap:
    """Interpolate a per-vertex 3-vector field to both canonical map sides."""
    fimg, fmask = front.apply(attrs)
    bimg, bmask = back.apply(attrs)
    return DeformationMap(front=fimg, back=bimg, front_mask=fmask, back_mask=bmask, bounds=bounds)


def rasterize_mesh_camera(
    verts: np.ndarray,
    faces: np.ndarray,
    attrs: np.ndarray,
    camera: Camera,
) -> tuple[np.ndarray, np.ndarray, RasterCache]:
    """Mesh attribute render under a scene camera (z-buffered).

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
