"""The benchmark's own reference compositor and workload counters.

The reference composites every visible Gaussian in one global
(depth, index) order, with no binning and no tiles, in the closed form
of the renderer's module docstring; its tolerance is that of the
renderer-oracle acceptance criterion. The counters describe how much
work the tile compositor is given and how much of it is useful. Both run
outside the timed spans.
"""

from __future__ import annotations

import inspect

import numpy as np

from meshsplat.splat import tiles
from meshsplat.splat.projection import project_gaussians  # never wrapped by the tracer

TILE = 16
CUTOFF_SQ = 9.0      # 3-sigma footprint, Mahalanobis^2
W_MAX = 0.999
TOLERANCE = 1e-5     # max per-channel deviation from the reference
RANGE_SLACK = 1e-12  # float64 rounding of summed contributions (alpha reaches 1 + 2e-15)
SATURATED_T = 1e-4   # transmittance below which 3DGS stops a pixel early
CHUNK = 2048         # Gaussians per block of the reference, bounds its memory


def weights(means2d, conic, opacity, px, py):
    """w[i, p] = min(opacity_i exp(-rho/2), W_MAX), zero beyond the cutoff."""
    dx = px[None, :] - means2d[:, 0:1]
    dy = py[None, :] - means2d[:, 1:2]
    rho = conic[:, 0:1] * dx * dx + 2.0 * conic[:, 1:2] * dx * dy + conic[:, 2:3] * dy * dy
    w = np.minimum(opacity[:, None] * np.exp(-0.5 * rho), W_MAX)
    w[rho > CUTOFF_SQ] = 0.0
    return w


def _pixels(x0, y0, width, height):
    xs = x0 + 0.5 + np.arange(min(TILE, width - x0))
    ys = y0 + 0.5 + np.arange(min(TILE, height - y0))
    px, py = np.meshgrid(xs, ys)
    return px.ravel(), py.ravel()


def reference_tile(means2d, conic, opacity, values, order, x0, y0, width, height):
    """Composite ``values`` (and alpha, appended last) over one tile's
    pixels, front to back in ``order``. Returns [h, w, C+1]."""
    px, py = _pixels(x0, y0, width, height)
    trans = np.ones(px.size)
    acc = np.zeros((px.size, values.shape[1] + 1))
    for s in range(0, order.size, CHUNK):
        ids = order[s:s + CHUNK]
        w = weights(means2d[ids], conic[ids], opacity[ids], px, py)
        t_incl = trans[None, :] * np.cumprod(1.0 - w, axis=0)
        contrib = w * np.vstack([trans[None, :], t_incl[:-1]])
        acc[:, :-1] += contrib.T @ values[ids]
        acc[:, -1] += contrib.sum(axis=0)
        trans = t_incl[-1]
    h = min(TILE, height - y0)
    return acc.reshape(h, -1, acc.shape[1])


def frame_image(result) -> np.ndarray:
    """An animate frame's color and alpha as one [H, W, 4] array."""
    t = result.target
    return np.concatenate([t.color, t.alpha[..., None]], axis=2).astype(np.float64)


def check_repeat(result, first: np.ndarray) -> str | None:
    """None if a frame rendered again matches its checked first rendering
    within TOLERANCE, else what failed."""
    err = float(np.abs(frame_image(result) - first).max())
    return None if err <= TOLERANCE else f"repeated frame deviates {err:.3g} from its first rendering"


def check_frame(result, camera, rng, n_tiles=3) -> str | None:
    """None if an animate frame passes, else what failed.

    Every output must be finite and inside [0, 1] up to RANGE_SLACK; then ``n_tiles``
    seeded non-empty tiles must match the reference within TOLERANCE.
    """
    t = result.target
    image = frame_image(result)
    if not np.isfinite(image).all():
        return "non-finite output"
    if image.min() < 0.0 or image.max() > 1.0 + RANGE_SLACK:
        return f"output outside [0,1]: [{image.min():.3g}, {image.max():.3g}]"
    H, W = t.alpha.shape
    pad = np.pad(t.alpha, ((0, -H % TILE), (0, -W % TILE)))
    ty, tx = np.nonzero(pad.reshape(pad.shape[0] // TILE, TILE, -1, TILE).max(axis=(1, 3)) > 0)
    if ty.size == 0:
        return "empty frame"
    world = result.world
    proj = project_gaussians(world.means, world.rot_mats, world.scales, camera)
    idx = np.nonzero(proj.visible)[0]
    order = np.lexsort((idx, proj.depth[idx].astype(np.float32)))
    args = (proj.means2d[idx], proj.conic[idx], world.opacity[idx].astype(np.float64),
            world.color[idx].astype(np.float64), order)
    for k in rng.choice(ty.size, size=min(n_tiles, ty.size), replace=False):
        x0, y0 = int(tx[k]) * TILE, int(ty[k]) * TILE
        ref = reference_tile(*args, x0, y0, W, H)
        got = image[y0:y0 + ref.shape[0], x0:x0 + ref.shape[1]]
        err = float(np.abs(got - ref).max())
        if err > TOLERANCE:
            return f"tile ({x0},{y0}) deviates {err:.3g} from the reference"
    return None


TILE_COUNTERS = ("tiles.pairs", "tiles.active_tiles", "tiles.depth_list_mean", "tiles.depth_list_max",
                 "tiles.dense_evals", "tiles.nonzero_weight_frac", "tiles.covered_px",
                 "tiles.saturated_px_frac")


def tile_counters(means2d, conic, opacity, depth, radius, width, height) -> dict:
    """Work the tile compositor is handed for one composite call.

    ``dense_evals`` counts (pair, tile pixel) weight evaluations and is the
    base of ``nonzero_weight_frac``; ``covered_px`` (pixels any Gaussian
    touches) is the base of ``saturated_px_frac``.
    """
    tile_of, gauss_of = tiles.bin_gaussians(means2d, radius, depth, width, height)
    active, starts, depth_list = np.unique(tile_of, return_index=True, return_counts=True)
    ntx = (width + TILE - 1) // TILE
    op64 = opacity.astype(np.float64)
    dense = nonzero = covered = saturated = 0
    for t, s, n in zip(active, starts, depth_list):
        ids = gauss_of[s:s + n]
        ty, tx = divmod(int(t), ntx)
        px, py = _pixels(tx * TILE, ty * TILE, width, height)
        w = weights(means2d[ids], conic[ids], op64[ids], px, py)
        hit = w > 0.0
        dense += w.size
        nonzero += int(hit.sum())
        touched = hit.any(axis=0)
        covered += int(touched.sum())
        saturated += int((touched & (np.prod(1.0 - w, axis=0) < SATURATED_T)).sum())
    return {
        "tiles.pairs": int(tile_of.size),
        "tiles.active_tiles": int(active.size),
        "tiles.depth_list_mean": float(depth_list.mean()) if active.size else 0.0,
        "tiles.depth_list_max": int(depth_list.max()) if active.size else 0,
        "tiles.dense_evals": dense,
        "tiles.nonzero_weight_frac": nonzero / dense if dense else 0.0,
        "tiles.covered_px": covered,
        "tiles.saturated_px_frac": saturated / covered if covered else 0.0,
    }


def captured_counters(captures: dict) -> dict:
    """Counters over the calls the tracer captured (means over the calls;
    0 where the layer never ran). Call only with the tracer uninstalled."""
    visible = [float(res.visible.sum()) for _, _, res in captures["projection.project_gaussians"]]
    signature = inspect.signature(tiles.composite)
    rows = []
    for args, kwargs, _ in captures["tiles.composite"]:
        a = signature.bind(*args, **kwargs).arguments
        rows.append(tile_counters(a["means2d"], a["conic"], a["opacity"], a["depth"], a["radius"],
                                  a["width"], a["height"]))
    covered = [float(res[1].sum()) for _, _, res in captures["meshraster.rasterize_mesh_camera"]]
    out = {"projection.visible": float(np.mean(visible)) if visible else 0.0}
    for key in TILE_COUNTERS:
        out[key] = float(np.mean([r[key] for r in rows])) if rows else 0.0
    out["meshraster.covered_px"] = float(np.mean(covered)) if covered else 0.0
    return out
