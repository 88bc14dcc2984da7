"""Max-flow instance stand-ins (Table 2, "Maximum-flow" block).

The paper's flow instances are computer-vision benchmarks: stereo
matching (Tsukuba, Venus, Sawtooth) and volumetric cell segmentation
(SimCells, Cells).  Structurally these are BK-style grid networks: one
node per pixel/voxel, 4/6-connected smoothness arcs with a few distinct
capacity levels, and per-pixel terminal arcs from the source / to the
sink whose capacities encode data terms.  The stand-ins reproduce exactly
that structure with a smooth synthetic "intensity" field, quantized to a
handful of levels — quantization is what gives the real instances their
near-regular blocks, which is what the coloring exploits.

Both grid builders share :func:`_grid_network`, which derives every arc
from the quantized field with index arithmetic and makes one
``WeightedDiGraph.from_arrays`` call: no per-arc dict insertion.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import FlowError
from repro.flow.network import FlowNetwork
from repro.graphs.digraph import WeightedDiGraph
from repro.utils.rng import SeedLike, ensure_rng


def _smooth_field(
    shape: tuple[int, ...], levels: int, rng: np.random.Generator
) -> np.ndarray:
    """Quantized smooth random field in ``{0, ..., levels - 1}``.

    A sum of a few random low-frequency cosine waves, then quantized —
    cheap, deterministic, and produces the plateau structure of real
    disparity/label fields.
    """
    grids = np.meshgrid(
        *[np.linspace(0.0, 1.0, s) for s in shape], indexing="ij"
    )
    field = np.zeros(shape)
    for _ in range(4):
        frequency = rng.uniform(0.5, 3.0, size=len(shape))
        phase = rng.uniform(0, 2 * np.pi)
        wave = np.cos(
            2 * np.pi * sum(f * g for f, g in zip(frequency, grids)) + phase
        )
        field += rng.uniform(0.5, 1.0) * wave
    field -= field.min()
    field /= max(field.max(), 1e-12)
    return np.minimum((field * levels).astype(int), levels - 1)


def _grid_network(
    sides: dict[str, int], levels: int, smoothness: float, seed: SeedLike
) -> FlowNetwork:
    """A BK-style grid network over a quantized field, built from arrays.

    ``sides`` names the extents in label order (x first).  Nodes are
    ``"s"``, ``"t"``, then pixels in row-major order (x fastest), each
    labeled by its coordinate tuple of Python ints.  Raises
    :class:`FlowError` naming the argument when a side is < 1,
    ``levels < 2`` (no terminal arc could carry flow), or ``smoothness``
    is not finite and >= 0.
    """
    for name, side in sides.items():
        if side < 1:
            raise FlowError(f"{name} must be >= 1, got {side}")
    if levels < 2:
        raise FlowError(f"levels must be >= 2, got {levels}")
    if not (math.isfinite(smoothness) and smoothness >= 0):
        raise FlowError(
            f"smoothness must be finite and >= 0, got {smoothness}"
        )
    dims = tuple(sides.values())
    field = _smooth_field(dims[::-1], levels, ensure_rng(seed)).ravel()
    pixel = np.arange(field.size, dtype=np.int64)
    node = pixel + 2
    complement = levels - 1 - field
    fed, drained = field > 0, complement > 0
    src = [np.zeros(np.count_nonzero(fed), dtype=np.int64), node[drained]]
    dst = [node[fed], np.ones(np.count_nonzero(drained), dtype=np.int64)]
    capacity = [field[fed], complement[drained]]
    coords = []
    stride = 1
    for side in dims:
        coord = pixel // stride % side
        coords.append(coord.tolist())
        here = pixel[coord + 1 < side]
        there = here + stride
        gradient = np.minimum(np.abs(field[here] - field[there]), 2)
        weight = smoothness * (1.0 + gradient)
        src += [here + 2, there + 2]
        dst += [there + 2, here + 2]
        capacity += [weight, weight]
        stride *= side
    # Rebinding drops the per-part arrays before the CSR build.
    src, dst, capacity = (np.concatenate(p) for p in (src, dst, capacity))
    graph = WeightedDiGraph.from_arrays(
        src,
        dst,
        capacity,
        n_nodes=field.size + 2,
        labels=["s", "t", *zip(*coords)],
    )
    return FlowNetwork(graph, "s", "t")


def vision_grid_instance(
    width: int,
    height: int,
    levels: int = 8,
    smoothness: float = 2.0,
    seed: SeedLike = 0,
) -> FlowNetwork:
    """A 2-D BK-style max-flow instance (stereo-matching structure).

    * pixel (x, y) has an arc from ``s`` with capacity = its quantized
      intensity, and an arc to ``t`` with the complementary level
      (the two data terms);
    * 4-neighbors share symmetric arcs with capacity ``smoothness``
      scaled by the local gradient level (few distinct values).

    Nodes are ``"s"``, ``"t"``, then pixels ``(x, y)`` row by row.
    """
    return _grid_network(
        {"width": width, "height": height}, levels, smoothness, seed
    )


def segmentation_3d_instance(
    nx: int,
    ny: int,
    nz: int,
    levels: int = 6,
    smoothness: float = 1.5,
    seed: SeedLike = 0,
) -> FlowNetwork:
    """A 3-D BK-style instance (cell-segmentation structure).

    Nodes are ``"s"``, ``"t"``, then voxels ``(x, y, z)``, x fastest.
    """
    return _grid_network(
        {"nx": nx, "ny": ny, "nz": nz}, levels, smoothness, seed
    )


def _scaled_side(paper_nodes: int, scale: float, minimum: int = 8) -> int:
    """Side length of a square grid with ~``paper_nodes * scale`` pixels."""
    return max(minimum, int(round((paper_nodes * scale) ** 0.5)))


def load_tsukuba0(scale: float = 1.0, seed: int = 20) -> FlowNetwork:
    """Tsukuba stereo instance stand-in (paper: 110 594 nodes)."""
    side = _scaled_side(110_594, scale)
    return vision_grid_instance(side, side, levels=16, seed=seed)


def load_tsukuba2(scale: float = 1.0, seed: int = 21) -> FlowNetwork:
    side = _scaled_side(110_594, scale)
    return vision_grid_instance(side, side, levels=16, seed=seed)


def load_venus0(scale: float = 1.0, seed: int = 22) -> FlowNetwork:
    """Venus stereo instance stand-in (paper: 166 224 nodes)."""
    side = _scaled_side(166_224, scale)
    return vision_grid_instance(side, side, levels=20, seed=seed)


def load_venus1(scale: float = 1.0, seed: int = 23) -> FlowNetwork:
    side = _scaled_side(166_224, scale)
    return vision_grid_instance(side, side, levels=20, seed=seed)


def load_sawtooth0(scale: float = 1.0, seed: int = 24) -> FlowNetwork:
    """Sawtooth stereo instance stand-in (paper: 164 922 nodes)."""
    side = _scaled_side(164_922, scale)
    return vision_grid_instance(side, side, levels=20, seed=seed)


def load_sawtooth1(scale: float = 1.0, seed: int = 25) -> FlowNetwork:
    side = _scaled_side(164_922, scale)
    return vision_grid_instance(side, side, levels=20, seed=seed)


def load_simcells(scale: float = 1.0, seed: int = 26) -> FlowNetwork:
    """Synthetic cells segmentation stand-in (paper: 903 962 nodes, 3-D)."""
    side = max(5, int(round((903_962 * scale) ** (1.0 / 3.0))))
    return segmentation_3d_instance(side, side, side, seed=seed)


def load_cells(scale: float = 1.0, seed: int = 27) -> FlowNetwork:
    """Cells segmentation stand-in (paper: 3 582 102 nodes, 3-D)."""
    side = max(6, int(round((3_582_102 * scale) ** (1.0 / 3.0))))
    return segmentation_3d_instance(side, side, side, seed=seed)
