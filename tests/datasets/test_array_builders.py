"""The array-built grid networks and planted-block LPs against loop builders.

``datasets/flows.py`` builds its grid networks from index arrays with
one ``from_arrays`` call, and ``planted_block_lp`` draws each block's
jitter with one vectorized ``rng.uniform`` call.  The per-arc and
per-entry loop builders they replaced are kept below as oracles: every
sweep and every registry stand-in must come out bit-identical — CSR
``indptr``/``indices``/``data`` and their dtypes, labels and
directedness for a grid; ``A``, ``b`` and ``c`` for an LP.

CI reruns it with the longer ``ci`` hypothesis profile
(``--hypothesis-profile=ci``).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import flows
from repro.datasets.registry import DATASETS
from repro.exceptions import FlowError
from repro.flow.network import FlowNetwork
from repro.graphs.digraph import WeightedDiGraph
from repro.lp import generators
from repro.lp.model import LinearProgram
from repro.utils.rng import ensure_rng

# ----------------------------------------------------------------------
# the loop builders, as they were before the array builders
# ----------------------------------------------------------------------


def loop_vision_grid(width, height, levels=8, smoothness=2.0, seed=0):
    rng = ensure_rng(seed)
    field = flows._smooth_field((height, width), levels, rng)
    graph = WeightedDiGraph(directed=True)
    graph.add_node("s")
    graph.add_node("t")
    for y in range(height):
        for x in range(width):
            graph.add_node((x, y))
    for y in range(height):
        for x in range(width):
            level = float(field[y, x])
            if level > 0:
                graph.add_edge("s", (x, y), level)
            complement = float(levels - 1 - field[y, x])
            if complement > 0:
                graph.add_edge((x, y), "t", complement)
            for dx, dy in ((1, 0), (0, 1)):
                nx_, ny_ = x + dx, y + dy
                if nx_ < width and ny_ < height:
                    gradient = abs(int(field[y, x]) - int(field[ny_, nx_]))
                    capacity = smoothness * (1.0 + min(gradient, 2))
                    graph.add_edge((x, y), (nx_, ny_), capacity)
                    graph.add_edge((nx_, ny_), (x, y), capacity)
    return FlowNetwork(graph, "s", "t")


def loop_segmentation_3d(nx, ny, nz, levels=6, smoothness=1.5, seed=0):
    rng = ensure_rng(seed)
    field = flows._smooth_field((nz, ny, nx), levels, rng)
    graph = WeightedDiGraph(directed=True)
    graph.add_node("s")
    graph.add_node("t")
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                graph.add_node((x, y, z))
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                level = float(field[z, y, x])
                if level > 0:
                    graph.add_edge("s", (x, y, z), level)
                complement = float(levels - 1 - field[z, y, x])
                if complement > 0:
                    graph.add_edge((x, y, z), "t", complement)
                for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    x2, y2, z2 = x + dx, y + dy, z + dz
                    if x2 < nx and y2 < ny and z2 < nz:
                        gradient = abs(
                            int(field[z, y, x]) - int(field[z2, y2, x2])
                        )
                        capacity = smoothness * (1.0 + min(gradient, 2))
                        graph.add_edge((x, y, z), (x2, y2, z2), capacity)
                        graph.add_edge((x2, y2, z2), (x, y, z), capacity)
    return FlowNetwork(graph, "s", "t")


def loop_planted_block_lp(
    n_rows, n_cols, row_groups, col_groups, density=0.4, noise=0.05,
    seed=0, name="planted",
):
    rng = ensure_rng(seed)
    row_membership = np.sort(rng.integers(0, row_groups, size=n_rows))
    col_membership = np.sort(rng.integers(0, col_groups, size=n_cols))
    row_membership[:row_groups] = np.arange(row_groups)
    col_membership[:col_groups] = np.arange(col_groups)
    row_membership = np.sort(row_membership)
    col_membership = np.sort(col_membership)
    base = rng.uniform(1.0, 9.0, size=(row_groups, col_groups))
    active = rng.random((row_groups, col_groups)) < 0.7
    for g in range(row_groups):
        if not active[g].any():
            active[g, rng.integers(0, col_groups)] = True
    for g in range(col_groups):
        if not active[:, g].any():
            active[rng.integers(0, row_groups), g] = True
    cols_of_group = [
        np.nonzero(col_membership == g)[0] for g in range(col_groups)
    ]
    rows_of_group = [
        np.nonzero(row_membership == g)[0] for g in range(row_groups)
    ]
    rows, cols, values = [], [], []
    for row_group in range(row_groups):
        group_rows = rows_of_group[row_group]
        for col_group in range(col_groups):
            if not active[row_group, col_group]:
                continue
            group_cols = cols_of_group[col_group]
            width = len(group_cols)
            step = width // np.gcd(len(group_rows), width)
            per_row = max(1, round(density * width / step)) * step
            per_row = min(per_row, width)
            level = base[row_group, col_group]
            for rank, row in enumerate(group_rows):
                start = (rank * per_row) % width
                chosen = group_cols[(start + np.arange(per_row)) % width]
                for col in chosen:
                    jitter = 1.0 + noise * rng.uniform(-1.0, 1.0)
                    rows.append(int(row))
                    cols.append(int(col))
                    values.append(level * jitter)
    a_matrix = sp.csr_matrix(
        (values, (rows, cols)), shape=(n_rows, n_cols)
    )
    row_level = rng.uniform(20.0, 60.0, size=row_groups)
    col_level = rng.uniform(2.0, 12.0, size=col_groups)
    b = row_level[row_membership] * (
        1.0 + noise * rng.uniform(-1.0, 1.0, size=n_rows)
    )
    c = col_level[col_membership] * (
        1.0 + noise * rng.uniform(-1.0, 1.0, size=n_cols)
    )
    return LinearProgram(a_matrix, b, c, name=name)


# ----------------------------------------------------------------------
# bit-identity
# ----------------------------------------------------------------------


def assert_same_arrays(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_csr(actual: sp.csr_matrix, expected: sp.csr_matrix) -> None:
    assert actual.shape == expected.shape
    for part in ("indptr", "indices", "data"):
        assert_same_arrays(getattr(actual, part), getattr(expected, part))


def assert_same_network(actual: FlowNetwork, expected: FlowNetwork) -> None:
    assert_same_csr(actual.graph.to_csr(), expected.graph.to_csr())
    labels, oracle_labels = actual.graph.labels(), expected.graph.labels()
    assert labels == oracle_labels
    assert [type(c) for label in labels[2:] for c in label] == [
        type(c) for label in oracle_labels[2:] for c in label
    ]
    assert actual.graph.directed == expected.graph.directed
    assert (actual.source, actual.sink) == (expected.source, expected.sink)


def assert_same_lp(actual: LinearProgram, expected: LinearProgram) -> None:
    assert_same_csr(actual.a_matrix, expected.a_matrix)
    assert_same_arrays(actual.b, expected.b)
    assert_same_arrays(actual.c, expected.c)
    assert actual.name == expected.name


SEEDS = st.integers(0, 2**64 - 1)
SMOOTHNESS = st.sampled_from([0.0, 0.5, 1.5, 2.0])


class TestGridSweep:
    @given(
        width=st.integers(1, 12),
        height=st.integers(1, 12),
        levels=st.integers(2, 20),
        smoothness=SMOOTHNESS,
        seed=SEEDS,
    )
    @settings(deadline=None)
    def test_2d_matches_loop_builder(
        self, width, height, levels, smoothness, seed
    ):
        assert_same_network(
            flows.vision_grid_instance(
                width, height, levels, smoothness, seed
            ),
            loop_vision_grid(width, height, levels, smoothness, seed),
        )

    @given(
        sides=st.tuples(*[st.integers(1, 6)] * 3),
        levels=st.integers(2, 20),
        smoothness=SMOOTHNESS,
        seed=SEEDS,
    )
    @settings(deadline=None)
    def test_3d_matches_loop_builder(self, sides, levels, smoothness, seed):
        assert_same_network(
            flows.segmentation_3d_instance(*sides, levels, smoothness, seed),
            loop_segmentation_3d(*sides, levels, smoothness, seed),
        )


@st.composite
def planted_shapes(draw):
    n_rows, n_cols = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    return dict(
        n_rows=n_rows,
        n_cols=n_cols,
        row_groups=draw(st.integers(1, n_rows)),
        col_groups=draw(st.integers(1, n_cols)),
        density=draw(
            st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False)
        ),
        noise=draw(
            st.just(0.0) | st.floats(0.0, 0.5, exclude_min=True)
        ),
        seed=draw(SEEDS),
    )


class TestPlantedBlockSweep:
    @given(shape=planted_shapes())
    @settings(deadline=None)
    def test_matches_loop_builder(self, shape):
        assert_same_lp(
            generators.planted_block_lp(**shape),
            loop_planted_block_lp(**shape),
        )


class TestRegistryStandIns:
    """Every flow and LP registry dataset, loaded through the registry
    and through the loop builders patched in its place."""

    @pytest.mark.parametrize(
        "name", [d.name for d in DATASETS.values() if d.kind == "flow"]
    )
    def test_flow_dataset(self, name, monkeypatch):
        loader = DATASETS[name].loader
        network = loader(scale=0.002)
        monkeypatch.setattr(flows, "vision_grid_instance", loop_vision_grid)
        monkeypatch.setattr(
            flows, "segmentation_3d_instance", loop_segmentation_3d
        )
        assert_same_network(network, loader(scale=0.002))

    @pytest.mark.parametrize(
        "name", [d.name for d in DATASETS.values() if d.kind == "lp"]
    )
    def test_lp_dataset(self, name, monkeypatch):
        loader = DATASETS[name].loader
        lp = loader(scale=0.02)
        monkeypatch.setattr(
            generators, "planted_block_lp", loop_planted_block_lp
        )
        assert_same_lp(lp, loader(scale=0.02))


# ----------------------------------------------------------------------
# bad arguments
# ----------------------------------------------------------------------


class TestBadGridArguments:
    @pytest.mark.parametrize(
        "args, name",
        [((0, 5), "width"), ((5, 0), "height"), ((-1, 3), "width")],
    )
    def test_2d_side_below_one(self, args, name):
        with pytest.raises(FlowError, match=f"{name} must be >= 1"):
            flows.vision_grid_instance(*args)

    @pytest.mark.parametrize(
        "args, name",
        [((0, 3, 3), "nx"), ((3, 0, 3), "ny"), ((3, 3, 0), "nz")],
    )
    def test_3d_side_below_one(self, args, name):
        with pytest.raises(FlowError, match=f"{name} must be >= 1"):
            flows.segmentation_3d_instance(*args)

    @pytest.mark.parametrize("levels", [-1, 0, 1])
    def test_too_few_levels(self, levels):
        message = f"levels must be >= 2, got {levels}"
        with pytest.raises(FlowError, match=message):
            flows.vision_grid_instance(5, 5, levels=levels)
        with pytest.raises(FlowError, match="levels must be >= 2"):
            flows.segmentation_3d_instance(3, 3, 3, levels=levels)

    @pytest.mark.parametrize(
        "smoothness", [float("nan"), float("inf"), -float("inf"), -0.5]
    )
    def test_bad_smoothness(self, smoothness):
        with pytest.raises(FlowError, match="smoothness must be finite"):
            flows.vision_grid_instance(4, 4, smoothness=smoothness)
        with pytest.raises(FlowError, match="smoothness must be finite"):
            flows.segmentation_3d_instance(2, 2, 2, smoothness=smoothness)

