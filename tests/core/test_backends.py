"""Backend dispatch and parity tests.

The parity sweep is the contract that makes ``--backend`` safe to flip:
every registered backend must produce **bit-identical** results to the
numpy reference, kernel by kernel and coloring by coloring.  The
optional numba backend skips cleanly where the package is absent — the
dependency-free CI matrix runs only the numpy/resolution parts, the
py3.12+numba job runs the full sweep.
"""

import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.backends import (
    KERNEL_NAMES,
    SOLVER_KERNEL_NAMES,
    Backend,
    available_backends,
    default_backend,
    resolve_backend,
    resolve_workers,
    set_default_backend,
)
from repro.core.backends import numba_backend
from repro.core.backends.numpy_backend import NumpyBackend
from repro.core.partition import Coloring
from repro.core.rothko import Rothko, q_color

REFERENCE = NumpyBackend()


def optional_backend(name):
    """Instantiate an optional backend or skip the test."""
    if not numba_backend.available():
        pytest.skip(f"{name} not installed")
    return resolve_backend(name)


def backend_params():
    return [pytest.param("numba")]


def _random_csr(n, density, seed, negative=False):
    generator = np.random.default_rng(seed)
    matrix = sp.random(
        n, n, density=density, random_state=generator, format="csr"
    )
    if negative:
        matrix.data -= 0.5
    return matrix


@pytest.fixture(autouse=True)
def _reset_default_backend():
    yield
    set_default_backend(None)


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_default_is_backend_instance(self):
        assert isinstance(default_backend(), Backend)

    def test_explicit_name(self):
        assert resolve_backend("numpy").name == "numpy"

    def test_instance_passthrough(self):
        instance = NumpyBackend()
        assert resolve_backend(instance) is instance

    def test_instances_cached(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("fortran")

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_auto_resolves(self):
        resolved = resolve_backend("auto")
        assert resolved.name in ("numpy", "numba")

    def test_numba_resolves_to_the_numba_backend_itself(self):
        # No proxy in between: a raising numba kernel fails the run (and
        # the parity sweep) instead of being replayed on numpy.
        assert type(optional_backend("numba")) is numba_backend.NumbaBackend

    def test_missing_optional_backend_errors_clearly(self):
        if not numba_backend.available():
            with pytest.raises(ImportError, match="numba"):
                resolve_backend("numba")

    def test_set_default_backend(self):
        assert set_default_backend("numpy").name == "numpy"
        assert default_backend().name == "numpy"
        set_default_backend(None)  # back to lazy env/auto resolution
        assert default_backend().name in ("numpy", "numba")

    def test_protocol_surface(self):
        kernels = set(KERNEL_NAMES) | set(SOLVER_KERNEL_NAMES)
        assert len(kernels) == len(KERNEL_NAMES) + len(SOLVER_KERNEL_NAMES)
        for name in kernels:
            assert callable(getattr(REFERENCE, name))

        def public(cls):
            return {name for name in vars(cls) if not name.startswith("_")}

        # The protocol and the numpy reference define exactly the listed
        # kernels; the numba class overrides some of them and adds none.
        # Class dicts need no numba install to inspect.
        assert public(Backend) == kernels
        assert public(NumpyBackend) - {"name"} == kernels
        assert public(numba_backend.NumbaBackend) - {"name"} <= kernels

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(4) == 4
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3
        with pytest.raises(ValueError):
            resolve_workers(0)
        for value in ("two", "0"):
            monkeypatch.setenv("REPRO_WORKERS", value)
            with pytest.raises(ValueError, match=f"REPRO_WORKERS.*'{value}'"):
                resolve_workers(None)


# ----------------------------------------------------------------------
# kernel-level parity (bit-identical to the numpy reference)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", backend_params())
class TestKernelParity:
    def _fixture(self, seed, n=60, k=7, negative=False):
        matrix = _random_csr(n, 0.15, seed, negative=negative)
        csc = matrix.tocsc()
        generator = np.random.default_rng(seed + 100)
        labels = generator.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # no empty colors
        return matrix, csc, labels, k

    def test_scatter_add(self, name):
        backend = optional_backend(name)
        generator = np.random.default_rng(0)
        indices = generator.integers(0, 40, size=300)
        weights = generator.random(300) - 0.25
        expected = REFERENCE.scatter_add(indices, weights, 40)
        np.testing.assert_array_equal(
            backend.scatter_add(indices, weights, 40), expected
        )

    def test_take_ranges(self, name):
        backend = optional_backend(name)
        starts = np.array([0, 10, 5, 9])
        counts = np.array([3, 0, 2, 1])
        np.testing.assert_array_equal(
            backend.take_ranges(starts, counts),
            REFERENCE.take_ranges(starts, counts),
        )

    def test_bincount(self, name):
        backend = optional_backend(name)
        generator = np.random.default_rng(1)
        keys = generator.integers(0, 64, size=500)
        weights = generator.random(500)
        np.testing.assert_array_equal(
            backend.bincount(keys, weights, 64),
            REFERENCE.bincount(keys, weights, 64),
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_scatter_select_sums(self, name, seed):
        backend = optional_backend(name)
        matrix, csc, labels, k = self._fixture(seed)
        select = np.flatnonzero(labels == seed % k)
        for compressed in (matrix, csc):
            expected = REFERENCE.scatter_select_sums(
                compressed.indptr, compressed.indices, compressed.data,
                select, matrix.shape[0],
            )
            np.testing.assert_array_equal(
                backend.scatter_select_sums(
                    compressed.indptr, compressed.indices, compressed.data,
                    select, matrix.shape[0],
                ),
                expected,
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_select_degrees_toward(self, name, seed):
        backend = optional_backend(name)
        matrix, _, labels, k = self._fixture(seed)
        rows = np.flatnonzero(labels == seed % k)
        generator = np.random.default_rng(seed)
        targets = generator.integers(0, k, size=rows.size)
        for target in (int((seed + 2) % k), targets):
            expected = REFERENCE.select_degrees_toward(
                matrix.indptr, matrix.indices, matrix.data,
                rows, labels, target,
            )
            np.testing.assert_array_equal(
                backend.select_degrees_toward(
                    matrix.indptr, matrix.indices, matrix.data,
                    rows, labels, target,
                ),
                expected,
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_grouped_minmax(self, name, seed):
        backend = optional_backend(name)
        generator = np.random.default_rng(seed)
        n, k, r = 80, 6, 4
        labels = generator.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        values = generator.random((n, r)) - 0.5
        expected = REFERENCE.grouped_minmax_by_labels(values, labels, k)
        got = backend.grouped_minmax_by_labels(values, labels, k)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])
        members = [np.flatnonzero(labels == c) for c in range(k)]
        order = np.concatenate(members)
        starts = np.cumsum([0] + [m.size for m in members[:-1]])
        feature_major = values.T.copy()
        expected = REFERENCE.grouped_minmax_ordered(
            feature_major, order, starts
        )
        got = backend.grouped_minmax_ordered(feature_major, order, starts)
        np.testing.assert_array_equal(got[0], expected[0])
        np.testing.assert_array_equal(got[1], expected[1])

    def test_empty_inputs(self, name):
        backend = optional_backend(name)
        empty = np.empty(0, dtype=np.int64)
        assert backend.scatter_add(empty, empty.astype(float), 5).shape == (5,)
        assert backend.take_ranges(empty, empty).size == 0
        matrix = _random_csr(10, 0.2, 0)
        assert backend.select_degrees_toward(
            matrix.indptr, matrix.indices, matrix.data,
            empty, np.zeros(10, dtype=np.int64), 0,
        ).shape == (0,)


# ----------------------------------------------------------------------
# coloring-level parity: identical splits and q-error trajectories
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", backend_params())
class TestColoringParity:
    CASES = {
        "directed": dict(),
        "weighted": dict(alpha=1.0, beta=1.0, split_mean="geometric"),
        "frozen": dict(frozen=(0,)),
        "relative": dict(error_mode="relative"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trajectory_bit_identical(self, name, case):
        backend = optional_backend(name)
        options = dict(self.CASES[case])
        matrix = _random_csr(150, 0.08, 11)
        if case == "frozen":
            generator = np.random.default_rng(5)
            options["initial"] = Coloring(
                generator.integers(0, 2, size=150)
            )
        engines = [
            Rothko(matrix, backend=spec, **options)
            for spec in ("numpy", backend)
        ]
        runs = [
            list(engine.steps(max_colors=16)) for engine in engines
        ]
        assert len(runs[0]) == len(runs[1])
        for reference_step, step in zip(*runs):
            assert reference_step.witness == step.witness
            assert reference_step.q_err_before == step.q_err_before
        np.testing.assert_array_equal(
            engines[0].labels, engines[1].labels
        )
        assert engines[0].max_q_err() == engines[1].max_q_err()

    def test_default_backend_drives_kernel_wrappers(self, name):
        optional_backend(name)
        set_default_backend(name)
        matrix = _random_csr(100, 0.1, 3)
        accelerated = q_color(matrix, n_colors=12)
        set_default_backend("numpy")
        reference = q_color(matrix, n_colors=12)
        np.testing.assert_array_equal(
            accelerated.coloring.labels, reference.coloring.labels
        )
        assert accelerated.max_q_err == reference.max_q_err


# ----------------------------------------------------------------------
# cache-key isolation
# ----------------------------------------------------------------------
class TestSpecBackendKey:
    def test_backends_do_not_collide_in_cache(self):
        from repro.pipeline.task import ColoringSpec

        matrix = _random_csr(40, 0.2, 2)
        numpy_spec = ColoringSpec(matrix, backend="numpy")
        assert numpy_spec.cache_key()[-1] == "numpy"
        for name in available_backends():
            if name == "numpy":
                continue
            other = ColoringSpec(matrix, backend=name)
            assert other.cache_key() != numpy_spec.cache_key()

    def test_auto_and_resolved_name_alias(self):
        from repro.pipeline.task import ColoringSpec

        matrix = _random_csr(40, 0.2, 2)
        auto = ColoringSpec(matrix, backend="auto")
        explicit = ColoringSpec(matrix, backend=resolve_backend("auto").name)
        # auto resolves before keying, so equal resolutions share a key
        # (one cached coloring) while different backends never alias.
        assert auto.cache_key() == explicit.cache_key()

    def test_build_engine_uses_spec_backend(self):
        from repro.pipeline.task import ColoringSpec

        matrix = _random_csr(40, 0.2, 2)
        engine = ColoringSpec(matrix, backend="numpy").build_engine()
        assert engine._backend.name == "numpy"
