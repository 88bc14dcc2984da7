"""Package-level hygiene: every module imports, public API is exposed."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

ALL_MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    # __main__ exits on import by design (CLI entry point).
    if name != "repro.__main__"
)


class TestImports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_every_module_imports(self, module_name):
        importlib.import_module(module_name)

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_public_api_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestSubpackageAll:
    @pytest.mark.parametrize(
        "package_name",
        [
            "repro.core",
            "repro.graphs",
            "repro.flow",
            "repro.lp",
            "repro.centrality",
            "repro.datasets",
            "repro.utils",
        ],
    )
    def test_all_lists_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert getattr(package, name, None) is not None, (
                f"{package_name}.{name} in __all__ but missing"
            )


class TestLazySolverImports:
    """``scipy.optimize`` (HiGHS) loads only for the tasks that solve
    with it; a fresh interpreter shows what an import pays for."""

    def _loaded_after(self, code):
        source = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=source)
        result = subprocess.run(
            [sys.executable, "-c", "import sys\n" + code
             + "\nprint('scipy.optimize' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True,
        )
        return result.stdout.strip() == "True"

    def test_package_import_leaves_scipy_optimize_out(self):
        assert not self._loaded_after(
            "import repro, repro.pipeline, repro.dynamic, repro.datasets, "
            "repro.flow, repro.cli"
        )

    def test_lp_task_loads_scipy_optimize(self):
        assert self._loaded_after(
            "from repro.lp.generators import fig3_example\n"
            "from repro.pipeline import LPTask\n"
            "LPTask(fig3_example(), method='scipy')"
        )


class TestBackendKeyword:
    """numpy is the one kernel implementation: the entry points that
    still take ``backend=`` accept ``None`` and ``"numpy"`` and refuse
    anything else with a ``ValueError`` naming it."""

    @staticmethod
    def _build(entry, backend):
        from repro.dynamic import DynamicColoring
        from repro.flow.network import FlowNetwork
        from repro.graphs.generators import karate_club
        from repro.lp.generators import fig3_example
        from repro.pipeline import CentralityTask, LPTask, MaxFlowTask

        graph = karate_club()
        builders = {
            "MaxFlowTask": lambda: MaxFlowTask(
                FlowNetwork(graph, 1, 34), backend=backend
            ),
            "LPTask": lambda: LPTask(fig3_example(), backend=backend),
            "CentralityTask": lambda: CentralityTask(graph, backend=backend),
            "q_color": lambda: repro.q_color(
                graph, n_colors=2, backend=backend
            ),
            "DynamicColoring": lambda: DynamicColoring(
                graph, q_tolerance=2.0, backend=backend
            ),
        }
        return builders[entry]()

    @pytest.mark.parametrize(
        "entry",
        ["MaxFlowTask", "LPTask", "CentralityTask", "q_color",
         "DynamicColoring"],
    )
    def test_numpy_only(self, entry):
        self._build(entry, None)
        self._build(entry, "numpy")
        with pytest.raises(ValueError, match="'numba'"):
            self._build(entry, "numba")
