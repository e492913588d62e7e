"""Tests of the public API surface: exports, version, docstrings, examples."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import sys

import pytest

import repro
import repro.analysis as analysis
import repro.baselines as baselines
import repro.cluster as cluster
import repro.core as core
import repro.datasets as datasets
import repro.durability as durability
import repro.evaluation as evaluation
import repro.metrics as metrics
import repro.registry as registry
import repro.results as results
import repro.scenarios as scenarios
import repro.service as service
import repro.streams as streams


PACKAGES = [
    repro, core, streams, datasets, baselines, metrics, analysis, evaluation,
    registry, results, service, cluster, durability, scenarios,
]


class TestExports:
    def test_version_is_exposed(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_all_exports_resolve(self, package):
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package.__name__}.__all__ lists missing {name!r}"

    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_package_docstrings(self, package):
        assert package.__doc__ and len(package.__doc__.strip()) > 40

    @pytest.mark.parametrize("package", PACKAGES[1:], ids=lambda p: p.__name__)
    def test_public_objects_have_docstrings(self, package):
        for name in getattr(package, "__all__", []):
            obj = getattr(package, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{package.__name__}.{name} has no docstring"

    def test_top_level_convenience_imports(self):
        assert repro.TKCMImputer is core.TKCMImputer
        assert repro.TKCMConfig is not None
        assert issubclass(repro.ConfigurationError, repro.ReproError)

    def test_service_layer_convenience_imports(self):
        assert repro.ImputationSession is service.ImputationSession
        assert repro.ImputationService is service.ImputationService
        assert repro.make_imputer is registry.make_imputer
        assert repro.TickResult is results.TickResult
        assert issubclass(repro.ServiceError, repro.ReproError)

    def test_cluster_tier_convenience_imports(self):
        assert repro.ClusterCoordinator is cluster.ClusterCoordinator
        assert repro.ShardRouter is cluster.ShardRouter
        assert issubclass(repro.ClusterError, repro.ReproError)

    def test_durability_tier_convenience_imports(self):
        assert repro.CheckpointStore is durability.CheckpointStore
        assert repro.WriteAheadLog is durability.WriteAheadLog
        assert repro.DurabilityConfig is durability.DurabilityConfig
        assert repro.RecoveryManager is durability.RecoveryManager
        assert issubclass(repro.DurabilityError, repro.ReproError)
        assert issubclass(repro.RecoveryError, repro.DurabilityError)

    def test_scenario_tier_convenience_imports(self):
        assert repro.ScenarioSpec is scenarios.ScenarioSpec
        assert repro.StationLayout is scenarios.StationLayout
        assert repro.family_spec is scenarios.family_spec
        assert repro.run_chaos_drill is scenarios.run_chaos_drill
        assert repro.FaultInjector is durability.FaultInjector

    def test_experiment_functions_cover_every_figure(self):
        expected = {
            "fig04_05_correlation", "fig06_07_profiles", "fig10_calibration",
            "fig11_pattern_length", "fig12_recovery_curves", "fig13_epsilon",
            "fig14_block_length", "fig15_recovery_comparison",
            "fig16_rmse_comparison", "fig17_runtime",
        }
        available = set(evaluation.experiments.__all__)
        assert expected.issubset(available)


class TestExamples:
    """Every example script must at least import cleanly (no missing APIs)."""

    EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

    @pytest.mark.parametrize(
        "script",
        sorted(p.name for p in EXAMPLES_DIR.glob("*.py")),
    )
    def test_example_imports(self, script):
        path = self.EXAMPLES_DIR / script
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
        finally:
            sys.modules.pop(spec.name, None)
        assert hasattr(module, "main"), f"{script} should expose a main() entry point"

    def test_there_are_at_least_three_examples(self):
        assert len(list(self.EXAMPLES_DIR.glob("*.py"))) >= 3


class TestDocumentationFiles:
    REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

    @pytest.mark.parametrize("filename", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_documentation_exists_and_is_substantial(self, filename):
        path = self.REPO_ROOT / filename
        assert path.exists(), f"{filename} is missing"
        assert len(path.read_text()) > 1000, f"{filename} looks like a stub"

    def test_design_lists_every_figure(self):
        text = (self.REPO_ROOT / "DESIGN.md").read_text()
        for token in ("fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17"):
            assert token in text


class TestImportCost:
    def test_import_repro_loads_neither_scipy_nor_networkx(self):
        """Both are optional, heavy, and needed by one baseline and one
        dataset each: ``import repro`` (every server and worker start)
        must not pay for them."""
        import os
        import subprocess

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        probe = (
            "import sys, repro, repro.cluster.coordinator, repro.gateway.server\n"
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'networkx'}))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True,
        )
        assert done.stdout.strip() == "[]"
