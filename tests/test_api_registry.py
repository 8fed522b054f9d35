"""Tests for repro.api.registry: the component registries of the experiment API."""

import ast
from pathlib import Path

import pytest

import repro
import repro.api
import repro.api.registry as registry_module

from repro.api.config import DataConfig, EvalConfig, ExperimentConfig, MetaModelConfig
from repro.api.registry import (
    DATASETS,
    DECISION_RULES,
    META_CLASSIFIERS,
    META_REGRESSORS,
    METRIC_GROUPS,
    NETWORK_PROFILES,
    Registry,
    RegistryError,
    all_registries,
)
from repro.core.meta_classification import MetaClassifier
from repro.core.meta_regression import MetaRegressor
from repro.segmentation.datasets import CityscapesLikeDataset, KittiLikeDataset
from repro.segmentation.network import NetworkProfile


class TestRegistryBasics:
    def test_available_is_sorted(self):
        registry = Registry("toys", "", {"zeta": 1, "alpha": 2})
        assert registry.available() == ["alpha", "zeta"]
        assert list(registry) == ["alpha", "zeta"]

    def test_unknown_name_lists_alternatives(self):
        registry = Registry("toys", "", {"alpha": 1})
        with pytest.raises(RegistryError, match="unknown toys entry 'beta'.*alpha"):
            registry.get("beta")

    def test_contains_and_items(self):
        registry = Registry("toys", "", {"alpha": 1})
        assert "alpha" in registry
        assert "beta" not in registry
        assert registry.get("alpha") == 1

    def test_describe_uses_docstring_for_callables(self):
        def entry():
            """First line.

            More detail.
            """

        registry = Registry("toys", "", {"documented": entry, "data": (1, 2)})
        assert registry.describe("documented") == "First line."
        assert registry.describe("data") == "(1, 2)"

    def test_entries_are_copied(self):
        entries = {"alpha": 1}
        registry = Registry("toys", "", entries)
        entries["beta"] = 2
        assert registry.available() == ["alpha"]


class TestBuiltinListings:
    def test_every_registry_has_at_least_three_entries(self):
        for kind, registry in all_registries().items():
            assert len(registry.available()) >= 3, kind

    def test_six_registries_and_no_backend_registry(self):
        # Where stage 1 runs is a config field, not a registry.
        assert list(all_registries()) == [
            "networks", "datasets", "metric_groups", "meta_classifiers",
            "meta_regressors", "decision_rules",
        ]

    def test_network_profiles(self):
        for name in ("generic", "xception65", "mobilenetv2"):
            profile = NETWORK_PROFILES.get(name)()
            assert isinstance(profile, NetworkProfile)
            assert profile.name == name

    def test_datasets(self):
        assert {"cityscapes_like", "cityscapes_like_small",
                "kitti_like", "kitti_like_small"} <= set(DATASETS.available())

    def test_metric_groups_match_extractor_features(self, extractor):
        names = extractor.feature_names()
        assert METRIC_GROUPS.get("all") is None
        for group in ("entropy_only", "dispersion", "geometry", "context"):
            features = METRIC_GROUPS.get(group)
            assert features, group
            assert set(features) <= set(names)

    def test_meta_model_variants(self):
        assert set(META_CLASSIFIERS.available()) == {
            "logistic", "gradient_boosting", "neural_network"
        }
        assert set(META_REGRESSORS.available()) == {
            "linear", "gradient_boosting", "neural_network"
        }

    def test_decision_rules(self):
        assert {"bayes", "ml", "interpolated"} <= set(DECISION_RULES.available())


class TestConfigRegistryRoundTrip:
    """Config -> registry -> live instance for each of the three kinds."""

    def test_metaseg_round_trip(self):
        from repro.api.runner import Runner

        config = ExperimentConfig(
            kind="metaseg",
            seed=3,
            data=DataConfig(dataset="cityscapes_like_small", n_val=2),
            meta_models=MetaModelConfig(feature_group="dispersion"),
        ).validate()
        resolved = Runner().resolve(config)
        assert isinstance(resolved.dataset, CityscapesLikeDataset)
        assert resolved.network.profile.name == "mobilenetv2"
        assert resolved.reference_network is None
        assert resolved.feature_subset == list(METRIC_GROUPS.get("dispersion"))
        assert resolved.classifiers == ["logistic"]
        assert resolved.regressors == ["linear"]
        assert META_CLASSIFIERS.get("logistic") is MetaClassifier.FAMILIES["logistic"].model
        assert META_REGRESSORS.get("linear") is MetaRegressor.FAMILIES["linear"].model
        classifier = MetaClassifier(resolved.classifiers[0], penalty=0.5)
        assert classifier.method == "logistic" and classifier.penalty == 0.5
        regressor = MetaRegressor(resolved.regressors[0])
        assert regressor.method == "linear"

    def test_timedynamic_round_trip(self):
        from repro.api.runner import Runner

        config = ExperimentConfig(
            kind="timedynamic",
            seed=4,
            data=DataConfig(dataset="kitti_like_small", n_sequences=1, n_frames=4),
            meta_models=MetaModelConfig(
                classifiers=["gradient_boosting"], regressors=["gradient_boosting"]
            ),
        ).validate()
        resolved = Runner().resolve(config)
        assert isinstance(resolved.dataset, KittiLikeDataset)
        assert resolved.network.profile.name == "mobilenetv2"
        assert resolved.reference_network is not None
        assert resolved.reference_network.profile.name == "xception65"

    def test_decision_round_trip(self):
        from repro.api.runner import Runner

        config = ExperimentConfig(
            kind="decision",
            seed=5,
            data=DataConfig(dataset="cityscapes_like_small", n_train=2, n_val=1),
            evaluation=EvalConfig(rules=["bayes", "ml", "interpolated"]),
        ).validate()
        resolved = Runner().resolve(config)
        assert isinstance(resolved.dataset, CityscapesLikeDataset)
        for rule in resolved.rules:
            assert callable(DECISION_RULES.get(rule))

    def test_unknown_names_fail_fast(self):
        from repro.api.runner import Runner

        runner = Runner()
        bad_profile = ExperimentConfig(kind="metaseg")
        bad_profile.network.profile = "resnet101"
        with pytest.raises(RegistryError, match="unknown networks entry 'resnet101'"):
            runner.resolve(bad_profile)
        bad_dataset = ExperimentConfig(kind="metaseg")
        bad_dataset.data.dataset = "ade20k"
        with pytest.raises(RegistryError, match="unknown datasets entry 'ade20k'"):
            runner.resolve(bad_dataset)
        bad_rule = ExperimentConfig(kind="decision", data=DataConfig(n_train=1, n_val=1))
        bad_rule.evaluation.rules = ["bayes", "argmin"]
        with pytest.raises(RegistryError, match="unknown decision_rules entry 'argmin'"):
            runner.resolve(bad_rule)


#: The modules that may import repro.api.registry, relative to src/repro.
REGISTRY_IMPORTERS = ("__init__.py", "__main__.py", "io/fixture.py")

#: The registry module and the names repro.api re-exports from it.
REGISTRY_NAMES = {"registry"} | {
    name for name in repro.api.__all__ if name in vars(registry_module)
}


def _imports_registry(tree: ast.Module) -> bool:
    """Whether a module imports repro.api.registry, or one of its names
    through repro.api, anywhere (function-level imports included)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "repro.api.registry" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro.api.registry":
                return True
            if node.module == "repro.api" and any(
                alias.name in REGISTRY_NAMES for alias in node.names
            ):
                return True
    return False


class TestImportBoundary:
    def test_only_the_api_layer_imports_the_registry(self):
        """The domain modules define components; only the API layer names
        them, so nothing below it imports the registry."""
        src = Path(repro.__file__).resolve().parent
        importers = []
        for path in sorted(src.rglob("*.py")):
            relative = path.relative_to(src).as_posix()
            if relative.startswith("api/") or relative in REGISTRY_IMPORTERS:
                continue
            if _imports_registry(ast.parse(path.read_text(encoding="utf-8"))):
                importers.append(relative)
        assert importers == []
