"""Tests for repro.api.registry: the component registries of the experiment API."""

import pytest

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
    def test_register_via_decorator_returns_object(self):
        registry = Registry("toys")

        @registry.register("one")
        def make_one():
            """Makes a one."""
            return 1

        assert make_one() == 1
        assert registry.get("one") is make_one

    def test_register_plain_call_accepts_any_value(self):
        registry = Registry("toys")
        registry.register("names", ("a", "b"))
        registry.register("nothing", None)
        assert registry.get("names") == ("a", "b")
        assert registry.get("nothing") is None

    def test_available_is_sorted(self):
        registry = Registry("toys")
        registry.register("zeta", 1)
        registry.register("alpha", 2)
        assert registry.available() == ["alpha", "zeta"]
        assert list(registry) == ["alpha", "zeta"]
        assert len(registry) == 2

    def test_duplicate_name_rejected(self):
        registry = Registry("toys")
        registry.register("taken", 1)
        with pytest.raises(RegistryError, match="already has an entry named 'taken'"):
            registry.register("taken", 2)

    def test_unknown_name_lists_alternatives(self):
        registry = Registry("toys")
        registry.register("alpha", 1)
        with pytest.raises(RegistryError, match="unknown toys entry 'beta'.*alpha"):
            registry.get("beta")

    def test_invalid_names_rejected(self):
        registry = Registry("toys")
        with pytest.raises(TypeError):
            registry.register("", 1)
        with pytest.raises(TypeError):
            registry.register(3, 1)

    def test_contains_and_items(self):
        registry = Registry("toys")
        registry.register("alpha", 1)
        assert "alpha" in registry
        assert "beta" not in registry
        assert registry.items() == [("alpha", 1)]

    def test_describe_uses_docstring_for_callables(self):
        registry = Registry("toys")

        @registry.register("documented")
        def entry():
            """First line.

            More detail.
            """

        registry.register("data", (1, 2))
        assert registry.describe("documented") == "First line."
        assert registry.describe("data") == "(1, 2)"


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
        classifier = META_CLASSIFIERS.get(resolved.classifiers[0])(penalty=0.5)
        assert isinstance(classifier, MetaClassifier)
        assert classifier.method == "logistic"
        regressor = META_REGRESSORS.get(resolved.regressors[0])()
        assert isinstance(regressor, MetaRegressor)
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


class TestBuiltinLoaderThreadSafety:
    """The lazy builtin loader must never expose a partially loaded registry.

    Regression tests for the first-lookup race: the loader used to flip its
    loaded flag *before* importing the self-registering modules, so a second
    thread looking up concurrently returned immediately and saw whatever
    subset had registered so far.
    """

    def test_concurrent_lookup_blocks_until_registration_completes(self, monkeypatch):
        import builtins
        import threading

        import repro.api.registry as reg

        monkeypatch.setattr(reg, "_BUILTINS_READY", False)
        entered = threading.Event()
        release = threading.Event()
        real_import = builtins.__import__

        def slow_import(name, *args, **kwargs):
            # Stall the loading thread mid-registration, with the lock held.
            if name == "repro.decision.rules":
                entered.set()
                release.wait(timeout=10)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", slow_import)
        results = []
        loader = threading.Thread(target=reg.DECISION_RULES.available)
        second = threading.Thread(
            target=lambda: results.append(reg.META_CLASSIFIERS.available())
        )
        try:
            loader.start()
            assert entered.wait(timeout=10)
            second.start()
            second.join(timeout=0.3)
            # The buggy loader let this lookup through mid-import; now it
            # must wait for the loading thread instead.
            assert second.is_alive()
        finally:
            release.set()
        loader.join(timeout=10)
        second.join(timeout=10)
        assert not loader.is_alive() and not second.is_alive()
        assert results and "logistic" in results[0]

    def test_parallel_first_lookups_agree(self, monkeypatch):
        import threading

        import repro.api.registry as reg

        monkeypatch.setattr(reg, "_BUILTINS_READY", False)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def lookup(i):
            try:
                barrier.wait(timeout=10)
                results[i] = tuple(reg.DECISION_RULES.available())
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=lookup, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert len(set(results)) == 1 and results[0]
