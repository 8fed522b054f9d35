"""Tests for fitted-model reuse across store-cached runs (repro.store.fits).

The latent re-fit waste: two sweep points differing only in *evaluation*
fields share every fitted meta-model, but the batch path used to refit them
from scratch.  All three experiment kinds now route their fits through the
store — metaseg/timedynamic via :class:`FitCache`, decision via priors
caching — and the hard gate is unchanged: a cached-fit run stays **bitwise
identical** to a fresh storeless run.
"""

from repro.api.runner import Runner
from repro.core.meta_classification import MetaClassifier
from repro.store import FitCache, ResultStore

from test_store import decision_config, metaseg_config, timedynamic_config


def _fits(report) -> dict:
    assert "fits" in report.cache, f"no fit counters in {report.cache!r}"
    return report.cache["fits"]


class TestMetasegFitReuse:
    def test_eval_only_change_reuses_fits_bitwise(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = Runner(store=store)
        first = runner.run(metaseg_config())  # n_runs=2
        counters = _fits(first)
        assert counters["misses"] > 0
        assert counters["hits"] == 0
        # n_runs=3 is an eval-only change: a different report key, but runs
        # 0 and 1 re-use every fitted meta-model from the first experiment.
        def extended_config():
            config = metaseg_config()
            config.evaluation.n_runs = 3
            return config

        extended = runner.run(extended_config())
        assert extended.cache["hit"] is False
        counters = _fits(extended)
        assert counters["hits"] > 0
        assert counters["misses"] > 0  # run 2 is new
        fresh = Runner().run(extended_config())
        assert extended.to_json() == fresh.to_json()

    def test_identical_rerun_without_report_cache_hits_every_fit(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = Runner(store=store)
        first = runner.run(metaseg_config())
        # Drop the report entry, keep the fits: the re-run recomputes the
        # report but loads every meta-model from the store.
        assert store.evict(first.cache["key"]) is True
        again = runner.run(metaseg_config())
        assert again.cache["hit"] is False
        counters = _fits(again)
        assert counters["misses"] == 0
        assert counters["hits"] == _fits(first)["misses"]
        assert again.to_json() == first.to_json()


class TestTimedynamicFitReuse:
    def test_eval_only_change_reuses_fits_bitwise(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = Runner(store=store)
        first = runner.run(timedynamic_config())  # n_frames_list=[0, 1]
        assert _fits(first)["misses"] > 0
        config = timedynamic_config()
        config.evaluation.n_frames_list = [0]
        shrunk = runner.run(config)
        assert shrunk.cache["hit"] is False
        counters = _fits(shrunk)
        assert counters["hits"] > 0
        assert counters["misses"] == 0  # strictly a subset of the first run
        config = timedynamic_config()
        config.evaluation.n_frames_list = [0]
        fresh = Runner().run(config)
        assert shrunk.to_json() == fresh.to_json()


class TestDecisionPriorsReuse:
    def test_rule_change_reuses_priors_bitwise(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = Runner(store=store)
        first = runner.run(decision_config())  # rules=["bayes", "ml"]
        assert _fits(first)["misses"] == 1
        config = decision_config()
        config.evaluation.rules = ["bayes"]
        narrowed = runner.run(config)
        assert narrowed.cache["hit"] is False
        counters = _fits(narrowed)
        assert counters["hits"] == 1
        assert counters["misses"] == 0
        config = decision_config()
        config.evaluation.rules = ["bayes"]
        fresh = Runner().run(config)
        assert narrowed.to_json() == fresh.to_json()
        # Provenance preserved on the hit: n_train_images comes from the
        # cached payload, not a re-walk of the split.
        assert (
            narrowed.provenance["n_train_images"]
            == first.provenance["n_train_images"]
        )


class TestFitCacheUnit:
    def test_supports_requires_state_protocol(self):
        assert FitCache.supports(MetaClassifier(method="logistic")) is True
        assert FitCache.supports(object()) is False

    def test_corrupted_fit_entry_refits(self, tmp_path, metrics_dataset):
        store = ResultStore(tmp_path)
        config = metaseg_config()
        cache = FitCache(store, config.to_dict())
        train, test = metrics_dataset.split((0.8, 0.2), random_state=1)
        split = {"protocol": "unit", "split_seed": 1}
        model = MetaClassifier(method="logistic", random_state=3)
        fitted = cache.fit_or_load(model, train, split)
        assert cache.counters == {"hits": 0, "misses": 1}
        key = cache.fit_key(model, split)
        store._payload_path(key).write_bytes(b"{broken")
        refit = cache.fit_or_load(
            MetaClassifier(method="logistic", random_state=3), train, split
        )
        assert cache.counters["misses"] == 2
        import numpy as np

        np.testing.assert_array_equal(
            fitted.predict_proba(test), refit.predict_proba(test)
        )
