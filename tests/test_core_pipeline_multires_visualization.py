"""Tests for repro.core.pipeline, repro.core.multiresolution and repro.core.visualization."""

import numpy as np
import pytest

from reference.visualization import read_ppm
from repro.core.meta_regression import MetaRegressor
from repro.core.multiresolution import MultiResolutionInference
from repro.core.visualization import (
    fig1_panels,
    iou_to_rgb,
    labels_to_rgb,
    render_ascii,
    write_ppm,
)


class TestMetaSegPipeline:
    def test_extract_dataset(self, metaseg_pipeline, cityscapes_like):
        dataset = metaseg_pipeline.extract_dataset(cityscapes_like.val_samples())
        assert len(dataset) > 20
        assert dataset.has_targets
        assert 0.0 < dataset.false_positive_fraction() < 1.0

    def test_extract_empty_raises(self, metaseg_pipeline):
        with pytest.raises(ValueError):
            metaseg_pipeline.extract_dataset([])

    def test_table1_protocol_structure(self, metaseg_pipeline, metrics_dataset):
        result = metaseg_pipeline.run_table1_protocol(metrics_dataset, n_runs=2, random_state=0)
        assert result.n_runs == 2
        assert "logistic_penalized" in result.classification
        assert "logistic_unpenalized" in result.classification
        assert "entropy_only" in result.classification
        assert "linear_all_metrics" in result.regression
        assert "entropy_only" in result.regression
        for metrics in result.classification.values():
            for mean, std in metrics.values():
                assert 0.0 <= mean <= 1.0
                assert std >= 0.0

    def test_table1_ordering_matches_paper(self, metaseg_pipeline, metrics_dataset):
        result = metaseg_pipeline.run_table1_protocol(metrics_dataset, n_runs=2, random_state=1)
        full_auroc = result.classification["logistic_penalized"]["test_auroc"][0]
        entropy_auroc = result.classification["entropy_only"]["test_auroc"][0]
        assert full_auroc > entropy_auroc
        assert full_auroc > result.naive_accuracy - 0.2
        full_r2 = result.regression["linear_all_metrics"]["test_r2"][0]
        entropy_r2 = result.regression["entropy_only"]["test_r2"][0]
        assert full_r2 > entropy_r2

    def test_summary_rows_renderable(self, metaseg_pipeline, metrics_dataset):
        result = metaseg_pipeline.run_table1_protocol(metrics_dataset, n_runs=1, random_state=2)
        rows = result.summary_rows()
        assert any("Meta Classification" in row for row in rows)
        assert any("Meta Regression" in row for row in rows)

    def test_invalid_protocol_arguments(self, metaseg_pipeline, metrics_dataset):
        with pytest.raises(ValueError):
            metaseg_pipeline.run_table1_protocol(metrics_dataset, n_runs=0)
        with pytest.raises(ValueError):
            metaseg_pipeline.run_table1_protocol(metrics_dataset, train_fraction=1.5)

    def test_metric_correlations(self, metaseg_pipeline, metrics_dataset):
        correlations = metaseg_pipeline.metric_iou_correlations(metrics_dataset)
        assert set(correlations) == set(metrics_dataset.feature_names)
        best = max(abs(v) for v in correlations.values())
        assert best > 0.5  # the Section II claim: strong single-metric correlation


class TestMultiResolution:
    @pytest.fixture(scope="class")
    def inference(self, mobilenet_network, label_space):
        return MultiResolutionInference(
            mobilenet_network, crop_fractions=(1.0, 0.75), label_space=label_space
        )

    def test_ensemble_members(self, inference, scene):
        members = inference.predict_ensemble(scene.labels, index=0)
        assert len(members) == 2
        for member in members:
            np.testing.assert_allclose(member.sum(axis=2), 1.0, atol=1e-6)

    def test_extended_features_present(self, inference, scene, extractor):
        dataset = inference.extract(scene.labels, index=0, image_id="img")
        base_names = set(extractor.feature_names())
        extra = set(dataset.feature_names) - base_names
        assert {"E_ens_mean", "E_ens_var", "M_ens_var", "V_ens_var"}.issubset(extra)
        assert dataset.has_targets

    def test_variance_columns_non_negative(self, inference, scene):
        dataset = inference.extract(scene.labels, index=0)
        for name in ("E_ens_var", "M_ens_var", "V_ens_var"):
            assert dataset.feature(name).min() >= 0.0

    def test_invalid_crop_fractions(self, mobilenet_network):
        with pytest.raises(ValueError):
            MultiResolutionInference(mobilenet_network, crop_fractions=(0.8, 0.5))
        with pytest.raises(ValueError):
            MultiResolutionInference(mobilenet_network, crop_fractions=(1.0, 1.0))
        with pytest.raises(ValueError):
            MultiResolutionInference(mobilenet_network, crop_fractions=())

    def test_member_replaces_only_the_centre_crop(self, inference, scene):
        """Level 1 is the full-resolution field with its centred 0.75 crop re-inferred."""
        full, member = inference.predict_ensemble(scene.labels, index=0)
        height, width = scene.labels.shape
        crop_height, crop_width = round(0.75 * height), round(0.75 * width)
        top, left = (height - crop_height) // 2, (width - crop_width) // 2
        inside = np.zeros((height, width), dtype=bool)
        inside[top:top + crop_height, left:left + crop_width] = True
        np.testing.assert_array_equal(member[~inside], full[~inside])
        assert not np.array_equal(member[inside], full[inside])

    def test_crop_fractions_outside_unit_interval(self, mobilenet_network):
        for fractions in ((1.0, 0.0), (1.0, -0.5), (1.0, 1.5)):
            with pytest.raises(ValueError):
                MultiResolutionInference(mobilenet_network, crop_fractions=fractions)
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            MultiResolutionInference(mobilenet_network, crop_fractions=(1.0, 0.0))

    def test_empty_inputs_rejected(self, inference):
        with pytest.raises(ValueError, match="members must be non-empty"):
            inference.ensemble_probabilities([])
        with pytest.raises(ValueError, match="no samples provided"):
            inference.extract_many([])

    def test_extract_many(self, inference, cityscapes_like):
        dataset = inference.extract_many(cityscapes_like.val_samples()[:2])
        assert len(dataset) > 10


class TestVisualization:
    def test_labels_to_rgb_palette(self, scene, label_space):
        rgb = labels_to_rgb(scene.labels, label_space)
        assert rgb.shape == (*scene.labels.shape, 3)
        assert rgb.dtype == np.uint8
        road_mask = scene.labels == label_space.id_of("road")
        if road_mask.any():
            np.testing.assert_array_equal(rgb[road_mask][0], (128, 64, 128))

    def test_ignore_rendered_white(self, label_space):
        labels = np.full((3, 3), -1)
        rgb = labels_to_rgb(labels, label_space)
        assert np.all(rgb == 255)

    def test_iou_to_rgb_colours(self, image_metrics):
        prediction = image_metrics.prediction
        rgb = iou_to_rgb(np.ones(prediction.n_segments), prediction)
        # IoU 1 renders green on every segment pixel.
        segment_pixels = prediction.components > 0
        assert np.all(rgb[segment_pixels] == (0, 255, 0))
        # Entry i colours segment id i + 1 only.
        values = np.zeros(prediction.n_segments)
        values[0] = 1.0
        rgb = iou_to_rgb(values, prediction)
        np.testing.assert_array_equal(rgb[..., 1] == 255, prediction.components == 1)

    def test_iou_to_rgb_unknown_segment_raises(self, image_metrics):
        # A value for segment id n + 1, which does not exist.
        prediction = image_metrics.prediction
        with pytest.raises(ValueError):
            iou_to_rgb(np.full(prediction.n_segments + 1, 0.5), prediction)

    def test_ppm_roundtrip(self, tmp_path, scene, label_space):
        rgb = labels_to_rgb(scene.labels, label_space)
        path = write_ppm(tmp_path / "scene.ppm", rgb)
        recovered = read_ppm(path)
        np.testing.assert_array_equal(recovered, rgb)

    def test_write_ppm_scales_unit_floats_and_clips_larger_values(self, tmp_path):
        unit = np.array([[[0.0, 0.5, 1.0]]])
        np.testing.assert_array_equal(
            read_ppm(write_ppm(tmp_path / "unit.ppm", unit)), [[[0, 127, 255]]]
        )
        wide = np.array([[[-3.0, 128.0, 300.0]]])
        np.testing.assert_array_equal(
            read_ppm(write_ppm(tmp_path / "wide.ppm", wide)), [[[0, 128, 255]]]
        )
        with pytest.raises(ValueError, match=r"\(H, W, 3\)"):
            write_ppm(tmp_path / "gray.ppm", np.zeros((2, 2)))

    def test_read_ppm_rejects_other_formats(self, tmp_path):
        ascii_ppm = tmp_path / "ascii.ppm"
        ascii_ppm.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValueError, match="not a binary PPM"):
            read_ppm(ascii_ppm)
        deep_ppm = tmp_path / "deep.ppm"
        deep_ppm.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(ValueError, match="only 8-bit"):
            read_ppm(deep_ppm)

    def test_render_ascii(self, probability_field):
        from repro.core.heatmaps import dispersion_heatmaps

        art = render_ascii(dispersion_heatmaps(probability_field)["E"], width=40)
        lines = art.splitlines()
        assert all(len(line) == 40 for line in lines)
        assert len(lines) >= 2

    def test_render_ascii_invalid(self):
        with pytest.raises(ValueError):
            render_ascii(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            render_ascii(np.zeros((2, 2)), width=1)

    def test_fig1_panels(self, image_metrics, scene, metrics_dataset, label_space):
        dataset = image_metrics.dataset
        regressor = MetaRegressor(method="linear").fit(metrics_dataset)
        predicted = regressor.predict(dataset)
        panels = fig1_panels(
            scene.labels, image_metrics.prediction, dataset.target_iou(), predicted, label_space
        )
        assert set(panels) == {"ground_truth", "prediction", "true_iou", "predicted_iou"}
        for panel in panels.values():
            assert panel.shape == (*scene.labels.shape, 3)
        np.testing.assert_array_equal(
            panels["true_iou"],
            iou_to_rgb(dataset.target_iou(), image_metrics.prediction, gt_labels=scene.labels),
        )

    def test_fig1_panels_reject_misaligned_iou(self, image_metrics, scene):
        dataset = image_metrics.dataset
        with pytest.raises(ValueError):
            fig1_panels(
                scene.labels, image_metrics.prediction,
                dataset.target_iou(), np.zeros(len(dataset) + 1),
            )
