"""Unit tests for the profiler, profile database and COP predictor."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.fleet import A100, hardware_for_profile
from repro.models import get_model
from repro.ops.costmodel import DEFAULT_HARDWARE
from repro.ops.operator import OperatorProfile
from repro.profiling import (
    ConfigSpace,
    GroundTruthExecutor,
    LatencyPredictor,
    OperatorProfiler,
    ProfileDatabase,
)
from repro.profiling.database import ProfileLookupError, _interpolate


class TestProfileDatabase:
    def _profile(self, p, t, batch=1, cpu=1, gpu=0):
        return OperatorProfile("MatMul", p, batch, cpu, gpu, t)

    def test_insert_and_exact_lookup(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.01))
        assert db.lookup("MatMul", 1.0, 1, 1, 0) == pytest.approx(0.01)

    def test_lookup_unknown_operator(self):
        db = ProfileDatabase()
        with pytest.raises(ProfileLookupError):
            db.lookup("Conv2D", 1.0, 1, 1, 0)

    def test_lookup_unprofiled_config(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.01))
        with pytest.raises(ProfileLookupError):
            db.lookup("MatMul", 1.0, 8, 4, 50)

    def test_interpolates_between_sizes(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.010))
        db.insert(self._profile(2.0, 0.020))
        assert db.lookup("MatMul", 1.5, 1, 1, 0) == pytest.approx(0.015)

    def test_extrapolates_beyond_range(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.010))
        db.insert(self._profile(2.0, 0.020))
        assert db.lookup("MatMul", 4.0, 1, 1, 0) == pytest.approx(0.040)

    def test_extrapolation_clamped_positive(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.010))
        db.insert(self._profile(2.0, 0.020))
        assert db.lookup("MatMul", 1e-9, 1, 1, 0) > 0

    def test_single_sample_scales_proportionally(self):
        db = ProfileDatabase()
        db.insert(self._profile(2.0, 0.020))
        assert db.lookup("MatMul", 1.0, 1, 1, 0) == pytest.approx(0.010)

    def test_has_config(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.01))
        assert db.has_config("MatMul", 1, 1, 0)
        assert not db.has_config("MatMul", 2, 1, 0)

    def test_len_counts_inserts(self):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.01))
        db.insert(self._profile(2.0, 0.02))
        assert len(db) == 2

    def test_insert_series_stores_what_repeated_inserts_store(self):
        sizes = [1.0, 0.1, 1.0, 2.0, 0.1]
        times = [0.03, 0.02, 0.01, 0.05, 0.02]
        one_by_one, bulk = ProfileDatabase(), ProfileDatabase()
        for size, time_s in zip(sizes, times):
            one_by_one.insert(self._profile(size, time_s, batch=2))
        bulk.insert_series("MatMul", (2, 1, 0), sizes[:2], times[:2])
        bulk.insert_series("MatMul", (2, 1, 0), sizes[2:], times[2:])
        assert bulk._store == one_by_one._store
        assert len(bulk) == len(one_by_one) == 5

    def test_insert_series_validates(self):
        db = ProfileDatabase()
        with pytest.raises(ValueError, match="positive"):
            db.insert_series("MatMul", (1, 1, 0), [1.0, 2.0], [0.01, 0.0])
        with pytest.raises(ValueError, match="batch"):
            db.insert_series("MatMul", (0, 1, 0), [1.0], [0.01])
        with pytest.raises(ValueError, match="length"):
            db.insert_series("MatMul", (1, 1, 0), [1.0, 2.0], [0.01])
        assert len(db) == 0

    def test_json_roundtrip(self, tmp_path):
        db = ProfileDatabase()
        db.insert(self._profile(1.0, 0.01))
        db.insert(self._profile(2.0, 0.02, batch=4, cpu=2, gpu=20))
        path = tmp_path / "profiles.json"
        db.to_json(path)
        restored = ProfileDatabase.from_json(path)
        assert restored.lookup("MatMul", 1.0, 1, 1, 0) == pytest.approx(0.01)
        assert restored.lookup("MatMul", 2.0, 4, 2, 20) == pytest.approx(0.02)

    @given(
        sizes=st.lists(
            st.floats(0.01, 10.0), min_size=2, max_size=8, unique=True
        ),
        query=st.floats(0.01, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_interpolation_monotone_for_monotone_series(self, sizes, query):
        series = sorted((s, s * 2.0) for s in sizes)
        value = _interpolate(series, query)
        assert value == pytest.approx(max(1e-9, query * 2.0), rel=1e-6)


class TestOperatorProfiler:
    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            OperatorProfiler(repetitions=0)

    def test_rejects_empty_input_sizes(self):
        with pytest.raises(ValueError):
            OperatorProfiler(input_sizes=())

    def test_measure_and_profile_operator_are_views_of_one_sweep(self):
        space = ConfigSpace(cpu_choices=(1, 2), gpu_choices=(0, 50), max_batch=2)
        profiles = OperatorProfiler(
            config_space=space, input_sizes=(0.1, 1.0), seed=5
        ).profile_operator("Conv2D")
        single = OperatorProfiler(config_space=space, input_sizes=(0.1, 1.0), seed=5)
        assert [
            single.measure(p.operator, p.input_size, p.batch, p.cpu, p.gpu)
            for p in profiles
        ] == profiles

    def test_profile_operator_covers_grid(self):
        space = ConfigSpace(cpu_choices=(1,), gpu_choices=(0, 10), max_batch=2)
        profiler = OperatorProfiler(
            config_space=space, input_sizes=(0.1, 1.0), repetitions=1
        )
        profiles = profiler.profile_operator("MatMul")
        assert len(profiles) == space.size() * 2

    def test_build_database_subset(self):
        space = ConfigSpace(cpu_choices=(1,), gpu_choices=(0,), max_batch=1)
        profiler = OperatorProfiler(
            config_space=space, input_sizes=(1.0,), repetitions=1
        )
        db = profiler.build_database(operators=["MatMul", "Relu"])
        assert db.operators == ["MatMul", "Relu"]

    def test_measurements_average_toward_truth(self):
        profiler = OperatorProfiler(repetitions=50, seed=1)
        profile = profiler.measure("MatMul", 1.0, 4, 2, 20)
        truth = profiler.cost_model.operator_time(
            __import__("repro.ops.operator", fromlist=["OperatorSpec"]).OperatorSpec(
                "MatMul", gflops_per_item=1.0
            ),
            4,
            2,
            20,
        )
        assert profile.time_s == pytest.approx(truth, rel=0.05)


#: a small (b, c, g) grid for the pinned-digest cases below.
SMALL_SPACE = ConfigSpace(cpu_choices=(1, 4), gpu_choices=(0, 30, 100), max_batch=4)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedProfiles:
    """The stored profiles are pinned byte for byte.

    Every prediction, report and golden downstream reads these stores,
    so the digests of ``to_json`` must not move when the profiler's
    implementation does.
    """

    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            (
                dict(hardware=DEFAULT_HARDWARE),
                "af5d658b499852f9ee6c691520e6721224d56e5073dc1ef17a358b16ab7f64f3",
            ),
            (
                dict(hardware=hardware_for_profile(A100)),
                "edd23e7516f329c6e3f39a29dacab4e68de7d057d921a0e6ce773f0e04169878",
            ),
            (
                dict(config_space=SMALL_SPACE, repetitions=1),
                "e617d6765c197503c2dbc2d5ea8db40e4f03844c94c78f49f8a04fa551729ae9",
            ),
            (
                dict(config_space=SMALL_SPACE, repetitions=50),
                "ab6fce561050d1ef0c74b269ed7cb328c15cec7eb091f947562d4c31ea663367",
            ),
            (
                # Out of order, with a duplicate size.
                dict(config_space=SMALL_SPACE, input_sizes=(1.0, 0.1, 1.0)),
                "a0367a3db34e081aa540b5cc2d5d3082dafd00450bd9006d5c7a0d386a67a8b7",
            ),
            (
                # No noise: each point is the mean of equal samples.
                dict(
                    hardware=dataclasses.replace(DEFAULT_HARDWARE, noise_sigma=0.0),
                    config_space=SMALL_SPACE,
                ),
                "8a0aae641612eb3b64050e1ebadd77b68aa3da0444f80c43bc13af262ac30efe",
            ),
        ],
        ids=["default", "a100", "small-r1", "small-r50", "unsorted-sizes", "no-noise"],
    )
    def test_database_digest(self, tmp_path, kwargs, digest):
        path = tmp_path / "profiles.json"
        OperatorProfiler(**kwargs).build_database().to_json(path)
        assert _sha256(path.read_bytes()) == digest

    def test_measure_then_operator_then_database_share_one_stream(self, tmp_path):
        profiler = OperatorProfiler(config_space=SMALL_SPACE, seed=3)
        assert profiler.measure("MatMul", 1.0, 4, 2, 20).time_s == 0.005805595416452603
        profiles = profiler.profile_operator("Conv2D")
        rows = [(p.input_size, p.batch, p.cpu, p.gpu, p.time_s) for p in profiles]
        assert _sha256(repr(rows).encode()) == (
            "1b47709dc8062de10c953bcf7643fb4c68881f43bcf5db041cb89290ce620ac8"
        )
        path = tmp_path / "profiles.json"
        profiler.build_database(operators=["Relu", "MatMul"]).to_json(path)
        assert _sha256(path.read_bytes()) == (
            "aabe653e99a5e9e636d24bd5389754cb976df42b618a3014ce186eb4c214e272"
        )

    def test_json_roundtrip_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        OperatorProfiler(
            config_space=SMALL_SPACE, input_sizes=(1.0, 0.1, 1.0)
        ).build_database().to_json(first)
        ProfileDatabase.from_json(first).to_json(second)
        assert second.read_bytes() == first.read_bytes()


class TestLatencyPredictor:
    def test_prediction_within_paper_band(self, predictor, executor):
        """Fig. 8: mean COP error stays under ~10% per model."""
        for name in ("resnet-50", "mobilenet", "lstm-2365"):
            model = get_model(name)
            errors = []
            for batch in (1, 4, 8):
                for cpu, gpu in ((1, 0), (2, 20), (4, 50)):
                    predicted = predictor.predict_raw(model, batch, cpu, gpu)
                    actual = executor.mean_execution_time(model, batch, cpu, gpu)
                    errors.append(abs(predicted - actual) / actual)
            assert np.mean(errors) < 0.12, name

    def test_lstm_error_highest_of_fig8_trio(self, predictor, executor):
        """Fig. 8: the branchy LSTM has the worst prediction error."""
        means = {}
        for name in ("resnet-50", "mobilenet", "lstm-2365"):
            model = get_model(name)
            errors = []
            for batch in (1, 2, 4, 8):
                for cpu, gpu in ((1, 0), (2, 0), (2, 20), (4, 50)):
                    predicted = predictor.predict_raw(model, batch, cpu, gpu)
                    actual = executor.mean_execution_time(model, batch, cpu, gpu)
                    errors.append(abs(predicted - actual) / actual)
            means[name] = np.mean(errors)
        assert means["lstm-2365"] == max(means.values())

    def test_safety_offset_applied(self, predictor):
        model = get_model("resnet-50")
        raw = predictor.predict_raw(model, 4, 2, 20)
        assert predictor.predict(model, 4, 2, 20) == pytest.approx(1.10 * raw)

    def test_offset_below_one_rejected(self, predictor):
        with pytest.raises(ValueError):
            LatencyPredictor(predictor.database, safety_offset=0.9)

    def test_predict_accepts_model_name(self, predictor):
        by_name = predictor.predict("resnet-50", 4, 2, 20)
        by_spec = predictor.predict(get_model("resnet-50"), 4, 2, 20)
        assert by_name == by_spec

    def test_predictions_cached(self, predictor):
        predictor.predict("mnist", 2, 1, 0)
        assert ("mnist", 2, 1, 0) in predictor._cache

    def test_prediction_error_helper(self, predictor):
        model = get_model("mnist")
        raw = predictor.predict_raw(model, 1, 1, 0)
        assert predictor.prediction_error(model, 1, 1, 0, raw) == pytest.approx(0.0)

    def test_prediction_error_rejects_bad_actual(self, predictor):
        with pytest.raises(ValueError):
            predictor.prediction_error("mnist", 1, 1, 0, 0.0)

    def test_predicts_more_time_for_less_gpu(self, predictor):
        model = get_model("resnet-50")
        assert predictor.predict(model, 8, 2, 10) > predictor.predict(model, 8, 2, 50)
