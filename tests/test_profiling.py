"""Unit tests for the profiler, profile database and COP predictor."""

import bisect
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.fleet import A100, T4, hardware_for_profile
from repro.models import get_model
from repro.ops.costmodel import DEFAULT_HARDWARE
from repro.profiling import (
    ConfigSpace,
    GroundTruthExecutor,
    LatencyPredictor,
    OperatorProfiler,
    ProfileDatabase,
)
from repro.profiling.database import ProfileLookupError

from tests.goldens import assert_golden, digest, digest_rows


def _json_bytes(db: ProfileDatabase, tmp_path) -> bytes:
    path = tmp_path / "profiles.json"
    db.to_json(path)
    return path.read_bytes()


def _reference_lookup(series, input_size):
    """The scalar interpolation rule over one sorted (size, time) list."""
    sizes = [size for size, _ in series]
    if len(series) == 1:
        size0, time0 = series[0]
        return max(1e-9, time0 * input_size / size0) if size0 > 0 else time0
    index = bisect.bisect_left(sizes, input_size)
    if index == 0:
        (x0, y0), (x1, y1) = series[0], series[1]
    elif index >= len(series):
        (x0, y0), (x1, y1) = series[-2], series[-1]
    else:
        (x0, y0), (x1, y1) = series[index - 1], series[index]
    if x1 == x0:
        return y0
    slope = (y1 - y0) / (x1 - x0)
    return max(1e-9, y0 + slope * (input_size - x0))


def _lookup(db, input_size, key):
    """One configuration's MatMul time, read from ``lookup_all``."""
    keys, times = db.lookup_all("MatMul", input_size)
    return float(times[keys.index(key)])


def _series_db(*points, key=(1, 1, 0)):
    """A database holding one MatMul series of ``(size, time)`` points."""
    db = ProfileDatabase()
    sizes, times = zip(*points)
    db.insert_block("MatMul", [key], sizes, [times])
    return db


def _ragged(series):
    """``insert_block``'s per-row sizes and times for ragged series.

    Short rows are padded with ``inf`` sizes and zero times, which a
    measured point could not hold.
    """
    width = max(map(len, series))
    sizes = np.full((len(series), width), np.inf)
    times = np.zeros((len(series), width))
    for row, points in enumerate(series):
        sizes[row, :len(points)], times[row, :len(points)] = zip(*points)
    return sizes, times


def _reference_json(operator, keys, series) -> bytes:
    """What ``to_json`` writes for one operator: each series sorted."""
    payload = {
        operator: {
            ",".join(map(str, key)): sorted(points)
            for key, points in zip(keys, series)
        }
    }
    return json.dumps(payload).encode()


class TestProfileDatabase:
    def test_insert_and_exact_lookup(self):
        db = _series_db((1.0, 0.01))
        assert _lookup(db, 1.0, (1, 1, 0)) == pytest.approx(0.01)

    def test_lookup_unknown_operator(self):
        db = ProfileDatabase()
        with pytest.raises(ProfileLookupError):
            db.lookup_all("Conv2D", 1.0)

    def test_lookup_unprofiled_config(self):
        db = _series_db((1.0, 0.01))
        keys, _times = db.lookup_all("MatMul", 1.0)
        assert (8, 4, 50) not in keys
        error = db.lookup_error("MatMul", (8, 4, 50))
        assert isinstance(error, ProfileLookupError)
        assert "(b=8, c=4, g=50)" in str(error)

    def test_interpolates_between_sizes(self):
        db = _series_db((1.0, 0.010), (2.0, 0.020))
        assert _lookup(db, 1.5, (1, 1, 0)) == pytest.approx(0.015)

    def test_extrapolates_beyond_range(self):
        db = _series_db((1.0, 0.010), (2.0, 0.020))
        assert _lookup(db, 4.0, (1, 1, 0)) == pytest.approx(0.040)

    def test_extrapolation_clamped_positive(self):
        db = _series_db((1.0, 0.010), (2.0, 0.020))
        assert _lookup(db, 1e-9, (1, 1, 0)) > 0

    def test_single_sample_scales_proportionally(self):
        db = _series_db((2.0, 0.020))
        assert _lookup(db, 1.0, (1, 1, 0)) == pytest.approx(0.010)

    def test_has_config(self):
        db = _series_db((1.0, 0.01))
        assert db.has_config("MatMul", 1, 1, 0)
        assert not db.has_config("MatMul", 2, 1, 0)

    def test_len_counts_inserts(self):
        # Points, not series or padding: 2 + (1 + 2).
        db = _series_db((1.0, 0.01), (2.0, 0.02))
        db.insert_block(
            "Relu", [(1, 1, 0), (2, 1, 0)], *_ragged([[(1.0, 0.01)], [(1.0, 0.01), (2.0, 0.02)]])
        )
        assert len(db) == 5

    def test_insert_block_validates(self):
        db = ProfileDatabase()
        key = (1, 1, 0)
        with pytest.raises(ValueError, match="positive"):
            db.insert_block("MatMul", [key], [1.0, 2.0], [[0.01, 0.0]])
        with pytest.raises(ValueError, match="batch"):
            db.insert_block("MatMul", [(0, 1, 0)], [1.0], [[0.01]])
        with pytest.raises(ValueError, match="keys x input sizes"):
            db.insert_block("MatMul", [key], [1.0, 2.0], [[0.01]])
        with pytest.raises(ValueError, match=re.escape("key (1, 1, 0) given twice")):
            db.insert_block("MatMul", [key, key], [1.0], [[0.01], [0.02]])
        with pytest.raises(ValueError, match="no points"):
            db.insert_block("MatMul", [key], [[np.inf]], [[0.01]])
        with pytest.raises(ValueError, match="non-empty"):
            db.insert_block("MatMul", [], [1.0], np.empty((0, 1)))
        assert len(db) == 0 and db.operators == []
        db.insert_block("MatMul", [key], [1.0], [[0.01]])
        with pytest.raises(ValueError, match="'MatMul' already has profiles"):
            db.insert_block("MatMul", [(2, 1, 0)], [1.0], [[0.01]])
        assert len(db) == 1 and db.lookup_all("MatMul", 1.0)[0] == (key,)

    def test_json_roundtrip(self, tmp_path):
        db = ProfileDatabase()
        db.insert_block(
            "MatMul", [(1, 1, 0), (4, 2, 20)], [[1.0], [2.0]], [[0.01], [0.02]]
        )
        path = tmp_path / "profiles.json"
        db.to_json(path)
        restored = ProfileDatabase.from_json(path)
        assert _lookup(restored, 1.0, (1, 1, 0)) == pytest.approx(0.01)
        assert _lookup(restored, 2.0, (4, 2, 20)) == pytest.approx(0.02)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "maps operators to their series"),
            ({"MatMul": [[1.0, 0.01]]}, "operator 'MatMul': expected an object"),
            ({"MatMul": {"1,1": [[1.0, 0.01]]}}, "operator 'MatMul': entry '1,1' is not"),
            ({"MatMul": {"a,1,0": [[1.0, 0.01]]}}, "operator 'MatMul': entry 'a,1,0' is not"),
            ({"MatMul": {"1,1,0": 5}}, "operator 'MatMul': entry '1,1,0' is not"),
            ({"MatMul": {"1,1,0": [[1.0]]}}, "operator 'MatMul': entry '1,1,0' is not"),
            ({"MatMul": {"1,1,0": []}}, "operator 'MatMul': entry '1,1,0' is not"),
            (
                {"MatMul": {"1,1,0": [[1.0, 0.01]], "1, 1, 0": [[2.0, 0.02]]}},
                "operator 'MatMul': key (1, 1, 0) given twice",
            ),
            (
                {"MatMul": {"1,1,0": [[1.0, 0.0]]}},
                "operator 'MatMul': key (1, 1, 0) has a non-positive time",
            ),
            ({"MatMul": {}}, "operator 'MatMul': times must be a non-empty"),
        ],
        ids=[
            "not-an-object", "operator-not-an-object", "short-key", "non-int-key",
            "non-list-series", "non-pair-point", "empty-series", "aliased-keys",
            "zero-time", "no-series",
        ],
    )
    def test_from_json_rejects_bad_input(self, tmp_path, payload, message):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(message)):
            ProfileDatabase.from_json(path)

    @given(
        sizes=st.lists(
            st.floats(0.01, 10.0), min_size=2, max_size=8, unique=True
        ),
        query=st.floats(0.01, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_interpolation_monotone_for_monotone_series(self, sizes, query):
        db = ProfileDatabase()
        db.insert_block("MatMul", [(1, 1, 0)], sizes, [[s * 2.0 for s in sizes]])
        value = _lookup(db, query, (1, 1, 0))
        assert value == pytest.approx(max(1e-9, query * 2.0), rel=1e-6)

    @given(
        series=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([0.5, 1.0, 2.0, 4.0])
                    | st.floats(0.01, 10.0),
                    st.floats(1e-4, 1.0),
                ),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        ),
        query=st.floats(1e-3, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_lookup_all_equals_lookup(self, series, query):
        # Every configuration's time equals the scalar interpolation
        # rule.  Ragged series of single points, duplicate and unsorted
        # sizes, stored as one padded block; queries also fall below
        # and above each series' range.
        db = ProfileDatabase()
        keys = [(batch, 1, 0) for batch in range(1, len(series) + 1)]
        db.insert_block("MatMul", keys, *_ragged(series))
        looked_up, times = db.lookup_all("MatMul", query)
        assert list(looked_up) == keys
        assert times.tolist() == [
            _reference_lookup(sorted(points), query) for points in series
        ]

    def test_insert_block_stores_what_the_reference_stores(self, tmp_path):
        # Shared sizes, out of order with a duplicate.
        keys = [(1, 1, 0), (2, 1, 0), (1, 2, 10)]
        sizes = [1.0, 0.1, 1.0, 2.0]
        times = [
            [0.03, 0.02, 0.01, 0.05],
            [0.01, 0.02, 0.03, 0.04],
            [0.2, 0.2, 0.1, 0.3],
        ]
        shared = ProfileDatabase()
        shared.insert_block("MatMul", keys, sizes, np.array(times))
        assert _json_bytes(shared, tmp_path) == _reference_json(
            "MatMul", keys, [list(zip(sizes, row)) for row in times]
        )
        assert len(shared) == 12

    def test_insert_block_ragged_rows_store_what_the_reference_stores(self, tmp_path):
        # Ragged rows of unsorted, repeated (size, time) points.
        keys = [(1, 1, 0), (2, 1, 0), (1, 2, 10)]
        series = [
            list(zip([1.0, 0.1, 1.0, 2.0, 0.1], [0.03, 0.02, 0.01, 0.05, 0.02])),
            [(0.5, 0.01)],
            [(2.0, 0.02), (2.0, 0.01)],
        ]
        ragged = ProfileDatabase()
        ragged.insert_block("MatMul", keys, *_ragged(series))
        assert _json_bytes(ragged, tmp_path) == _reference_json("MatMul", keys, series)
        assert len(ragged) == 8


class TestOperatorProfiler:
    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            OperatorProfiler(repetitions=0)

    def test_rejects_empty_input_sizes(self):
        with pytest.raises(ValueError):
            OperatorProfiler(input_sizes=())

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


def _database_golden(db: ProfileDatabase, tmp_path) -> dict:
    """A profile store's pinned form: the digest of ``to_json``'s bytes
    plus one digest per operator's series, so a failure names the
    operator that moved (the default store is 2.5 MB of JSON)."""
    data = _json_bytes(db, tmp_path)
    return {
        "groups": {
            operator: digest(json.dumps(series))
            for operator, series in json.loads(data).items()
        },
        "whole": digest(data),
    }


class TestPinnedProfiles:
    """The stored profiles are pinned byte for byte.

    Every prediction, report and golden downstream reads these stores,
    so the bytes of ``to_json`` must not move when the profiler's
    implementation does.
    """

    CASES = {
        "default": dict(hardware=DEFAULT_HARDWARE),
        "a100": dict(hardware=hardware_for_profile(A100)),
        "small-r1": dict(config_space=SMALL_SPACE, repetitions=1),
        "small-r50": dict(config_space=SMALL_SPACE, repetitions=50),
        # Out of order, with a duplicate size.
        "unsorted-sizes": dict(config_space=SMALL_SPACE, input_sizes=(1.0, 0.1, 1.0)),
        # No noise: each point is the mean of equal samples.
        "no-noise": dict(
            hardware=dataclasses.replace(DEFAULT_HARDWARE, noise_sigma=0.0),
            config_space=SMALL_SPACE,
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_database_digest(self, tmp_path, case):
        db = OperatorProfiler(**self.CASES[case]).build_database()
        assert_golden(f"profiles.{case}", _database_golden(db, tmp_path))

    def test_measure_then_operator_then_database_share_one_stream(self, tmp_path):
        profiler = OperatorProfiler(config_space=SMALL_SPACE, seed=3)
        assert profiler.measure("MatMul", 1.0, 4, 2, 20).time_s == 0.005805595416452603
        # Conv2D's whole grid, one point at a time: config by config,
        # then input size, the order one sweep draws its noise in.
        rows = [
            (size, c.batch, c.cpu, c.gpu,
             profiler.measure("Conv2D", size, c.batch, c.cpu, c.gpu).time_s)
            for c in SMALL_SPACE.all_configs()
            for size in profiler.input_sizes
        ]
        assert_golden("profiles.stream-conv2d", rows)
        db = profiler.build_database(operators=["Relu", "MatMul"])
        assert_golden("profiles.stream-database", _database_golden(db, tmp_path))

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

    def test_config_missing_for_one_operator_raises_naming_it(self):
        # mnist: Conv2D -> MaxPool -> Conv2D -> MaxPool -> Relu -> MatMul
        # -> Softmax.  Only MatMul lacks (b=2, c=4, g=30).
        profiler = OperatorProfiler(config_space=SMALL_SPACE, repetitions=1)
        operators = get_model("mnist").graph.distinct_operators()
        database = profiler.build_database(operators=sorted(operators - {"MatMul"}))
        configs = [key for key in profiler._config_grid() if key != (2, 4, 30)]
        database.insert_block(
            "MatMul", configs, profiler.input_sizes,
            np.full((len(configs), len(profiler.input_sizes)), 1e-3),
        )
        predictor = LatencyPredictor(database)
        message = "operator 'MatMul' has no profile at (b=2, c=4, g=30)"
        for predict in (predictor.predict, predictor.predict_raw):
            with pytest.raises(ProfileLookupError, match=re.escape(message)):
                predict("mnist", 2, 4, 30)
        assert predictor.predict("mnist", 2, 4, 100) > 0

    def test_predicts_more_time_for_less_gpu(self, predictor):
        model = get_model("resnet-50")
        assert predictor.predict(model, 8, 2, 10) > predictor.predict(model, 8, 2, 50)


def _grid_golden(groups) -> dict:
    """Predictions digested per (generation, model), and as the whole
    sequence in order (6,336 values a pass)."""
    values = [value for group in groups.values() for value in group]
    return {
        "groups": {name: digest_rows(group) for name, group in groups.items()},
        "whole": digest_rows(values),
    }


class TestPinnedPredictions:
    """COP's outputs over the zoo x default grid x three generations.

    ``predict`` feeds every scheduling decision, so its values are
    pinned byte for byte, with and without the safety offset.  The
    ``t4`` and ``a100`` passes route GPU rows to those generations'
    predictors; CPU-only rows fold onto the baseline.
    """

    GENERATIONS = (("2080ti", None), ("t4", T4), ("a100", A100))

    def _grid(self):
        from repro.models.zoo import MODEL_ZOO

        for name in sorted(MODEL_ZOO):
            for config in ConfigSpace().all_configs():
                yield MODEL_ZOO[name], config.batch, config.cpu, config.gpu

    def test_predict_digest(self, predictor):
        groups = {}
        for generation, profile in self.GENERATIONS:
            for model, batch, cpu, gpu in self._grid():
                groups.setdefault(f"{generation}/{model.name}", []).append(
                    predictor.predict(model, batch, cpu, gpu, gpu_profile=profile)
                )
        assert_golden("predictions.predict", _grid_golden(groups))

    def test_predict_raw_digest(self, predictor):
        groups = {}
        for generation, profile in self.GENERATIONS:
            owner = (
                predictor if profile is None
                else predictor._profile_predictor(profile)
            )
            for model, batch, cpu, gpu in self._grid():
                groups.setdefault(f"{generation}/{model.name}", []).append(
                    owner.predict_raw(model, batch, cpu, gpu)
                )
        assert_golden("predictions.predict_raw", _grid_golden(groups))
