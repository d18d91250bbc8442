"""Tests validating the model zoo against Table 1 and Fig. 7."""

import pytest

from repro.models import MODEL_ZOO, get_model, list_models


def _fans_out(graph):
    """Whether some operator feeds more than one other (not a chain)."""
    return any(len(graph.successors(node.node_id)) > 1 for node in graph.nodes)

TABLE1 = {
    "bert-v1": (391.0, 22.2),
    "resnet-50": (98.0, 3.89),
    "vggnet": (69.0, 5.55),
    "lstm-2365": (39.0, 0.10),
    "resnet-20": (36.0, 1.55),
    "ssd": (29.0, 2.02),
    "dssm-2389": (25.0, 0.13),
    "deepspeech": (17.0, 1.60),
    "mobilenet": (17.0, 0.05),
    "textcnn-69": (11.0, 0.53),
    "mnist": (0.072, 0.01),
}


class TestTable1:
    def test_eleven_models(self):
        assert len(MODEL_ZOO) == 11

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_params_match(self, name):
        params, _ = TABLE1[name]
        assert MODEL_ZOO[name].params_millions == pytest.approx(params)

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_graph_gflops_normalised_to_table(self, name):
        _, gflops = TABLE1[name]
        model = MODEL_ZOO[name]
        assert model.gflops == pytest.approx(gflops)
        assert model.graph.total_gflops_per_item() == pytest.approx(gflops, rel=1e-6)

    @pytest.mark.parametrize("name", sorted(TABLE1))
    def test_graphs_are_valid_dags(self, name):
        MODEL_ZOO[name].graph.validate()

    def test_list_models_sorted_by_size(self):
        sizes = [m.params_millions for m in list_models()]
        assert sizes == sorted(sizes, reverse=True)

    def test_get_model_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model("alexnet")


class TestOperatorComposition:
    def test_shared_operator_vocabulary_is_small(self):
        distinct = set()
        total_calls = 0
        for model in MODEL_ZOO.values():
            distinct |= model.graph.distinct_operators()
            total_calls += model.graph.total_calls()
        # Observation 6: >1,000 calls, few distinct operators.
        assert total_calls > 1000
        assert len(distinct) < 40

    def test_resnet50_dominated_by_conv2d(self):
        model = get_model("resnet-50")
        work = {
            node.spec.kind_name: 0.0 for node in model.graph.nodes
        }
        for node in model.graph.nodes:
            work[node.spec.kind_name] += node.spec.total_gflops_per_item
        conv_share = work.get("Conv2D", 0.0) / model.gflops
        assert conv_share > 0.9  # Fig. 7(b): >95% of time in Conv2D

    def test_lstm_matmul_called_81_times(self):
        calls = get_model("lstm-2365").graph.calls_by_operator()
        assert calls["MatMul"] == 81  # Fig. 7(a)

    def test_lstm_sum_called_once(self):
        calls = get_model("lstm-2365").graph.calls_by_operator()
        assert calls["Sum"] == 1

    def test_qa_models_are_branchy(self):
        for name in ("lstm-2365", "dssm-2389", "textcnn-69"):
            assert _fans_out(get_model(name).graph)

    def test_cnn_classifiers_are_chains(self):
        for name in ("resnet-50", "mobilenet", "mnist"):
            assert not _fans_out(get_model(name).graph)


class TestDerivedProperties:
    def test_model_size_follows_params(self):
        assert get_model("bert-v1").model_size_mb == pytest.approx(391 * 4)

    def test_cold_start_grows_with_size(self):
        assert get_model("bert-v1").cold_start_s > get_model("mnist").cold_start_s

    def test_cold_start_has_container_floor(self):
        assert get_model("mnist").cold_start_s > 1.0

    def test_memory_grows_with_batch(self):
        model = get_model("resnet-50")
        assert model.memory_mb(8) > model.memory_mb(1)

    def test_memory_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            get_model("resnet-50").memory_mb(0)

    def test_max_batch_capped_at_32(self):
        for model in MODEL_ZOO.values():
            assert 8 <= model.max_batch <= 32

    def test_bert_has_smallest_max_batch(self):
        assert get_model("bert-v1").max_batch == 8
