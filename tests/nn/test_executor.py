"""Tests for the graph executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import GraphBuilder, GraphExecutor, random_input


def tiny_graph():
    b = GraphBuilder("tiny", (3, 16, 16))
    b.conv(8, 3, name="c1")
    b.pool(2)
    b.conv(8, 3, name="c2")
    b.add("c2")  # self-residual via prior layer output
    b.global_pool()
    b.fc(5, name="head")
    return b.build()


def skip_graph():
    b = GraphBuilder("skippy", (2, 8, 8))
    b.conv(4, 3, name="enc")
    b.conv(4, 3, name="mid")
    b.add("enc")
    b.concat("enc", 4)
    b.conv(3, 1, name="out")
    return b.build()


class TestExecution:
    def test_output_shape(self):
        out = GraphExecutor(tiny_graph()).run()
        assert out.shape == (5, 1, 1)

    def test_deterministic_given_seed(self):
        g = tiny_graph()
        a = GraphExecutor(g, seed=1).run()
        b = GraphExecutor(g, seed=1).run()
        np.testing.assert_allclose(a, b)

    def test_seed_changes_weights(self):
        g = tiny_graph()
        x = random_input(g, seed=0)
        a = GraphExecutor(g, seed=1).run(x)
        b = GraphExecutor(g, seed=2).run(x)
        assert not np.allclose(a, b)

    def test_skip_connections(self):
        out = GraphExecutor(skip_graph()).run()
        assert out.shape == (3, 8, 8)

    def test_wrong_input_shape_rejected(self):
        g = tiny_graph()
        with pytest.raises(ValueError, match="input shape"):
            GraphExecutor(g).run(np.zeros((1, 2, 2)))

    def test_record_activations(self):
        g = tiny_graph()
        ex = GraphExecutor(g, record_activations=True)
        ex.run()
        assert set(ex.activations) == {layer.name for layer in g.layers}

    def test_every_activation_matches_spec(self):
        g = skip_graph()
        ex = GraphExecutor(g, record_activations=True)
        ex.run()
        for layer in g.layers:
            assert ex.activations[layer.name].shape == layer.out_shape

    def test_all_finite(self):
        out = GraphExecutor(skip_graph()).run()
        assert np.isfinite(out).all()


class TestWeights:
    def test_weights_cached(self):
        g = tiny_graph()
        ex = GraphExecutor(g)
        w1 = ex.weights_for(g.find("c1"))
        w2 = ex.weights_for(g.find("c1"))
        assert w1 is w2

    def test_conv_weight_shape(self):
        g = tiny_graph()
        ex = GraphExecutor(g)
        w = ex.weights_for(g.find("c1"))
        assert w["weight"].shape == (8, 3, 3, 3)
        assert w["bias"].shape == (8,)

    def test_fc_weight_shape(self):
        g = tiny_graph()
        ex = GraphExecutor(g)
        w = ex.weights_for(g.find("head"))
        assert w["weight"].shape == (5, 8)


class TestTransformerExecution:
    def test_transformer_graph_runs(self):
        b = GraphBuilder("tfm", (16, 1, 8))
        b.transformer_block(heads=4)
        b.transformer_block(heads=4)
        out = GraphExecutor(b.build()).run()
        assert out.shape == (16, 1, 8)
        assert np.isfinite(out).all()

    def test_reshape_roundtrip(self):
        b = GraphBuilder("rs", (4, 4, 4))
        b.reshape((4, 1, 16))
        b.attention(2)
        b.reshape((4, 4, 4))
        out = GraphExecutor(b.build()).run()
        assert out.shape == (4, 4, 4)


class TestDeconvAndRoi:
    def test_deconv_runs(self):
        b = GraphBuilder("dc", (4, 4, 4))
        b.deconv(2, 4, 2)
        out = GraphExecutor(b.build()).run()
        assert out.shape == (2, 8, 8)

    def test_roialign_runs(self):
        b = GraphBuilder("roi", (4, 16, 16))
        b.roialign(3, 7)
        out = GraphExecutor(b.build()).run()
        assert out.shape == (4, 7, 21)


@pytest.mark.parametrize("code", ["KD", "GE"])
def test_zoo_forward_pass_shape(code):
    """A reference model runs end to end on the numpy engine."""
    from repro.zoo import build_model

    graph = build_model(code)
    assert GraphExecutor(graph, seed=0).run().shape == graph.out_shape
