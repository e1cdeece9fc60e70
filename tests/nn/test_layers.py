"""Tests for layer specs: shapes, MACs, params, conv-dim mapping."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.nn import ConvDims, GraphBuilder, LayerSpec, OpType
from repro.nn.layers import (
    attention_macs,
    ceil_div,
    conv_out_hw,
    human_count,
)


class TestConvOutHw:
    def test_same_padding(self):
        assert conv_out_hw(32, 32, 3, 1, 1) == (32, 32)

    def test_stride2(self):
        assert conv_out_hw(32, 32, 3, 2, 1) == (16, 16)

    def test_collapse_raises(self):
        with pytest.raises(ValueError, match="collapses"):
            conv_out_hw(1, 1, 5, 1, 0)

    @given(
        h=st.integers(8, 256), k=st.sampled_from([1, 3, 5, 7]),
        s=st.sampled_from([1, 2]),
    )
    def test_output_positive_with_same_padding(self, h: int, k: int, s: int):
        oh, ow = conv_out_hw(h, h, k, s, k // 2)
        assert oh >= 1 and ow >= 1


class TestConvDims:
    def test_macs(self):
        dims = ConvDims(k=16, c=8, y=10, x=10, r=3, s=3)
        assert dims.macs == 16 * 8 * 100 * 9

    def test_grouped_macs(self):
        dims = ConvDims(k=1, c=1, y=10, x=10, r=3, s=3, groups=32)
        assert dims.macs == 32 * 100 * 9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="ConvDims"):
            ConvDims(k=0, c=1, y=1, x=1, r=1, s=1)


def conv_layer(cin=8, cout=16, hw=32, kernel=3, stride=1, groups=1) -> LayerSpec:
    oh = (hw + 2 * (kernel // 2) - kernel) // stride + 1
    return LayerSpec(
        name="conv", op=OpType.CONV2D,
        in_shape=(cin, hw, hw), out_shape=(cout, oh, oh),
        kernel=kernel, stride=stride, padding=kernel // 2, groups=groups,
    )


class TestLayerSpecValidation:
    def test_requires_name(self):
        with pytest.raises(ValueError, match="name"):
            LayerSpec(name="", op=OpType.ADD, in_shape=(1, 1, 1),
                      out_shape=(1, 1, 1))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            LayerSpec(name="x", op=OpType.ADD, in_shape=(0, 1, 1),
                      out_shape=(1, 1, 1))

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="stride"):
            LayerSpec(name="x", op=OpType.CONV2D, in_shape=(1, 4, 4),
                      out_shape=(1, 4, 4), kernel=3, stride=0)

    def test_rejects_groups_that_do_not_divide_the_channels(self):
        # conv_dims() would truncate this to k=2, c=1 and the cost model
        # would price it; nn.ops.conv2d rejects it as a channel mismatch.
        with pytest.raises(ValueError, match="channel mismatch"):
            GraphBuilder("g", (6, 8, 8)).conv(8, groups=4)
        with pytest.raises(ValueError, match="channel mismatch"):
            conv_layer(cin=8, cout=6, groups=4)
        with pytest.raises(ValueError, match="channel mismatch"):
            LayerSpec(name="d", op=OpType.DECONV2D, in_shape=(6, 4, 4),
                      out_shape=(8, 8, 8), kernel=4, stride=2, groups=4)

    def test_accepts_groups_that_divide_the_channels(self):
        layer = conv_layer(cin=8, cout=12, groups=4)
        assert layer.conv_dims() == ConvDims(
            k=3, c=2, y=32, x=32, r=3, s=3, groups=4
        )


class TestMacCounting:
    def test_conv_macs(self):
        layer = conv_layer(cin=8, cout=16, hw=32, kernel=3)
        assert layer.macs == 16 * 8 * 32 * 32 * 9

    def test_dwconv_macs(self):
        layer = LayerSpec(
            name="dw", op=OpType.DWCONV2D, in_shape=(32, 16, 16),
            out_shape=(32, 16, 16), kernel=3, padding=1, groups=32,
        )
        assert layer.macs == 32 * 16 * 16 * 9

    def test_fc_macs(self):
        layer = LayerSpec(
            name="fc", op=OpType.FC, in_shape=(128, 1, 1),
            out_shape=(10, 1, 1),
        )
        assert layer.macs == 1280

    def test_attention_macs(self):
        layer = LayerSpec(
            name="attn", op=OpType.ATTENTION, in_shape=(64, 1, 16),
            out_shape=(64, 1, 16), heads=4,
        )
        expected = attention_macs(seq=16, dim=64)
        # The GEMM-equivalent mapping rounds the reduction dim.
        assert layer.macs == pytest.approx(expected, rel=0.05)

    def test_memory_ops_have_zero_macs(self):
        for op in (OpType.MAXPOOL, OpType.UPSAMPLE, OpType.ADD,
                   OpType.CONCAT, OpType.RESHAPE):
            layer = LayerSpec(name="m", op=op, in_shape=(4, 8, 8),
                              out_shape=(4, 8, 8))
            assert layer.macs == 0

    def test_flops_are_twice_macs(self):
        layer = conv_layer()
        assert layer.flops == 2 * layer.macs


class TestParamCounting:
    def test_conv_params(self):
        layer = conv_layer(cin=8, cout=16, kernel=3)
        assert layer.params == 8 * 16 * 9 + 16

    def test_dwconv_params(self):
        layer = LayerSpec(
            name="dw", op=OpType.DWCONV2D, in_shape=(32, 16, 16),
            out_shape=(32, 16, 16), kernel=3, padding=1, groups=32,
        )
        assert layer.params == 32 * 9 + 32

    def test_fc_params(self):
        layer = LayerSpec(name="fc", op=OpType.FC, in_shape=(128, 1, 1),
                          out_shape=(10, 1, 1))
        assert layer.params == 128 * 10 + 10

    def test_attention_params(self):
        layer = LayerSpec(name="a", op=OpType.ATTENTION, in_shape=(64, 1, 8),
                          out_shape=(64, 1, 8))
        assert layer.params == 4 * (64 * 64 + 64)

    def test_layernorm_params(self):
        layer = LayerSpec(name="ln", op=OpType.LAYERNORM,
                          in_shape=(64, 1, 8), out_shape=(64, 1, 8))
        assert layer.params == 128

    def test_pool_has_no_params(self):
        layer = LayerSpec(name="p", op=OpType.MAXPOOL, in_shape=(4, 8, 8),
                          out_shape=(4, 4, 4), kernel=2, stride=2)
        assert layer.params == 0


class TestConvDimsMapping:
    def test_conv_maps_directly(self):
        layer = conv_layer(cin=8, cout=16, hw=32)
        dims = layer.conv_dims()
        assert (dims.k, dims.c, dims.y, dims.x) == (16, 8, 32, 32)
        assert dims.macs == layer.macs

    def test_fc_maps_to_1x1(self):
        layer = LayerSpec(name="fc", op=OpType.FC, in_shape=(128, 2, 2),
                          out_shape=(10, 1, 1))
        dims = layer.conv_dims()
        assert (dims.y, dims.x, dims.r, dims.s) == (1, 1, 1, 1)
        assert dims.c == 512  # flattened input

    def test_memory_op_maps_to_none(self):
        layer = LayerSpec(name="p", op=OpType.MAXPOOL, in_shape=(4, 8, 8),
                          out_shape=(4, 4, 4), kernel=2, stride=2)
        assert layer.conv_dims() is None

    @given(
        cin=st.integers(1, 64), cout=st.integers(1, 64),
        hw=st.integers(4, 64),
    )
    def test_dims_macs_always_match_layer_macs(self, cin, cout, hw):
        layer = conv_layer(cin=cin, cout=cout, hw=hw)
        assert layer.conv_dims().macs == layer.macs


class TestHelpers:
    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3

    def test_ceil_div_rejects_zero(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)

    def test_human_count(self):
        assert human_count(1.5e9) == "1.50G"
        assert human_count(2e6) == "2.00M"
        assert human_count(3e3) == "3.00K"
        assert human_count(12) == "12"

    def test_bytes_accounting(self):
        layer = conv_layer(cin=8, cout=16, hw=32)
        assert layer.in_bytes == 8 * 32 * 32
        assert layer.out_bytes == 16 * 32 * 32
        assert layer.weight_bytes == layer.params
