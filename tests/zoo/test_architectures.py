"""Per-model architectural tests.

Each class pins down the structure of one zoo model: stage resolutions,
block counts, head shapes and the operator signature Table 7 attributes
to that model's published instance.  These are regression guards for the
calibrated architectures.
"""

from __future__ import annotations

from repro.nn import OpType
from repro.zoo import build_model


def ops_of(code: str) -> list[OpType]:
    return [layer.op for layer in build_model(code).layers]


def count(code: str, op: OpType) -> int:
    return ops_of(code).count(op)


class TestHandTracking:
    g = staticmethod(lambda: build_model("HT"))

    def test_resnet_depth(self):
        # 8 residual blocks = 16 body convs + stem.
        assert count("HT", OpType.ADD) == 8

    def test_graph_cnn_head_is_fc(self):
        g = self.g()
        tail = [layer for layer in g.layers if layer.op is OpType.FC]
        assert [layer.name for layer in tail] == [
            "graph_latent", "mesh_vertices", "joints",
        ]

    def test_mesh_output_1280_vertices(self):
        assert self.g().find("mesh_vertices").out_shape[0] == 1280 * 3

    def test_joints_output_21_keypoints(self):
        assert self.g().out_shape == (21 * 3, 1, 1)

    def test_encoder_reaches_stride_32(self):
        # 240 -> 120 -> 60 -> 30 -> 15 -> 8 (odd dims round up at stride 2).
        g = self.g()
        gap_in = next(layer for layer in g.layers if layer.op is OpType.GLOBALPOOL)
        assert gap_in.in_shape[1] == 8


class TestEyeSegmentation:
    def test_unet_symmetry(self):
        # Two pool stages down, two upsample stages back.
        assert count("ES", OpType.AVGPOOL) == 2
        assert count("ES", OpType.UPSAMPLE) == 2

    def test_skip_concats(self):
        g = build_model("ES")
        cats = [layer for layer in g.layers if layer.op is OpType.CONCAT]
        assert {c.residual_from for c in cats} == {"enc1b", "enc2b"}

    def test_dense_prediction_at_input_resolution(self):
        g = build_model("ES")
        assert g.out_shape == (4, 100, 160)  # 4 eye classes, full res


class TestGazeEstimation:
    def test_inverted_residual_count(self):
        # FBNet-C style: every block carries exactly one depthwise conv.
        assert count("GE", OpType.DWCONV2D) == 10

    def test_downsamples_to_stride_32(self):
        g = build_model("GE")
        gap = next(layer for layer in g.layers if layer.op is OpType.GLOBALPOOL)
        assert gap.in_shape[1:] == (4, 4)  # 128 / 32

    def test_regression_head(self):
        assert build_model("GE").out_shape == (3, 1, 1)


class TestKeywordDetection:
    def test_res8_has_three_residual_blocks(self):
        assert count("KD", OpType.ADD) == 3

    def test_twelve_command_classes(self):
        assert build_model("KD").out_shape == (12, 1, 1)

    def test_tiny_footprint(self):
        g = build_model("KD")
        assert g.total_params < 50_000
        assert g.total_macs < 50e6


class TestSpeechRecognition:
    def test_24_transformer_blocks(self):
        assert count("SR", OpType.ATTENTION) == 24

    def test_prenorm_layout(self):
        # 2 norms per block + final norm.
        assert count("SR", OpType.LAYERNORM) == 24 * 2 + 1

    def test_vocab_projection(self):
        g = build_model("SR")
        assert g.find("vocab_proj").out_shape[0] == 4096

    def test_streaming_segment_length(self):
        assert build_model("SR").input_shape == (80, 1, 144)


class TestSemanticSegmentation:
    def test_transformer_stage_at_32nd_scale(self):
        g = build_model("SS")
        token_layer = g.find("tokenise")
        assert token_layer.out_shape[1:] == (1, 512)  # 16x32 tokens

    def test_four_attention_blocks(self):
        assert count("SS", OpType.ATTENTION) == 4

    def test_hr_branch_fused_in_decoder(self):
        g = build_model("SS")
        fuse = g.find("hr_fuse")
        assert fuse.op is OpType.CONCAT

    def test_19_cityscapes_classes_at_quarter_res(self):
        assert build_model("SS").out_shape == (19, 128, 256)


class TestObjectDetection:
    def test_two_stage_structure(self):
        g = build_model("OD")
        names = [layer.name for layer in g.layers]
        assert names.index("rpn_conv") < names.index("roialign")

    def test_roi_count(self):
        g = build_model("OD")
        assert g.find("roialign").extra["rois"] == 64

    def test_coco_head(self):
        assert build_model("OD").out_shape == (81 * 5, 1, 1)


class TestActionSegmentation:
    def test_encoder_decoder_symmetry(self):
        assert count("AS", OpType.MAXPOOL) == 2
        assert count("AS", OpType.UPSAMPLE) == 2

    def test_per_step_labels(self):
        g = build_model("AS")
        assert g.out_shape == (11, 8, 16)  # 11 classes over folded time

    def test_feature_input(self):
        assert build_model("AS").input_shape[0] == 2048


class TestDepthEstimation:
    def test_efficientnet_style_body(self):
        assert count("DE", OpType.DWCONV2D) >= 10

    def test_decoder_skip_fusion(self):
        assert count("DE", OpType.CONCAT) == 2

    def test_half_resolution_depth_map(self):
        assert build_model("DE").out_shape == (1, 128, 128)


class TestDepthRefinement:
    def test_four_deconv_stages(self):
        assert count("DR", OpType.DECONV2D) == 4

    def test_rgbd_input(self):
        assert build_model("DR").input_shape == (4, 228, 304)

    def test_dense_depth_output(self):
        c, h, w = build_model("DR").out_shape
        assert c == 1 and h > 100 and w > 140  # ~half input resolution


class TestPlaneDetection:
    def test_fpn_merges(self):
        g = build_model("PD")
        for name in ("fpn_merge4", "fpn_merge3", "fpn_merge2"):
            assert g.find(name).op is OpType.CONV2D

    def test_roi_head_depth(self):
        names = [layer.name for layer in build_model("PD").layers]
        heads = [n for n in names if n.startswith("head_conv")]
        assert len(heads) == 4

    def test_mask_branch_upsamples(self):
        g = build_model("PD")
        assert g.find("mask_deconv").op is OpType.DECONV2D

    def test_plane_parameter_output(self):
        # Normal (3) + offset (1) per mask pixel.
        assert build_model("PD").out_shape[0] == 4

    def test_dominant_cost_is_roi_heads(self):
        g = build_model("PD")
        names = [layer.name for layer in g.layers]
        roi_start = names.index("roialign")
        head_macs = sum(layer.macs for layer in g.layers[roi_start:])
        assert head_macs > 0.4 * g.total_macs
