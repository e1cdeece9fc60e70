"""Hand Tracking (HT): Hand Shape/Pose estimation (Ge et al., CVPR 2019).

The reference model is a Graph-CNN that regresses 3-D hand shape and pose
from a single RGB view; XRBench feeds it the Stereo Hand Pose dataset
down-scaled by 1/2 (appendix A), so the input here is a stereo pair of
320x240 RGB frames stacked channel-wise.  The architecture is a ResNet-ish
2-D encoder followed by fully-connected graph-regression stages (the
Graph-CNN operates on a fixed 1280-vertex mesh; its per-vertex feature
transforms are dense matmuls, which we model as FC layers).
"""

from __future__ import annotations

from repro.nn import GraphBuilder, ModelGraph

from .registry import register_model

#: Channel-width multiplier.  Widths are calibrated so the simulated
#: 4K/8K-PE accelerators are stressed the way the paper's are.
WIDTH = 2.0


@register_model("HT")
def build(width: float = WIDTH) -> ModelGraph:
    """Build the HT model graph."""

    def ch(base: int) -> int:
        return max(8, int(base * width))

    b = GraphBuilder("hand_tracking", (6, 240, 320))
    # Stem.
    b.conv(ch(32), 7, 2)          # /2
    b.pool(2, kind="max")          # /4
    # Residual encoder.
    b.residual_block(ch(64))
    b.residual_block(ch(64))
    b.residual_block(ch(128), stride=2)   # /8
    b.residual_block(ch(128))
    b.residual_block(ch(256), stride=2)   # /16
    b.residual_block(ch(256))
    b.residual_block(ch(512), stride=2)   # /32
    b.residual_block(ch(512))
    b.global_pool()
    # Graph-CNN mesh regression: latent -> coarse mesh features -> pose.
    b.fc(2048, name="graph_latent")
    b.fc(1280 * 3, name="mesh_vertices")
    b.fc(21 * 3, name="joints")
    return b.build()
