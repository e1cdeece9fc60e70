"""DNN layer primitives.

Every unit model in the zoo is described as a graph of these layer specs.
A spec is *bound*: it knows its input and output shapes, so MAC counts,
parameter counts and tensor byte sizes are exact properties of the object.
The analytical cost model consumes the same specs through
:meth:`LayerSpec.conv_dims`, which maps each compute layer onto the
(K, C, Y, X, R, S) convolution-dimension nomenclature used by MAESTRO-style
dataflow analysis (fully-connected and attention layers are expressed as
1x1 convolutions / GEMMs in that space).

Shapes are channel-first ``(C, H, W)`` tuples; batch size is always 1, which
matches the latency-critical single-frame inference setting of the paper.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

__all__ = [
    "OpType",
    "ConvDims",
    "LayerSpec",
    "conv_out_hw",
    "BYTES_PER_ELEM",
]

#: All tensors are int8-quantised in the paper's evaluation (Section 4.1:
#: "8bit-quantized without other optimizations").
BYTES_PER_ELEM: int = 1


class OpType(enum.Enum):
    """Operator categories, matching Table 7's "Major Operators" column."""

    CONV2D = "CONV2D"
    DWCONV2D = "DWCONV"
    DECONV2D = "DeCONV"
    FC = "FC"
    MAXPOOL = "Maxpool"
    AVGPOOL = "Avgpool"
    GLOBALPOOL = "GlobalPool"
    UPSAMPLE = "Upsample"
    ADD = "SkipConnection"
    CONCAT = "Concat"
    ATTENTION = "SelfAttention"
    LAYERNORM = "Layernorm"
    ROIALIGN = "RoIAlign"
    RESHAPE = "Reshape"

    @property
    def is_compute(self) -> bool:
        """Whether the op performs MACs the cost model must map to PEs."""
        return self in _COMPUTE_OPS


_COMPUTE_OPS = frozenset(
    {
        OpType.CONV2D,
        OpType.DWCONV2D,
        OpType.DECONV2D,
        OpType.FC,
        OpType.ATTENTION,
    }
)


def conv_out_hw(
    h: int, w: int, kernel: int, stride: int, padding: int
) -> tuple[int, int]:
    """Standard convolution output spatial dims."""
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"conv collapses spatial dims: in {(h, w)}, k={kernel}, "
            f"s={stride}, p={padding} -> {(oh, ow)}"
        )
    return oh, ow


@dataclass(frozen=True)
class ConvDims:
    """The (K, C, Y, X, R, S) loop-nest dims of a compute layer.

    ``K`` output channels, ``C`` input channels per group, ``Y``/``X``
    output spatial dims, ``R``/``S`` kernel dims, ``groups`` convolution
    groups (``groups == C_total`` for depthwise).  A GEMM of shape
    (M, N, Kdim) maps to ``Y*X = M``, ``K = N``, ``C = Kdim``, ``R = S = 1``.
    """

    k: int
    c: int
    y: int
    x: int
    r: int
    s: int
    groups: int = 1

    def __post_init__(self) -> None:
        for name in ("k", "c", "y", "x", "r", "s", "groups"):
            v = getattr(self, name)
            if v < 1:
                raise ValueError(f"ConvDims.{name} must be >= 1, got {v}")

    @property
    def macs(self) -> int:
        """Multiply-accumulates of the whole layer (all groups)."""
        return self.groups * self.k * self.c * self.y * self.x * self.r * self.s


@dataclass(frozen=True)
class LayerSpec:
    """One bound layer of a model graph.

    Attributes:
        name: unique layer name within its graph.
        op: operator category.
        in_shape: input tensor shape ``(C, H, W)``.
        out_shape: output tensor shape ``(C, H, W)``.
        kernel: square kernel size (conv/pool/deconv), else 0.
        stride: stride (conv/pool/deconv), else 1.
        padding: spatial zero padding, else 0.
        groups: convolution groups (``in channels`` for depthwise).
        heads: attention heads (attention layers only).
        residual_from: name of an earlier layer whose output is the second
            operand (ADD/CONCAT) — ``None`` for pure-sequential layers.
        bias: whether the layer carries a bias vector.
    """

    name: str
    op: OpType
    in_shape: tuple[int, int, int]
    out_shape: tuple[int, int, int]
    kernel: int = 0
    stride: int = 1
    padding: int = 0
    groups: int = 1
    heads: int = 1
    residual_from: str | None = None
    bias: bool = True
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("layer name must be non-empty")
        for label, shape in (("in", self.in_shape), ("out", self.out_shape)):
            if len(shape) != 3 or any(d < 1 for d in shape):
                raise ValueError(
                    f"{label}_shape must be 3 positive dims, got {shape}"
                )
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.groups < 1:
            raise ValueError(f"groups must be >= 1, got {self.groups}")
        if self.op in (OpType.CONV2D, OpType.DECONV2D) and (
            self.in_shape[0] % self.groups or self.out_shape[0] % self.groups
        ):
            raise ValueError(
                f"channel mismatch at {self.name!r}: {self.in_shape[0]} in "
                f"and {self.out_shape[0]} out channels do not divide into "
                f"groups={self.groups}"
            )

    # -- tensor accounting ------------------------------------------------

    @property
    def in_elems(self) -> int:
        c, h, w = self.in_shape
        return c * h * w

    @property
    def out_elems(self) -> int:
        c, h, w = self.out_shape
        return c * h * w

    @property
    def in_bytes(self) -> int:
        return self.in_elems * BYTES_PER_ELEM

    @property
    def out_bytes(self) -> int:
        return self.out_elems * BYTES_PER_ELEM

    # -- weights and compute ----------------------------------------------

    @property
    def params(self) -> int:
        """Trainable parameter count of the layer."""
        cin, _, _ = self.in_shape
        cout, oh, ow = self.out_shape
        if self.op in (OpType.CONV2D, OpType.DECONV2D):
            n = (cin // self.groups) * cout * self.kernel * self.kernel
            return n + (cout if self.bias else 0)
        if self.op is OpType.DWCONV2D:
            return cin * self.kernel * self.kernel + (cout if self.bias else 0)
        if self.op is OpType.FC:
            return self.in_elems * cout + (cout if self.bias else 0)
        if self.op is OpType.ATTENTION:
            dim = cin
            # Q, K, V and output projections.
            return 4 * (dim * dim + (dim if self.bias else 0))
        if self.op is OpType.LAYERNORM:
            return 2 * cin
        return 0

    @property
    def weight_bytes(self) -> int:
        return self.params * BYTES_PER_ELEM

    def conv_dims(self) -> ConvDims | None:
        """Map the layer onto (K, C, Y, X, R, S) loop dims.

        Returns ``None`` for layers that perform no MACs (pooling,
        upsampling, skip connections, ...).  Attention layers are mapped to
        an equivalent single GEMM whose MAC count equals the sum of the
        QKV/output projections and the score/context batched matmuls.
        """
        cin, ih, iw = self.in_shape
        cout, oh, ow = self.out_shape
        if self.op in (OpType.CONV2D, OpType.DECONV2D):
            return ConvDims(
                k=cout // self.groups,
                c=cin // self.groups,
                y=oh,
                x=ow,
                r=self.kernel,
                s=self.kernel,
                groups=self.groups,
            )
        if self.op is OpType.DWCONV2D:
            return ConvDims(
                k=1, c=1, y=oh, x=ow, r=self.kernel, s=self.kernel, groups=cin
            )
        if self.op is OpType.FC:
            return ConvDims(k=cout, c=self.in_elems, y=1, x=1, r=1, s=1)
        if self.op is OpType.ATTENTION:
            # Sequence length L is carried in the spatial extent; embedding
            # dim is the channel extent.
            seq = ih * iw
            dim = cin
            proj_macs = 4 * seq * dim * dim
            attn_macs = 2 * seq * seq * dim
            total = proj_macs + attn_macs
            # Equivalent GEMM: M = seq, N = dim, K = total/(seq*dim).
            k_equiv = max(1, int(round(total / (seq * dim))))
            return ConvDims(k=dim, c=k_equiv, y=seq, x=1, r=1, s=1)
        return None

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of this layer (0 for memory-only ops)."""
        dims = self.conv_dims()
        if dims is None:
            return 0
        return dims.macs

    @property
    def flops(self) -> int:
        """2x MACs, the conventional FLOP count."""
        return 2 * self.macs

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.name:<24s} {self.op.value:<14s} "
            f"{str(self.in_shape):<18s}-> {str(self.out_shape):<18s} "
            f"macs={self.macs:>12,d} params={self.params:>10,d}"
        )


def attention_macs(seq: int, dim: int) -> int:
    """Exact MAC count of one self-attention layer (helper for tests)."""
    return 4 * seq * dim * dim + 2 * seq * seq * dim


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division (used throughout dataflow analysis)."""
    if b <= 0:
        raise ValueError(f"divisor must be > 0, got {b}")
    return -(-a // b)


def human_count(n: float) -> str:
    """Format a large count as e.g. ``12.3M`` / ``4.5G`` for reports."""
    for unit, scale in (("G", 1e9), ("M", 1e6), ("K", 1e3)):
        if abs(n) >= scale:
            return f"{n / scale:.2f}{unit}"
    return f"{n:.0f}"


def shape_elems(shape: tuple[int, ...]) -> int:
    """Number of elements of a shape tuple."""
    return math.prod(shape)
