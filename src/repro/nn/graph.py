"""Model graphs and a builder for constructing them.

A :class:`ModelGraph` is an ordered sequence of bound :class:`LayerSpec`
objects.  The sequence order is the execution order; residual/skip inputs
reference earlier layers by name.  :class:`GraphBuilder` tracks the current
tensor shape so zoo definitions read like the usual "stack of layers"
pseudo-code from the original model papers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .layers import ConvDims, LayerSpec, OpType, conv_out_hw

__all__ = ["LayerRow", "ModelGraph", "GraphBuilder"]


class LayerRow(NamedTuple):
    """One layer's dataflow-independent quantities, as the cost model
    reads them: what every engine's analysis of the layer shares."""

    name: str
    layer: LayerSpec
    dims: ConvDims | None  # None for a memory-only op
    macs: float
    weight_bytes: float
    in_bytes: float
    out_bytes: float

    @classmethod
    def of(cls, layer: LayerSpec) -> LayerRow:
        """``layer``'s row, from one :meth:`LayerSpec.conv_dims` call."""
        dims = layer.conv_dims()
        return cls(
            layer.name,
            layer,
            dims,
            float(0 if dims is None else dims.macs),
            float(layer.weight_bytes),
            float(layer.in_bytes),
            float(layer.out_bytes),
        )


@dataclass(frozen=True)
class ModelGraph:
    """A validated, immutable DNN description."""

    name: str
    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"model {self.name!r} has no layers")
        seen: set[str] = set()
        prev_out = self.input_shape
        for layer in self.layers:
            if layer.name in seen:
                raise ValueError(
                    f"duplicate layer name {layer.name!r} in {self.name!r}"
                )
            if layer.residual_from is not None and layer.residual_from not in seen:
                raise ValueError(
                    f"layer {layer.name!r} references unknown residual "
                    f"source {layer.residual_from!r}"
                )
            if layer.in_shape != prev_out:
                raise ValueError(
                    f"shape mismatch at {layer.name!r}: expects "
                    f"{layer.in_shape}, previous layer produces {prev_out}"
                )
            seen.add(layer.name)
            prev_out = layer.out_shape

    # -- aggregate accounting ---------------------------------------------

    @property
    def out_shape(self) -> tuple[int, int, int]:
        return self.layers[-1].out_shape

    @cached_property
    def layer_table(self) -> tuple[LayerRow, ...]:
        """Every layer's :class:`LayerRow`, in execution order.

        Built once per graph object: the cost model prices each engine
        in one pass over it instead of re-deriving each layer's dims.
        """
        return tuple(LayerRow.of(layer) for layer in self.layers)

    @cached_property
    def total_macs(self) -> int:
        """Multiply-accumulates of the whole graph, from :attr:`layer_table`."""
        return sum(
            row.dims.macs for row in self.layer_table if row.dims is not None
        )

    @property
    def total_params(self) -> int:
        return sum(layer.params for layer in self.layers)

    @property
    def total_weight_bytes(self) -> int:
        return sum(layer.weight_bytes for layer in self.layers)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def compute_layers(self) -> list[LayerSpec]:
        """Layers that perform MACs, in execution order."""
        return [layer for layer in self.layers if layer.op.is_compute]

    def conv_dims(self) -> list[ConvDims]:
        """The (K,C,Y,X,R,S) dims of every compute layer, in order."""
        return [row.dims for row in self.layer_table if row.dims is not None]

    def operator_mix(self) -> dict[str, int]:
        """Operator-type histogram (reproduces Table 7's operator column)."""
        counts = Counter(layer.op.value for layer in self.layers)
        return dict(sorted(counts.items(), key=lambda kv: -kv[1]))

    def major_operators(self, top: int = 3) -> list[str]:
        """The ``top`` most frequent compute-relevant operator names."""
        interesting = [
            layer.op.value
            for layer in self.layers
            if layer.op
            not in (OpType.ADD, OpType.CONCAT, OpType.LAYERNORM)
            or layer.op is OpType.LAYERNORM
        ]
        counts = Counter(interesting)
        return [op for op, _ in counts.most_common(top)]

    def find(self, name: str) -> LayerSpec:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named {name!r} in model {self.name!r}")

    def summary(self) -> str:
        """Multi-line table of all layers plus totals."""
        lines = [f"Model {self.name}  (input {self.input_shape})"]
        lines += [layer.describe() for layer in self.layers]
        lines.append(
            f"TOTAL macs={self.total_macs:,d} params={self.total_params:,d}"
        )
        return "\n".join(lines)


@dataclass
class GraphBuilder:
    """Incrementally builds a :class:`ModelGraph`.

    The builder tracks the running output shape; each method appends one
    bound layer and returns the builder for chaining.  Layer names are
    auto-generated (``conv3``, ``dw7``, ...) unless given.
    """

    model_name: str
    input_shape: tuple[int, int, int]
    _layers: list[LayerSpec] = field(default_factory=list)
    _counter: int = 0

    @property
    def shape(self) -> tuple[int, int, int]:
        """Current output shape."""
        if self._layers:
            return self._layers[-1].out_shape
        return self.input_shape

    def _next_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def _append(self, layer: LayerSpec) -> "GraphBuilder":
        self._layers.append(layer)
        return self

    @property
    def last_name(self) -> str:
        """Name of the most recently added layer (for residual wiring)."""
        if not self._layers:
            raise ValueError("no layers added yet")
        return self._layers[-1].name

    # -- compute layers -----------------------------------------------------

    def conv(
        self,
        out_ch: int,
        kernel: int = 3,
        stride: int = 1,
        padding: int | None = None,
        groups: int = 1,
        name: str | None = None,
    ) -> "GraphBuilder":
        """Conv2D (+BN+activation folded)."""
        cin, h, w = self.shape
        if padding is None:
            padding = kernel // 2
        oh, ow = conv_out_hw(h, w, kernel, stride, padding)
        return self._append(
            LayerSpec(
                name=name or self._next_name("conv"),
                op=OpType.CONV2D,
                in_shape=(cin, h, w),
                out_shape=(out_ch, oh, ow),
                kernel=kernel,
                stride=stride,
                padding=padding,
                groups=groups,
            )
        )

    def dwconv(
        self,
        kernel: int = 3,
        stride: int = 1,
        padding: int | None = None,
        name: str | None = None,
    ) -> "GraphBuilder":
        """Depthwise Conv2D: channel count is preserved."""
        cin, h, w = self.shape
        if padding is None:
            padding = kernel // 2
        oh, ow = conv_out_hw(h, w, kernel, stride, padding)
        return self._append(
            LayerSpec(
                name=name or self._next_name("dw"),
                op=OpType.DWCONV2D,
                in_shape=(cin, h, w),
                out_shape=(cin, oh, ow),
                kernel=kernel,
                stride=stride,
                padding=padding,
                groups=cin,
            )
        )

    def deconv(
        self,
        out_ch: int,
        kernel: int = 4,
        stride: int = 2,
        name: str | None = None,
    ) -> "GraphBuilder":
        """Transposed convolution that upsamples spatial dims by ``stride``."""
        cin, h, w = self.shape
        return self._append(
            LayerSpec(
                name=name or self._next_name("deconv"),
                op=OpType.DECONV2D,
                in_shape=(cin, h, w),
                out_shape=(out_ch, h * stride, w * stride),
                kernel=kernel,
                stride=stride,
            )
        )

    def fc(self, out_features: int, name: str | None = None) -> "GraphBuilder":
        """Fully-connected layer; flattens whatever the current shape is."""
        shape = self.shape
        return self._append(
            LayerSpec(
                name=name or self._next_name("fc"),
                op=OpType.FC,
                in_shape=shape,
                out_shape=(out_features, 1, 1),
            )
        )

    def attention(self, heads: int = 8, name: str | None = None) -> "GraphBuilder":
        """Multi-head self-attention over the current (dim, 1, L) tensor."""
        shape = self.shape
        return self._append(
            LayerSpec(
                name=name or self._next_name("attn"),
                op=OpType.ATTENTION,
                in_shape=shape,
                out_shape=shape,
                heads=heads,
            )
        )

    def layernorm(self, name: str | None = None) -> "GraphBuilder":
        shape = self.shape
        return self._append(
            LayerSpec(
                name=name or self._next_name("ln"),
                op=OpType.LAYERNORM,
                in_shape=shape,
                out_shape=shape,
            )
        )

    # -- memory-only layers ---------------------------------------------------

    def pool(
        self,
        kernel: int = 2,
        stride: int | None = None,
        kind: str = "max",
        name: str | None = None,
    ) -> "GraphBuilder":
        cin, h, w = self.shape
        stride = stride or kernel
        oh, ow = conv_out_hw(h, w, kernel, stride, 0)
        op = OpType.MAXPOOL if kind == "max" else OpType.AVGPOOL
        return self._append(
            LayerSpec(
                name=name or self._next_name("pool"),
                op=op,
                in_shape=(cin, h, w),
                out_shape=(cin, oh, ow),
                kernel=kernel,
                stride=stride,
            )
        )

    def global_pool(self, name: str | None = None) -> "GraphBuilder":
        cin, h, w = self.shape
        return self._append(
            LayerSpec(
                name=name or self._next_name("gap"),
                op=OpType.GLOBALPOOL,
                in_shape=(cin, h, w),
                out_shape=(cin, 1, 1),
                kernel=max(h, w),
            )
        )

    def upsample(self, scale: int = 2, name: str | None = None) -> "GraphBuilder":
        cin, h, w = self.shape
        return self._append(
            LayerSpec(
                name=name or self._next_name("up"),
                op=OpType.UPSAMPLE,
                in_shape=(cin, h, w),
                out_shape=(cin, h * scale, w * scale),
                stride=scale,
            )
        )

    def reshape(
        self, new_shape: tuple[int, int, int], name: str | None = None
    ) -> "GraphBuilder":
        """Zero-cost view change; element count must be preserved."""
        cin, h, w = self.shape
        if cin * h * w != new_shape[0] * new_shape[1] * new_shape[2]:
            raise ValueError(
                f"reshape {self.shape} -> {new_shape} changes element count"
            )
        return self._append(
            LayerSpec(
                name=name or self._next_name("reshape"),
                op=OpType.RESHAPE,
                in_shape=(cin, h, w),
                out_shape=new_shape,
            )
        )

    def add(self, residual_from: str, name: str | None = None) -> "GraphBuilder":
        """Elementwise residual add with an earlier layer's output."""
        shape = self.shape
        return self._append(
            LayerSpec(
                name=name or self._next_name("add"),
                op=OpType.ADD,
                in_shape=shape,
                out_shape=shape,
                residual_from=residual_from,
            )
        )

    def concat(self, residual_from: str, extra_ch: int, name: str | None = None) -> "GraphBuilder":
        """Channel concat with an earlier layer's output (``extra_ch`` wide)."""
        cin, h, w = self.shape
        return self._append(
            LayerSpec(
                name=name or self._next_name("cat"),
                op=OpType.CONCAT,
                in_shape=(cin, h, w),
                out_shape=(cin + extra_ch, h, w),
                residual_from=residual_from,
            )
        )

    def roialign(self, rois: int, out_size: int, name: str | None = None) -> "GraphBuilder":
        """RoIAlign: crops ``rois`` regions to ``out_size`` squares.

        The RoI batch is folded into the spatial extent so downstream heads
        see a single (C, out, out*rois) tensor.
        """
        cin, _, _ = self.shape
        return self._append(
            LayerSpec(
                name=name or self._next_name("roi"),
                op=OpType.ROIALIGN,
                in_shape=self.shape,
                out_shape=(cin, out_size, out_size * rois),
                extra={"rois": rois},
            )
        )

    # -- composite blocks ------------------------------------------------------

    def residual_block(self, channels: int, stride: int = 1) -> "GraphBuilder":
        """Basic ResNet block: conv-conv(+projection)-add."""
        entry = self.last_name if self._layers else None
        self.conv(channels, 3, stride)
        first = self.last_name
        self.conv(channels, 3, 1)
        if stride == 1 and entry is not None:
            cin = self._layers[-1].out_shape[0]
            src_shape = self.find_shape(entry)
            if src_shape == self._layers[-1].out_shape and cin == channels:
                self.add(entry)
                return self
        # Projection shortcut is folded into the second conv's cost; the
        # residual add still references the first conv of the block.
        self.add(first)
        return self

    def inverted_residual(
        self, out_ch: int, expand: int = 6, stride: int = 1, kernel: int = 3
    ) -> "GraphBuilder":
        """MobileNet/FBNet inverted-residual block (expand-dw-project)."""
        cin, _, _ = self.shape
        entry = self.last_name if self._layers else None
        hidden = cin * expand
        self.conv(hidden, 1)
        self.dwconv(kernel, stride)
        self.conv(out_ch, 1)
        if stride == 1 and cin == out_ch and entry is not None:
            if self.find_shape(entry) == self.shape:
                self.add(entry)
        return self

    def transformer_block(
        self, heads: int = 8, ffn_mult: int = 4
    ) -> "GraphBuilder":
        """Pre-norm transformer encoder block (attention + FFN)."""
        dim = self.shape[0]
        self.layernorm()
        pre_attn = self.last_name
        self.attention(heads)
        self.add(pre_attn)
        self.layernorm()
        pre_ffn = self.last_name
        # The FFN is two 1x1 convolutions over the sequence.
        self.conv(dim * ffn_mult, 1)
        self.conv(dim, 1)
        self.add(pre_ffn)
        return self

    def find_shape(self, layer_name: str) -> tuple[int, int, int]:
        for layer in self._layers:
            if layer.name == layer_name:
                return layer.out_shape
        raise KeyError(f"layer {layer_name!r} not found")

    def build(self) -> ModelGraph:
        return ModelGraph(
            name=self.model_name,
            input_shape=self.input_shape,
            layers=tuple(self._layers),
        )
