"""Tests for the per-layer and per-model analytical cost model."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import CLOCK_HZ
from repro.costmodel import (
    DEFAULT_DVFS_POINTS,
    CostModel,
    Dataflow,
    EnergyModel,
    LayerCost,
    ModelCost,
    scale_cost,
)
from repro.costmodel.analysis import _RAMP_CYCLES, ordered_sum
from repro.hardware import ACCELERATOR_IDS, PE_BUDGETS, build_accelerator
from repro.nn import GraphBuilder, LayerSpec, OpType
from repro.runtime import split_graph
from repro.workload import UNIT_MODELS
from repro.zoo import build_model

#: Every (dataflow name, PE count) engine shape of Table 5's 13
#: accelerators at both PE budgets, sorted.
ENGINE_SHAPES = sorted(
    {
        (sub.dataflow.value, sub.num_pes)
        for acc_id in ACCELERATOR_IDS
        for pes in PE_BUDGETS.values()
        for sub in build_accelerator(acc_id, pes).subs
    }
)

#: sha256 over ``repr()`` of every price below, fed in loop order.  The
#: schedule goldens round times to 1 ns and the DVFS pins round energy
#: to 1e-9 mJ, so neither sees a last-bit change to a price; these do.
#: ``repr`` hashes nothing, so the hash seed cannot move them, and every
#: reduction goes through ``ordered_sum``, so no interpreter should.
GOLDEN_NOMINAL_COSTS = (
    "086c40ffe597ceb639b89757fde1057e89b524ce4e01761565df92eec6a0eb00"
)
GOLDEN_SPLIT_COSTS = (
    "a757d17b58b380e67c349f9ffb2c7d77a3c218b7978582843140afb119fa5e7e"
)
GOLDEN_SCALED_COSTS = (
    "9b6ebabf4c1fff7f18c5b0cce4e5267a8f6d38ec3b404b1b676dec4a314dda60"
)


def conv(cin=64, cout=64, hw=32, kernel=3):
    return LayerSpec(
        name="c", op=OpType.CONV2D, in_shape=(cin, hw, hw),
        out_shape=(cout, hw, hw), kernel=kernel, stride=1, padding=kernel // 2,
    )


def dwconv(c=256, hw=32):
    return LayerSpec(
        name="dw", op=OpType.DWCONV2D, in_shape=(c, hw, hw),
        out_shape=(c, hw, hw), kernel=3, stride=1, padding=1, groups=c,
    )


class TestValidation:
    def test_rejects_zero_pes(self):
        with pytest.raises(ValueError, match="num_pes"):
            CostModel(dataflow=Dataflow.WS, num_pes=0)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            CostModel(dataflow=Dataflow.WS, num_pes=64, onchip_bw=0)

    def test_rejects_zero_buffer(self):
        with pytest.raises(ValueError, match="buffer"):
            CostModel(dataflow=Dataflow.WS, num_pes=64, buffer_bytes=0)


class TestLayerCost:
    def test_positive_latency_and_energy(self):
        cm = CostModel(dataflow=Dataflow.WS, num_pes=4096)
        cost = cm.layer_cost(conv())
        assert cost.latency_s > 0
        assert cost.energy_mj > 0

    def test_memory_only_layer_has_zero_compute(self):
        cm = CostModel(dataflow=Dataflow.WS, num_pes=4096)
        pool = LayerSpec(name="p", op=OpType.MAXPOOL, in_shape=(8, 16, 16),
                         out_shape=(8, 8, 8), kernel=2, stride=2)
        cost = cm.layer_cost(pool)
        assert cost.compute_cycles == 0
        assert cost.utilization == 0
        assert cost.latency_s > 0  # still moves data

    def test_utilization_bounded(self):
        cm = CostModel(dataflow=Dataflow.OS, num_pes=4096)
        cost = cm.layer_cost(conv(cin=256, cout=256, hw=64))
        assert 0.0 < cost.utilization <= 1.0

    def test_more_pes_never_slower(self):
        layer = conv(cin=128, cout=128, hw=64)
        for df in Dataflow:
            small = CostModel(dataflow=df, num_pes=1024).layer_cost(layer)
            big = CostModel(dataflow=df, num_pes=8192).layer_cost(layer)
            assert big.latency_s <= small.latency_s + 1e-12, df

    def test_ws_faster_than_os_on_fc(self):
        layer = LayerSpec(name="fc", op=OpType.FC, in_shape=(2048, 1, 1),
                          out_shape=(1024, 1, 1))
        ws = CostModel(dataflow=Dataflow.WS, num_pes=4096).layer_cost(layer)
        os_ = CostModel(dataflow=Dataflow.OS, num_pes=4096).layer_cost(layer)
        assert ws.latency_s < os_.latency_s

    def test_os_faster_than_ws_on_depthwise(self):
        layer = dwconv()
        ws = CostModel(dataflow=Dataflow.WS, num_pes=4096).layer_cost(layer)
        os_ = CostModel(dataflow=Dataflow.OS, num_pes=4096).layer_cost(layer)
        assert os_.latency_s < ws.latency_s

    def test_rs_lowest_energy_on_conv(self):
        layer = conv(cin=128, cout=128, hw=32)
        energies = {
            df: CostModel(dataflow=df, num_pes=4096).layer_cost(layer).energy_mj
            for df in Dataflow
        }
        assert energies[Dataflow.RS] == min(energies.values())

    @settings(max_examples=30, deadline=None)
    @given(
        cin=st.sampled_from([8, 32, 128]),
        cout=st.sampled_from([8, 32, 128]),
        hw=st.sampled_from([8, 32, 96]),
        df=st.sampled_from(list(Dataflow)),
        pes=st.sampled_from([512, 4096]),
    )
    def test_cost_always_finite_positive(self, cin, cout, hw, df, pes):
        cm = CostModel(dataflow=df, num_pes=pes)
        cost = cm.layer_cost(conv(cin=cin, cout=cout, hw=hw))
        assert cost.latency_s > 0 and cost.energy_mj > 0
        assert 0 <= cost.utilization <= 1


class TestModelCost:
    def small_graph(self):
        b = GraphBuilder("small", (3, 32, 32))
        b.conv(16, 3)
        b.pool(2)
        b.conv(32, 3)
        b.global_pool()
        b.fc(10)
        return b.build()

    def test_aggregates_layers(self):
        cm = CostModel(dataflow=Dataflow.WS, num_pes=1024)
        mc = cm.model_cost(self.small_graph())
        assert mc.latency_s == pytest.approx(
            sum(c.latency_cycles for c in mc.layer_costs) / 1e9
        )
        assert mc.energy_mj == pytest.approx(
            sum(c.energy_mj for c in mc.layer_costs)
        )

    def test_one_cost_per_layer(self):
        g = self.small_graph()
        cm = CostModel(dataflow=Dataflow.RS, num_pes=1024)
        assert len(cm.model_cost(g).layer_costs) == g.num_layers

    def test_model_utilization_bounded(self):
        cm = CostModel(dataflow=Dataflow.WS, num_pes=1024)
        mc = cm.model_cost(self.small_graph())
        assert 0 < mc.utilization <= 1

    def test_latency_ms_consistent(self):
        cm = CostModel(dataflow=Dataflow.WS, num_pes=1024)
        mc = cm.model_cost(self.small_graph())
        assert mc.latency_ms == pytest.approx(mc.latency_s * 1e3)


class TestCalibrationShape:
    """The latency regimes the paper's evaluation depends on."""

    def test_pd_saturates_2k_engines(self):
        # PD at 30 FPS (33.3 ms deadline) must exceed ~2x the deadline on a
        # 2K-PE engine so the 4K J system saturates (Figure 6, 4K panel).
        cm = CostModel(dataflow=Dataflow.WS, num_pes=2048)
        lat = cm.model_cost(build_model("PD")).latency_s
        assert lat > 0.050

    def test_pd_borderline_on_4k_engines(self):
        # ... and sit near the deadline on a 4K-PE engine (8K J panel).
        cm = CostModel(dataflow=Dataflow.WS, num_pes=4096)
        lat = cm.model_cost(build_model("PD")).latency_s
        assert 0.025 < lat < 0.045

    def test_eye_pipeline_fails_on_1k_engines(self):
        # ES at 60 FPS (16.6 ms) cannot hold on quad-split 1K engines,
        # which is why G/H/I collapse on eye scenarios at 4K total PEs.
        cm = CostModel(dataflow=Dataflow.OS, num_pes=1024)
        lat = cm.model_cost(build_model("ES")).latency_s
        assert lat > 1 / 60

    def test_kd_trivially_fast_everywhere(self):
        for df in Dataflow:
            cm = CostModel(dataflow=df, num_pes=1024)
            assert cm.model_cost(build_model("KD")).latency_s < 0.005

    def test_heavy_models_fit_energy_budget_shape(self):
        # Per-inference energies must straddle meaningful fractions of the
        # 1500 mJ Enmax: heavy models in the hundreds of mJ.
        cm = CostModel(dataflow=Dataflow.WS, num_pes=4096)
        pd = cm.model_cost(build_model("PD")).energy_mj
        kd = cm.model_cost(build_model("KD")).energy_mj
        assert 200 < pd < 1500
        assert kd < 5


def _digest(costs):
    h = hashlib.sha256()
    for cost in costs:
        h.update(repr(cost).encode())
    return h.hexdigest()


def _table5_engines():
    """(engine, graph) over the 16 engine shapes x the 11 unit models."""
    for dataflow, num_pes in ENGINE_SHAPES:
        engine = CostModel(dataflow=Dataflow(dataflow), num_pes=num_pes)
        for code in sorted(UNIT_MODELS):
            yield engine, UNIT_MODELS[code].graph


@pytest.fixture(scope="module")
def nominal_costs():
    return [engine.model_cost(graph) for engine, graph in _table5_engines()]


class TestCostDigests:
    """Every Table 5 price pinned to its last bit."""

    def test_nominal_costs(self, nominal_costs):
        assert len(ENGINE_SHAPES) == 16
        assert len(nominal_costs) == 176
        assert _digest(nominal_costs) == GOLDEN_NOMINAL_COSTS

    def test_split_costs(self):
        costs = [
            engine.model_cost(piece)
            for engine, graph in _table5_engines()
            for piece in split_graph(graph, 2)
        ]
        assert len(costs) == 352
        assert _digest(costs) == GOLDEN_SPLIT_COSTS

    def test_scaled_costs(self, nominal_costs):
        costs = [
            scale_cost(nominal, point)
            for nominal in nominal_costs
            for point in DEFAULT_DVFS_POINTS
        ]
        assert len(costs) == 704
        assert _digest(costs) == GOLDEN_SCALED_COSTS


class ReferenceCostModel(CostModel):
    """The per-layer analysis as it was before the per-graph layer table.

    The three methods are the old code, verbatim: each layer rebuilds its
    ``ConvDims`` and computes its DRAM traffic twice.  The production
    model must price every layer and every graph exactly as these do.
    """

    def _effective_macs_per_cycle(self, layer: LayerSpec) -> float:
        """Achieved MAC rate for a compute layer."""
        dims = layer.conv_dims()
        assert dims is not None
        parallelism = self.spec.usable_parallelism(layer, dims)
        if parallelism <= self.num_pes:
            occupied = parallelism
        else:
            # Tile quantisation: the last pass runs partially occupied.
            passes = -(-parallelism // self.num_pes)
            occupied = parallelism / passes
        return max(1.0, occupied * self.spec.mapping_efficiency)

    def _dram_traffic_bytes(self, layer: LayerSpec) -> float:
        """Off-chip traffic under the stationary-tensor tiling model."""
        dims = layer.conv_dims()
        w = float(layer.weight_bytes)
        i = float(layer.in_bytes)
        o = float(layer.out_bytes)
        if dims is None:
            # Memory-only op: stream input in, output out.
            return i + o
        share = self.buffer_bytes / 2.0
        if self.dataflow is Dataflow.WS:
            stationary, streaming = w, i + o
        elif self.dataflow is Dataflow.OS:
            stationary, streaming = o, i + w
        else:  # RS keeps rows of everything; treat the largest as stationary.
            stationary = max(w, i, o)
            streaming = w + i + o - stationary
        passes = max(1.0, stationary / share)
        return stationary + streaming * passes

    def layer_cost(self, layer: LayerSpec) -> LayerCost:
        """Analyse one layer."""
        em = self.energy_model
        dims = layer.conv_dims()
        dram_bytes = self._dram_traffic_bytes(layer)
        offchip_cycles = dram_bytes / self.offchip_bw

        if dims is None:
            # No MACs: only data movement.
            onchip_bytes = float(layer.in_bytes + layer.out_bytes)
            onchip_cycles = onchip_bytes / self.onchip_bw
            latency_cycles = max(onchip_cycles, offchip_cycles) + _RAMP_CYCLES
            energy = (
                em.buffer_mj(onchip_bytes)
                + em.dram_mj(dram_bytes)
                + em.leakage_mj(self.num_pes, latency_cycles / CLOCK_HZ)
            )
            return LayerCost(
                layer_name=layer.name,
                compute_cycles=0.0,
                onchip_cycles=onchip_cycles,
                offchip_cycles=offchip_cycles,
                energy_mj=energy,
                utilization=0.0,
            )

        macs = float(layer.macs)
        compute_cycles = macs / self._effective_macs_per_cycle(layer)

        # NoC streaming: tensors cross the on-chip network once per tile
        # pass (multicast distributes them across PEs; per-MAC operand
        # reads come from PE-local register files and are charged to the
        # energy model, not to bandwidth).
        reuse_i, reuse_w, reuse_o = self.spec.operand_reuse(layer, dims)
        onchip_bytes = self._dram_traffic_bytes(layer)
        onchip_cycles = onchip_bytes / self.onchip_bw

        latency_cycles = (
            max(compute_cycles, onchip_cycles, offchip_cycles) + _RAMP_CYCLES
        )
        latency_s = latency_cycles / CLOCK_HZ
        buffer_accesses = (
            macs / reuse_i + macs / reuse_w + macs / reuse_o
        ) * self.spec.buf_reads_per_mac
        energy = (
            em.compute_mj(macs)
            + em.buffer_mj(buffer_accesses)
            + em.dram_mj(dram_bytes)
            + em.leakage_mj(self.num_pes, latency_s)
        )
        return LayerCost(
            layer_name=layer.name,
            compute_cycles=compute_cycles,
            onchip_cycles=onchip_cycles,
            offchip_cycles=offchip_cycles,
            energy_mj=energy,
            utilization=min(1.0, macs / (latency_cycles * self.num_pes)),
        )


def reference(cm: CostModel) -> ReferenceCostModel:
    return ReferenceCostModel(
        cm.dataflow, cm.num_pes, cm.onchip_bw, cm.offchip_bw,
        cm.buffer_bytes, cm.energy_model,
    )


def reference_model_cost(cm: CostModel, graph) -> ModelCost:
    """``cm.model_cost(graph)`` reduced from the reference layer costs."""
    ref = reference(cm)
    costs = tuple(ref.layer_cost(layer) for layer in graph.layers)
    total_cycles = ordered_sum(c.latency_cycles for c in costs)
    total_macs = float(sum(layer.macs for layer in graph.layers))
    return ModelCost(
        model_name=graph.name,
        dataflow=cm.dataflow,
        num_pes=cm.num_pes,
        latency_s=total_cycles / CLOCK_HZ,
        energy_mj=ordered_sum(c.energy_mj for c in costs),
        utilization=(
            total_macs / (total_cycles * cm.num_pes)
            if total_cycles > 0
            else 0.0
        ),
        layer_costs=costs,
    )


#: PE counts of the equivalence grid: degenerate, odd and past-Table-5
#: arrays beside the Table 5 engine sizes.
GRID_PES = (1, 3, 7, 100, 333, 1024, 2048, 4096, 8192, 65_536)

#: Engines with every non-default buffer, bandwidth and energy setting.
GRID_VARIANTS = (
    {"buffer_bytes": 4 * 1024, "onchip_bw": 16.0},
    {"buffer_bytes": 4 * 1024 * 1024, "offchip_bw": 33.0},
    {"offchip_bw": 2.5, "energy_model": EnergyModel(mac_pj=1.3)},
    {"onchip_bw": 64.0, "energy_model": EnergyModel(leakage_w_per_pe=0)},
)


def test_model_cost_equals_the_reference_on_the_grid():
    """Every field of every layer and every total, exactly."""
    engines = [
        CostModel(dataflow=df, num_pes=pes)
        for df in Dataflow
        for pes in GRID_PES
    ] + [
        CostModel(dataflow=df, num_pes=2048, **variant)
        for df in Dataflow
        for variant in GRID_VARIANTS
    ]
    graphs = []
    for code in sorted(UNIT_MODELS):
        graph = UNIT_MODELS[code].graph
        graphs += [graph, *split_graph(graph, 2), *split_graph(graph, 3)]
    assert (len(engines), len(graphs)) == (42, 66)
    for cm in engines:
        for graph in graphs:
            assert cm.model_cost(graph) == reference_model_cost(cm, graph), (
                cm, graph.name,
            )


@st.composite
def random_graphs(draw):
    """Small graphs over every op the builder offers the cost model."""
    builder = GraphBuilder("random", (
        draw(st.integers(1, 24)),
        draw(st.integers(1, 16)),
        draw(st.integers(1, 16)),
    ))
    for index in range(draw(st.integers(1, 8))):
        cin, h, w = builder.shape
        op = draw(st.sampled_from([
            "conv", "dwconv", "deconv", "fc", "attention", "layernorm",
            "pool", "global_pool", "upsample", "add",
        ]))
        grows = op in ("deconv", "upsample") and h * w > 256
        if op == "pool" and min(h, w) < 2 or grows:
            op = "global_pool"
        if op == "add" and index == 0:
            op = "layernorm"
        if op == "conv":
            groups = draw(st.sampled_from(
                [g for g in range(1, cin + 1) if cin % g == 0]
            ))
            builder.conv(
                groups * draw(st.integers(1, 8)),
                kernel=draw(st.sampled_from([1, 2, 3, 5])),
                stride=draw(st.sampled_from([1, 2])),
                groups=groups,
            )
        elif op == "dwconv":
            builder.dwconv(
                kernel=draw(st.sampled_from([3, 5])),
                stride=draw(st.sampled_from([1, 2])),
            )
        elif op == "deconv":
            builder.deconv(
                draw(st.integers(1, 32)),
                stride=draw(st.sampled_from([1, 2])),
            )
        elif op == "fc":
            builder.fc(draw(st.integers(1, 64)))
        elif op == "attention":
            builder.attention(draw(st.sampled_from([1, 2, 8])))
        elif op == "layernorm":
            builder.layernorm()
        elif op == "pool":
            builder.pool(2, kind=draw(st.sampled_from(["max", "avg"])))
        elif op == "global_pool":
            builder.global_pool()
        elif op == "upsample":
            builder.upsample(2)
        else:
            builder.add(builder.last_name)
    return builder.build()


random_cost_models = st.builds(
    CostModel,
    dataflow=st.sampled_from(list(Dataflow)),
    num_pes=st.integers(1, 70_000),
    onchip_bw=st.floats(0.5, 256.0),
    offchip_bw=st.floats(0.5, 64.0),
    buffer_bytes=st.integers(1, 8 * 1024 * 1024),
    energy_model=st.builds(
        EnergyModel,
        mac_pj=st.floats(0.0, 20.0),
        buf_pj_per_byte=st.floats(0.0, 50.0),
        dram_pj_per_byte=st.floats(0.0, 500.0),
        leakage_w_per_pe=st.floats(0.0, 1e-3),
    ),
)


@settings(max_examples=100, deadline=None)
@given(graph=random_graphs(), cm=random_cost_models)
def test_random_graphs_price_as_the_reference(graph, cm):
    assert cm.model_cost(graph) == reference_model_cost(cm, graph)
    ref = reference(cm)
    for layer in graph.layers:
        assert cm.layer_cost(layer) == ref.layer_cost(layer)
