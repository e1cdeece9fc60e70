"""Tests for accelerator systems and engines."""

from __future__ import annotations

import pytest
from sim_helpers import price_table

from repro.costmodel import Dataflow
from repro.hardware import AcceleratorStyle, AcceleratorSystem, SubAccelerator


def sub(i=0, df=Dataflow.WS, pes=1024):
    return SubAccelerator(index=i, dataflow=df, num_pes=pes)


class TestSubAccelerator:
    def test_describe(self):
        assert sub().describe() == "WS@1024PE"

    def test_cost_model_binding(self):
        cm = sub(df=Dataflow.RS, pes=2048).cost_model()
        assert cm.dataflow is Dataflow.RS
        assert cm.num_pes == 2048

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="index"):
            SubAccelerator(index=-1, dataflow=Dataflow.WS, num_pes=1)

    def test_rejects_zero_pes(self):
        with pytest.raises(ValueError, match="num_pes"):
            SubAccelerator(index=0, dataflow=Dataflow.WS, num_pes=0)


class TestSystemValidation:
    def test_pe_sum_must_match(self):
        with pytest.raises(ValueError, match="sum"):
            AcceleratorSystem("X", AcceleratorStyle.FDA, 4096, (sub(pes=1024),))

    def test_indices_must_be_sequential(self):
        with pytest.raises(ValueError, match="indices"):
            AcceleratorSystem(
                "X", AcceleratorStyle.SFDA, 2048,
                (sub(i=0), sub(i=2, pes=1024)),
            )

    def test_fda_single_engine(self):
        with pytest.raises(ValueError, match="FDA"):
            AcceleratorSystem(
                "X", AcceleratorStyle.FDA, 2048,
                (sub(i=0), sub(i=1)),
            )

    def test_sfda_same_dataflow(self):
        with pytest.raises(ValueError, match="single dataflow"):
            AcceleratorSystem(
                "X", AcceleratorStyle.SFDA, 2048,
                (sub(i=0), sub(i=1, df=Dataflow.OS)),
            )

    def test_hda_needs_mixed_dataflows(self):
        with pytest.raises(ValueError, match="mix"):
            AcceleratorSystem(
                "X", AcceleratorStyle.HDA, 2048,
                (sub(i=0), sub(i=1)),
            )

    def test_no_engines_rejected(self):
        with pytest.raises(ValueError, match="no engines"):
            AcceleratorSystem("X", AcceleratorStyle.FDA, 0, ())


class TestSystemQueries:
    def system(self):
        return AcceleratorSystem(
            "J", AcceleratorStyle.HDA, 2048,
            (sub(i=0, pes=1024), sub(i=1, df=Dataflow.OS, pes=1024)),
        )

    def test_num_subs(self):
        assert self.system().num_subs == 2

    def test_prices_per_engine(self):
        prices = price_table(self.system(), ("KD",), points=())
        assert prices.engine_cost("KD", 0).dataflow is Dataflow.WS
        assert prices.engine_cost("KD", 1).dataflow is Dataflow.OS

    def test_describe(self):
        text = self.system().describe()
        assert "HDA" in text and "WS@1024PE" in text and "OS@1024PE" in text
