"""Tests for the definitional table renderings."""

from __future__ import annotations

from repro.eval import table1, table2, table3, table5, table6, table7


class TestTable1:
    def test_lists_all_tasks(self):
        text = table1()
        for code in ("HT", "ES", "GE", "KD", "SR", "SS", "OD", "AS",
                     "DE", "DR", "PD"):
            assert f"({code})" in text

    def test_reference_models_and_datasets(self):
        text = table1()
        for fragment in ("Hand Tracking", "PlaneRCNN", "LibriSpeech",
                         "AUC PCK, GT 0.948"):
            assert fragment in text

    def test_requirements_present(self):
        text = table1()
        assert "mIoU, GT 90.54" in text
        assert "WER (others), LT 8.79" in text

    def test_categories(self):
        text = table1()
        assert "Interaction" in text
        assert "Context Understanding" in text
        assert "World Locking" in text


class TestTable2:
    def test_all_scenarios(self):
        text = table2()
        for name in ("social_interaction_a", "ar_gaming", "vr_gaming"):
            assert name in text

    def test_dependency_annotations(self):
        text = table2()
        assert "ES->GE:D" in text        # data dependency
        assert "KD->SR:C@20%" in text     # control dep at outdoor p=0.2
        assert "KD->SR:C@50%" in text     # AR assistant p=0.5

    def test_inactive_cells_dashed(self):
        assert " -" in table2()


class TestTable3:
    def test_sensors_and_rates(self):
        text = table3()
        assert "camera" in text and "60 FPS" in text
        assert "lidar" in text
        assert "microphone" in text and "3 FPS" in text
        assert "0.10 ms" in text


class TestTable5:
    def test_thirteen_rows(self):
        text = table5()
        for acc in "ABCDEFGHIJKLM":
            assert f"\n{acc}   " in text

    def test_styles_shown(self):
        text = table5()
        for style in ("FDA", "SFDA", "HDA"):
            assert style in text

    def test_partitioning_shown(self):
        text = table5(4096)
        assert "WS@4096PE" in text                      # A
        assert "WS@3072PE + OS@1024PE" in text          # K (3:1)

    def test_custom_budget(self):
        assert "WS@8192PE" in table5(8192)


class TestTable6:
    def test_eleven_benchmarks_compared(self):
        text = table6()
        for name in ("MLPerf Inference", "DeepBench", "AIBench", "ILLIXR",
                     "VRMark", "XRBench"):
            assert name in text

    def test_xrbench_row_is_fully_checked(self):
        row = next(
            line for line in table6().splitlines() if line.startswith("XRBench")
        )
        assert row.count("y") == 8  # every column satisfied

    def test_partial_support_marked(self):
        assert "~" in table6()  # ILLIXR / AIBench triangles


class TestTable7:
    def test_instances_present(self):
        text = table7()
        for instance in ("RITNet", "FBNet-C", "res8-narrow", "EM-24L",
                         "HRViT-b1", "PlaneRCNN", "midas_v21_small"):
            assert instance in text

    def test_operator_mixes_present(self):
        text = table7()
        assert "SelfAttention" in text
        assert "DWCONV" in text
        assert "RoIAlign" in text

    def test_mac_counts_rendered(self):
        assert "G" in table7()  # GMAC-scale models exist
