"""Ablation benches for the design choices DESIGN.md calls out.

Not paper figures — these quantify the knobs of the reproduction itself:
scheduler policy, jitter, the RT-score constant k, the Enmax energy
budget, slack-aware DVFS, and weight quantisation.
"""

from __future__ import annotations

from repro.eval import (
    dvfs_ablation,
    enmax_sensitivity,
    jitter_ablation,
    quantization_ablation,
    rt_k_sensitivity,
    scheduler_ablation,
)


def test_ablation_scheduler(benchmark, cost_table):
    rows = benchmark.pedantic(
        scheduler_ablation, args=(cost_table,), rounds=1, iterations=1
    )
    print()
    for r in rows:
        print(f"  scheduler={r.setting:<16s} overall={r.overall:.3f} "
              f"rt={r.rt:.3f} qoe={r.qoe:.3f}")
    assert len(rows) == 3


def test_ablation_jitter(benchmark, cost_table):
    rows = benchmark.pedantic(
        jitter_ablation, args=(cost_table,), kwargs={"seeds": 10},
        rounds=1, iterations=1,
    )
    mean, spread = rows
    print()
    print(f"  jitter: mean overall={mean.overall:.3f}, "
          f"seed spread={spread.overall:.4f}")
    assert spread.overall < 0.3


def test_ablation_rt_k(benchmark, cost_table):
    rows = benchmark.pedantic(
        rt_k_sensitivity, args=(cost_table,), rounds=1, iterations=1
    )
    print()
    for r in rows:
        print(f"  {r.setting:<8s} overall={r.overall:.3f} rt={r.rt:.3f}")
    # Softer k forgives the AR-gaming deadline misses more.
    assert rows[0].rt >= rows[-1].rt


def test_ablation_enmax(benchmark, cost_table):
    rows = benchmark.pedantic(
        enmax_sensitivity, args=(cost_table,), rounds=1, iterations=1
    )
    print()
    for r in rows:
        print(f"  {r.setting:<16s} overall={r.overall:.3f}")
    assert rows[0].overall <= rows[-1].overall


def test_ablation_dvfs(benchmark, cost_table):
    result = benchmark.pedantic(
        dvfs_ablation, args=(cost_table,), rounds=1, iterations=1
    )
    print()
    for code, row in result.items():
        print(
            f"  {code}: f={row['chosen_frequency']:.1f} "
            f"saving={row['energy_saving']:+.1%} "
            f"({row['nominal_energy_mj']:.1f} -> "
            f"{row['scaled_energy_mj']:.1f} mJ)"
        )
    # Aggregate saving across the suite's models must be positive: most
    # models have slack to burn.
    savings = [r["energy_saving"] for r in result.values()]
    assert sum(savings) / len(savings) > 0.1


def test_ablation_model_splitting(benchmark):
    """Herald-style PD segmentation on the saturated 4K J system."""
    from repro.core import score_simulation
    from repro.costmodel import CachedCostTable
    from repro.hardware import build_accelerator
    from repro.runtime import (
        LatencyGreedyScheduler,
        Simulator,
        segment_scenario,
    )
    from repro.workload import get_scenario

    def sweep():
        out = {}
        for k in (1, 2, 4):
            base = get_scenario("ar_gaming")
            if k == 1:
                scenario, table = base, CachedCostTable()
            else:
                scenario, table = segment_scenario(base, "PD", k)
            sim = Simulator(
                scenario=scenario, system=build_accelerator("J", 4096),
                scheduler=LatencyGreedyScheduler(), duration_s=1.0,
                costs=table,
            ).run()
            score = score_simulation(sim)
            pd = score.model("PD" if k == 1 else f"PD.{k - 1}")
            out[k] = {"overall": score.overall, "pd_qoe": pd.qoe}
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for k, row in result.items():
        print(f"  PD x{k}: overall={row['overall']:.3f} "
              f"PD qoe={row['pd_qoe']:.2f}")
    # Pipelining must lift the saturating model's delivered frame rate.
    assert result[2]["pd_qoe"] > result[1]["pd_qoe"]


def test_ablation_quantization(benchmark):
    result = benchmark.pedantic(
        quantization_ablation, kwargs={"codes": ("KD", "AS")},
        rounds=1, iterations=1,
    )
    print()
    for code, by_bits in result.items():
        for bits, row in by_bits.items():
            print(
                f"  {code} int{bits}: quality={row['measured_quality']:.2f} "
                f"acc_score={row['accuracy_score']:.3f} "
                f"meets_goal={bool(row['meets_goal'])}"
            )
    for code in result:
        assert result[code][8]["accuracy_score"] >= (
            result[code][4]["accuracy_score"]
        )
