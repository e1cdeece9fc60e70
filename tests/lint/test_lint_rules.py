"""Fixture-backed positive + negative coverage for every shipped rule."""

from __future__ import annotations

import pytest

from repro.lint import resolve_rules


def _rules_hit(report):
    return {f.rule for f in report.unsuppressed}


def _only(report, rule_id):
    """All unsuppressed findings, asserting they belong to one rule."""
    assert _rules_hit(report) <= {rule_id}, report.render()
    return [f for f in report.unsuppressed if f.rule == rule_id]


# ---------------------------------------------------------------------------
# D001 no-wall-clock
# ---------------------------------------------------------------------------


def test_d001_positive_flags_every_spelling(lint_fixture):
    report = lint_fixture("src/d001_positive.py")
    findings = _only(report, "D001")
    assert [f.line for f in findings] == [10, 14, 18, 22]
    assert "time.time" in findings[0].message
    assert "time.perf_counter" in findings[1].message
    assert "datetime.datetime.now" in findings[2].message


def test_d001_negative_clean(lint_fixture):
    report = lint_fixture("src/d001_negative.py")
    assert not report.findings, report.render()


def test_d001_tests_path_is_exempt(lint_fixture):
    report = lint_fixture("tests/d001_exempt.py")
    assert not report.findings, report.render()


# ---------------------------------------------------------------------------
# D002 seeded-rng-only
# ---------------------------------------------------------------------------


def test_d002_positive_flags_global_and_unseeded_rng(lint_fixture):
    report = lint_fixture("src/d002_positive.py")
    findings = _only(report, "D002")
    assert [f.line for f in findings] == [10, 14, 18, 22, 26]
    assert "without a seed" in findings[-1].message


def test_d002_negative_seeded_idiom_is_clean(lint_fixture):
    report = lint_fixture("src/d002_negative.py")
    assert not report.findings, report.render()


def test_d002_examples_path_is_exempt(lint_fixture):
    report = lint_fixture("examples/d002_exempt.py")
    assert not report.findings, report.render()


# ---------------------------------------------------------------------------
# D003 no-order-dependent-iteration
# ---------------------------------------------------------------------------


def test_d003_positive_flags_every_shape(lint_fixture):
    report = lint_fixture("runtime/d003_positive.py")
    findings = _only(report, "D003")
    assert [f.line for f in findings] == [6, 13, 21, 29, 33, 37]


def test_d003_negative_order_safe_usage(lint_fixture):
    report = lint_fixture("runtime/d003_negative.py")
    assert not report.findings, report.render()


def test_d003_only_fires_under_runtime_paths(lint_fixture):
    report = lint_fixture("src/d003_outside_runtime.py")
    assert not report.findings, report.render()


# ---------------------------------------------------------------------------
# C001 slots-on-hot-records
# ---------------------------------------------------------------------------


def test_c001_positive_flags_unslotted_hot_records(lint_fixture):
    report = lint_fixture("src/c001_positive.py")
    findings = _only(report, "C001")
    assert len(findings) == 2
    assert "WorkItem" in findings[0].message
    assert "ExecutionRecord" in findings[1].message


def test_c001_negative_slotted_and_unregistered(lint_fixture):
    report = lint_fixture("src/c001_negative.py")
    assert not report.findings, report.render()


def test_c001_flags_an_unslotted_inference_score(lint_fixture):
    # One is built per completed inference, so it is a hot record; a
    # class deriving from a namedtuple class gets a __dict__ back.
    report = lint_fixture("src/c001_named_tuple_positive.py")
    findings = _only(report, "C001")
    assert [f.line for f in findings] == [8, 16]
    assert "InferenceScore" in findings[0].message
    assert "SegmentChain" in findings[1].message


def test_c001_direct_named_tuple_counts_as_slotted(lint_fixture):
    report = lint_fixture("src/c001_named_tuple_negative.py")
    assert not report.findings, report.render()


# ---------------------------------------------------------------------------
# C002 schema-dataclass-drift
# ---------------------------------------------------------------------------


@pytest.fixture
def c002():
    return resolve_rules(["C002"])


def test_c002_drift_reported_in_both_directions(lint_project, c002):
    report = lint_project("c002_drift", rules=c002)
    findings = _only(report, "C002")
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 2, messages
    assert "RunSpec.duration_s has no key" in messages
    assert "'seed' has no RunSpec field" in messages
    # The matching DispatchPlan contract stays quiet.
    assert "DispatchPlan" not in messages


def test_c002_clean_project(lint_project, c002):
    report = lint_project("c002_clean", rules=c002)
    assert not report.findings, report.render()


def test_c002_real_repo_contracts_hold(c002, repo_root):
    from repro.lint import run_lint

    report = run_lint([repo_root / "src" / "repro" / "api"], rules=c002)
    assert not report.unsuppressed, report.render()


# ---------------------------------------------------------------------------
# C003 registry-completeness
# ---------------------------------------------------------------------------


@pytest.fixture
def c003():
    return resolve_rules(["C003"])


def test_c003_zoo_fixture(lint_project, c003):
    report = lint_project("c003_zoo", rules=c003)
    findings = _only(report, "C003")
    messages = [f.message for f in findings]
    assert len(findings) == 4, "\n".join(messages)
    assert any("registers no model builder" in m for m in messages)
    assert any("registers 2 builders" in m for m in messages)
    assert any("already registered" in m for m in messages)
    assert any("TASK_CODES disagrees" in m for m in messages)


def test_c003_policy_drift_fixture(lint_project, c003):
    report = lint_project("c003_policies_drift", rules=c003)
    findings = _only(report, "C003")
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 3, messages
    assert "schema/runspec.schema.json enum for 'dvfs_policy'" in messages
    assert "--dvfs literal choices" in messages
    assert "--admission choices come from WRONG_NAME" in messages


def test_c003_policy_clean_fixture(lint_project, c003):
    report = lint_project("c003_policies_clean", rules=c003)
    assert not report.findings, report.render()


def test_c003_flags_a_runtime_tuple_it_cannot_read(tmp_path, c003):
    # A computed tuple leaves the schema and CLI checks nothing to
    # compare against: the rule says so instead of passing silently.
    from repro.lint import run_lint

    runtime = tmp_path / "src" / "repro" / "runtime"
    runtime.mkdir(parents=True)
    (runtime / "governor.py").write_text(
        "_GOVERNORS = {'static': None}\n"
        "DVFS_POLICIES = tuple(_GOVERNORS)\n"
    )
    report = run_lint([tmp_path / "src"], root=tmp_path, rules=c003)
    (finding,) = _only(report, "C003")
    assert finding.path == "src/repro/runtime/governor.py"
    assert "DVFS_POLICIES is not a module-level tuple" in finding.message


def test_c003_real_zoo_and_policies_hold(c003, repo_root):
    from repro.lint import run_lint

    report = run_lint([repo_root / "src" / "repro" / "zoo"], rules=c003)
    assert not report.unsuppressed, report.render()
