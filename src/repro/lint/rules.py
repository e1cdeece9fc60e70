"""The shipped ``xrlint`` rules: determinism (D···) and contract (C···).

Every rule is a :class:`Rule` object registered in the module-level
``rules`` :class:`repro.registry.Registry` under both its id ("D001")
and its slug ("no-wall-clock"), so ``--rule`` lookups inherit the
registry's did-you-mean ``KeyError`` messages.

Rules come in two shapes:

* **per-file** (``check_file``): pure ``ast`` visitors over one parsed
  module — the determinism rules and the ``__slots__`` contract.
* **project-level** (``check_project``): cross-file contracts that
  diff source against ``schema/*.json`` or against sibling modules —
  schema/dataclass drift and registry completeness.

Path scoping is deliberate, not incidental: D001 exempts ``tests/``
(tests may pin timing behaviour), and D003 only fires under
``runtime/`` paths, where iteration order feeds dispatch tie-breaks and
therefore the golden schedule checksums.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Sequence

from repro.registry import Registry

from .engine import FileContext, Project

__all__ = [
    "Rule",
    "rules",
    "all_rules",
    "resolve_rules",
    "HOT_RECORDS",
    "TIMING_SHIM_ALLOWLIST",
]

#: Paths (relative, posix) where wall-clock reads are legitimate: tests
#: may pin timing behaviour.  Add explicit shim modules here with a
#: review.
TIMING_SHIM_ALLOWLIST: tuple[str, ...] = ("tests/",)

#: Paths where the seeded-RNG rule does not apply (ad-hoc example
#: scripts are allowed stateful RNG).
RNG_EXEMPT_PATHS: tuple[str, ...] = ("tests/", "examples/")

#: Hot-record registry (rule C001): classes on the dispatch and scoring
#: hot paths, slotted for attribute-access speed and footprint.  Any
#: class *with one of these names* must keep ``__slots__`` (explicitly,
#: via ``@dataclass(slots=True)``, or as a direct ``NamedTuple``
#: subclass) — reintroducing a ``__dict__`` here is a silent perf
#: regression the benchmarks only catch later.
HOT_RECORDS: tuple[str, ...] = (
    "WorkItem",
    "ExecutionRecord",
    "ExecutionEngine",
    "InferenceRequest",
    "SegmentChain",
    "ChainSuffix",
    "InferenceScore",
)

#: Wall-clock callables banned by D001, as canonical dotted names.
_WALL_CLOCK_CALLS: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: numpy RNG constructors that are fine *when seeded* (D002): the keyed
#: draws derive a seed from a sha256 digest of their key and build a
#: one-shot generator from it -- ``loadgen._unit_roll`` as
#: ``default_rng(seed)``, and the draws ``sensors._jitter_units``
#: leaves off its array kernel's fast path as ``Generator(PCG64(...))``
#: fed precomputed ``SeedSequence`` words.
_SEEDED_RNG_CONSTRUCTORS: frozenset[str] = frozenset(
    {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}
)


class Rule:
    """One lint rule: an id, a slug, and file/project check hooks."""

    id: str = ""
    name: str = ""
    description: str = ""

    def check_file(self, ctx: FileContext) -> Iterator[tuple[int, str]]:
        """Yield ``(line, message)`` findings for one parsed file."""
        return iter(())

    def check_project(
        self, project: Project
    ) -> Iterator[tuple[str, int, str]]:
        """Yield ``(relpath, line, message)`` cross-file findings."""
        return iter(())


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted prefix, from the module's imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``; ``from
    datetime import datetime`` maps ``datetime -> datetime.datetime``.
    Relative imports are ignored (they cannot name stdlib/numpy).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else local
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{module}.{alias.name}"
    return aliases


def _dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """The canonical dotted name of an attribute chain, or ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def _last_name(node: ast.AST) -> str | None:
    """``c`` for a name ``c`` or an attribute ``a.b.c``, else ``None``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _path_matches(relpath: str, prefixes: Iterable[str]) -> bool:
    """Whether a posix relpath lives under any of the path prefixes."""
    return any(
        relpath.startswith(prefix) or f"/{prefix}" in relpath
        for prefix in prefixes
    )


def _tuple_literal(
    tree: ast.Module, name: str
) -> tuple[int, tuple[str, ...]] | None:
    """A module-level ``NAME = ("a", "b", ...)`` literal, with its line."""
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                if isinstance(value, (ast.Tuple, ast.List)):
                    items: list[str] = []
                    for element in value.elts:
                        if not (
                            isinstance(element, ast.Constant)
                            and isinstance(element.value, str)
                        ):
                            return None
                        items.append(element.value)
                    return node.lineno, tuple(items)
    return None


def _dataclass_fields(cls: ast.ClassDef) -> tuple[str, ...]:
    """The annotated field names of a dataclass body (ClassVar skipped)."""
    fields: list[str] = []
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign):
            continue
        if not isinstance(node.target, ast.Name):
            continue
        annotation = ast.unparse(node.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append(node.target.id)
    return tuple(fields)


def _find_class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


# ---------------------------------------------------------------------------
# D001 — no-wall-clock
# ---------------------------------------------------------------------------


class NoWallClock(Rule):
    id = "D001"
    name = "no-wall-clock"
    description = (
        "wall-clock reads (time.time, datetime.now, perf_counter, ...) "
        "are banned outside allowlisted timing shims: simulated time is "
        "the only clock the runtime may observe"
    )

    def check_file(self, ctx: FileContext) -> Iterator[tuple[int, str]]:
        if _path_matches(ctx.relpath, TIMING_SHIM_ALLOWLIST):
            return
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func, aliases)
            if dotted in _WALL_CLOCK_CALLS:
                yield (
                    node.lineno,
                    f"wall-clock read {dotted}() — the runtime is "
                    "simulated-time only; measure wall time outside "
                    "the runtime or in an allowlisted timing shim",
                )


# ---------------------------------------------------------------------------
# D002 — seeded-rng-only
# ---------------------------------------------------------------------------


class SeededRngOnly(Rule):
    id = "D002"
    name = "seeded-rng-only"
    description = (
        "stateful/unseeded RNG (random.*, np.random.* module calls) is "
        "banned in src/repro/: randomness must flow through seeded "
        "generator construction keyed by a sha256 digest (the "
        "_unit_roll/_jitter_units idiom)"
    )

    def check_file(self, ctx: FileContext) -> Iterator[tuple[int, str]]:
        if _path_matches(ctx.relpath, RNG_EXEMPT_PATHS):
            return
        aliases = _import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func, aliases)
            if dotted is None:
                continue
            if dotted == "random" or dotted.startswith("random."):
                yield (
                    node.lineno,
                    f"stdlib random call {dotted}() draws from hidden "
                    "global state; derive draws from seeded keys "
                    "(the _unit_roll/_jitter_units idiom)",
                )
            elif dotted.startswith("numpy.random."):
                tail = dotted.rsplit(".", 1)[1]
                if tail not in _SEEDED_RNG_CONSTRUCTORS:
                    yield (
                        node.lineno,
                        f"{dotted}() uses numpy's global RNG state; "
                        "construct a seeded Generator via "
                        "default_rng(seed) instead",
                    )
                elif not node.args and not node.keywords:
                    yield (
                        node.lineno,
                        f"{dotted}() without a seed is entropy-seeded "
                        "and breaks run reproducibility; pass an "
                        "explicit seed",
                    )


# ---------------------------------------------------------------------------
# D003 — no-order-dependent-iteration
# ---------------------------------------------------------------------------


class _SetIterationVisitor(ast.NodeVisitor):
    """Flag iteration over sets inside one scope, in statement order.

    Tracks simple local bindings (``seen = set()``, ``seen: set[str]
    = ...``) so ``for x in seen`` is caught too; rebinding a name to a
    non-set clears it.  ``sorted(...)``/``min``/``max``/``sum``/``any``
    /``all``/``len`` consume sets order-independently and are fine;
    ``list``/``tuple``/``enumerate`` materialise the unordered view and
    are flagged anywhere they appear.
    """

    _ORDER_SAFE = frozenset(
        {"sorted", "min", "max", "sum", "any", "all", "len", "frozenset",
         "set"}
    )
    _ORDER_LEAKS = frozenset({"list", "tuple", "enumerate"})

    def __init__(self) -> None:
        self.findings: list[tuple[int, str]] = []
        self._set_names: set[str] = set()

    # -- set-ness inference ---------------------------------------------------

    def _is_set_expr(self, node: ast.expr | None) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, ast.Name):
            return node.id in self._set_names
        return False

    def _bind(self, target: ast.expr, is_set: bool) -> None:
        if isinstance(target, ast.Name):
            if is_set:
                self._set_names.add(target.id)
            else:
                self._set_names.discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._bind(target, self._is_set_expr(node.value))

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        annotation = ast.unparse(node.annotation)
        is_set = annotation.startswith(("set", "frozenset")) or (
            node.value is not None and self._is_set_expr(node.value)
        )
        self._bind(node.target, is_set)

    # -- nested scopes get a fresh visitor ------------------------------------

    def _visit_scope(self, node: ast.AST) -> None:
        nested = _SetIterationVisitor()
        for child in ast.iter_child_nodes(node):
            nested.visit(child)
        self.findings.extend(nested.findings)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    # -- the actual checks ----------------------------------------------------

    def _flag(self, node: ast.expr, how: str) -> None:
        self.findings.append(
            (
                node.lineno,
                f"{how} iterates a set in hash order; dispatch "
                "tie-breaks must not depend on it — sort first "
                "(sorted(...)) or keep an explicitly ordered structure",
            )
        )

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node.iter, "for-loop")
        self.generic_visit(node)

    def _check_comprehension(
        self, node: ast.expr, generators: Sequence[ast.comprehension]
    ) -> None:
        for gen in generators:
            if self._is_set_expr(gen.iter):
                self._flag(gen.iter, "comprehension")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node, node.generators)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in self._ORDER_LEAKS
            and node.args
            and self._is_set_expr(node.args[0])
        ):
            self._flag(node, f"{node.func.id}(set)")
        self.generic_visit(node)


class NoOrderDependentIteration(Rule):
    id = "D003"
    name = "no-order-dependent-iteration"
    description = (
        "inside runtime/ (dispatch, queues, fleet), iterating a set — "
        "directly, via a bound name, or via list()/tuple()/enumerate() "
        "— leaks hash order into schedule tie-breaks; sort first"
    )

    def check_file(self, ctx: FileContext) -> Iterator[tuple[int, str]]:
        if not _path_matches(ctx.relpath, ("runtime/",)):
            return
        visitor = _SetIterationVisitor()
        visitor.visit(ctx.tree)
        yield from sorted(visitor.findings)


# ---------------------------------------------------------------------------
# C001 — slots-on-hot-records
# ---------------------------------------------------------------------------


def _declares_slots(cls: ast.ClassDef) -> bool:
    # A direct NamedTuple subclass is a namedtuple: ``__slots__ = ()``.
    if any(_last_name(base) == "NamedTuple" for base in cls.bases):
        return True
    for node in cls.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "__slots__"
        ):
            return True
    for decorator in cls.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        if _last_name(decorator.func) != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


class SlotsOnHotRecords(Rule):
    id = "C001"
    name = "slots-on-hot-records"
    description = (
        "classes named in the hot-record registry (WorkItem, "
        "ExecutionRecord, ...) must declare __slots__ (directly, via "
        "@dataclass(slots=True), or as a NamedTuple subclass): they are "
        "allocated per streamed frame"
    )

    def check_file(self, ctx: FileContext) -> Iterator[tuple[int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name not in HOT_RECORDS:
                continue
            if not _declares_slots(node):
                yield (
                    node.lineno,
                    f"hot record {node.name} has no __slots__; declare "
                    "them (or @dataclass(slots=True)) — these objects "
                    "are allocated per streamed frame on the dispatch "
                    "hot path",
                )


# ---------------------------------------------------------------------------
# C002 — schema-dataclass-drift
# ---------------------------------------------------------------------------


class SchemaDataclassDrift(Rule):
    id = "C002"
    name = "schema-dataclass-drift"
    description = (
        "RunSpec/DispatchPlan dataclass fields must match the key sets "
        "of schema/runspec.schema.json and schema/dispatchplan."
        "schema.json — a field added on one side only drifts silently"
    )

    #: (module, class, schema file, path to the properties mapping).
    CONTRACTS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
        (
            "src/repro/api/spec.py",
            "RunSpec",
            "schema/runspec.schema.json",
            ("definitions", "runspec", "properties"),
        ),
        (
            "src/repro/api/plan.py",
            "DispatchPlan",
            "schema/dispatchplan.schema.json",
            ("properties",),
        ),
    )

    def check_project(
        self, project: Project
    ) -> Iterator[tuple[str, int, str]]:
        for module_path, class_name, schema_path, pointer in self.CONTRACTS:
            tree = project.module(module_path)
            schema = project.read_json(schema_path)
            if tree is None or schema is None:
                continue
            cls = _find_class(tree, class_name)
            if cls is None:
                yield (
                    module_path,
                    1,
                    f"expected dataclass {class_name} is missing (the "
                    f"{schema_path} contract has no counterpart)",
                )
                continue
            node = schema
            for key in pointer:
                node = node.get(key, {}) if isinstance(node, dict) else {}
            if not isinstance(node, dict) or not node:
                yield (
                    module_path,
                    cls.lineno,
                    f"{schema_path} has no properties at "
                    f"{'/'.join(pointer)}; cannot check {class_name}",
                )
                continue
            fields = set(_dataclass_fields(cls))
            keys = set(node)
            for missing in sorted(fields - keys):
                yield (
                    module_path,
                    cls.lineno,
                    f"{class_name}.{missing} has no key in "
                    f"{schema_path}; add it to the schema (serialized "
                    "specs would fail validation)",
                )
            for extra in sorted(keys - fields):
                yield (
                    module_path,
                    cls.lineno,
                    f"{schema_path} key {extra!r} has no {class_name} "
                    "field; remove it or add the field (round-trips "
                    "would drop it)",
                )


# ---------------------------------------------------------------------------
# C003 — registry-completeness
# ---------------------------------------------------------------------------


def _register_model_code(decorator: ast.expr) -> str | None:
    """The task code of an ``@register_model("XX")`` decorator, if any."""
    if not isinstance(decorator, ast.Call):
        return None
    if _last_name(decorator.func) != "register_model":
        return None
    if decorator.args and isinstance(decorator.args[0], ast.Constant):
        value = decorator.args[0].value
        if isinstance(value, str):
            return value
    return ""


class RegistryCompleteness(Rule):
    id = "C003"
    name = "registry-completeness"
    description = (
        "every zoo/ model module registers exactly one builder via "
        "@register_model, codes are unique and match TASK_CODES, and "
        "the runtime's policy/profile/granularity tuples agree with the "
        "JSON-schema enums and the CLI choices"
    )

    #: Name tuples: name -> (the runtime module that defines it as a
    #: literal, its runspec schema key).  RunSpec and the CLI import
    #: these tuples; nothing else may spell the names out.
    POLICY_CONTRACTS: tuple[tuple[str, str, str], ...] = (
        ("DVFS_POLICIES", "src/repro/runtime/governor.py", "dvfs_policy"),
        ("ADMISSION_POLICIES", "src/repro/runtime/admission.py", "admission"),
        ("FAULT_PROFILES", "src/repro/runtime/faults.py", "faults"),
        ("GRANULARITIES", "src/repro/runtime/multisim.py", "granularity"),
    )

    #: CLI flag -> the runtime tuple its choices must come from.
    CLI_CHOICES: tuple[tuple[str, str], ...] = (
        ("--dvfs", "DVFS_POLICIES"),
        ("--admission", "ADMISSION_POLICIES"),
        ("--faults", "FAULT_PROFILES"),
        ("--granularity", "GRANULARITIES"),
    )

    def check_project(
        self, project: Project
    ) -> Iterator[tuple[str, int, str]]:
        yield from self._check_zoo(project)
        yield from self._check_policies(project)

    # -- zoo completeness -----------------------------------------------------

    def _check_zoo(self, project: Project) -> Iterator[tuple[str, int, str]]:
        zoo_dir = project.root / "src" / "repro" / "zoo"
        if not zoo_dir.is_dir():
            return
        codes: dict[str, str] = {}
        for path in project.glob("src/repro/zoo/*.py"):
            if path.name in ("__init__.py", "registry.py"):
                continue
            relpath = path.relative_to(project.root).as_posix()
            tree = project.module(relpath)
            if tree is None:
                continue
            registered: list[tuple[int, str]] = []
            for node in tree.body:
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                for decorator in node.decorator_list:
                    code = _register_model_code(decorator)
                    if code is None:
                        continue
                    if code == "":
                        yield (
                            relpath,
                            node.lineno,
                            "@register_model needs a literal task-code "
                            "string argument",
                        )
                        continue
                    registered.append((node.lineno, code))
            if not registered:
                yield (
                    relpath,
                    1,
                    "zoo module registers no model builder; decorate "
                    "its build function with @register_model(\"<code>\")",
                )
                continue
            if len(registered) > 1:
                yield (
                    relpath,
                    registered[1][0],
                    f"zoo module registers {len(registered)} builders; "
                    "exactly one @register_model per module",
                )
            for line, code in registered:
                if code in codes:
                    yield (
                        relpath,
                        line,
                        f"task code {code!r} is already registered by "
                        f"{codes[code]}; codes must be unique",
                    )
                else:
                    codes[code] = relpath
        registry_rel = "src/repro/zoo/registry.py"
        registry_tree = project.module(registry_rel)
        if registry_tree is None or not codes:
            return
        literal = _tuple_literal(registry_tree, "TASK_CODES")
        if literal is None:
            return
        line, task_codes = literal
        if set(task_codes) != set(codes):
            missing = sorted(set(codes) - set(task_codes))
            stale = sorted(set(task_codes) - set(codes))
            detail = []
            if missing:
                detail.append(f"registered but not listed: {missing}")
            if stale:
                detail.append(f"listed but never registered: {stale}")
            yield (
                registry_rel,
                line,
                "TASK_CODES disagrees with the @register_model "
                f"decorators ({'; '.join(detail)})",
            )

    # -- policy tuple sync ----------------------------------------------------

    def _check_policies(
        self, project: Project
    ) -> Iterator[tuple[str, int, str]]:
        schema = project.read_json("schema/runspec.schema.json")
        spec_props = {}
        if isinstance(schema, dict):
            spec_props = (
                schema.get("definitions", {})
                .get("runspec", {})
                .get("properties", {})
            )
        tuples: dict[str, tuple[str, ...]] = {}
        for name, runtime_rel, schema_key in self.POLICY_CONTRACTS:
            runtime_tree = project.module(runtime_rel)
            if runtime_tree is None:
                continue
            literal = _tuple_literal(runtime_tree, name)
            if literal is None:
                # Without the literal there is nothing to compare the
                # schema and the CLI against: say so, not pass silently.
                yield (
                    runtime_rel,
                    1,
                    f"{name} is not a module-level tuple of string "
                    "literals here; C003 checks the schema enum and the "
                    "CLI choices against it",
                )
                continue
            line, values = literal
            tuples[name] = values
            enum = None
            prop = spec_props.get(schema_key)
            if isinstance(prop, dict):
                enum = prop.get("enum")
            if enum is not None and tuple(enum) != values:
                yield (
                    runtime_rel,
                    line,
                    f"{name} {values} disagrees with the "
                    f"schema/runspec.schema.json enum for "
                    f"{schema_key!r} ({tuple(enum)})",
                )
        yield from self._check_cli_choices(project, tuples)

    def _check_cli_choices(
        self, project: Project, tuples: dict[str, tuple[str, ...]]
    ) -> Iterator[tuple[str, int, str]]:
        cli_rel = "src/repro/cli.py"
        cli_tree = project.module(cli_rel)
        if cli_tree is None:
            return
        for node in ast.walk(cli_tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                continue
            flag = node.args[0].value
            expected_name = dict(self.CLI_CHOICES).get(flag)
            if expected_name is None:
                continue
            choices = next(
                (k.value for k in node.keywords if k.arg == "choices"), None
            )
            if choices is None:
                continue
            expected = tuples.get(expected_name)
            if (
                isinstance(choices, ast.Call)
                and isinstance(choices.func, ast.Name)
                and choices.func.id in ("list", "tuple")
                and len(choices.args) == 1
                and isinstance(choices.args[0], ast.Name)
            ):
                if choices.args[0].id != expected_name:
                    yield (
                        cli_rel,
                        node.lineno,
                        f"{flag} choices come from "
                        f"{choices.args[0].id}, not {expected_name}; "
                        "CLI choices must be the runtime tuple",
                    )
                continue
            if isinstance(choices, (ast.List, ast.Tuple)):
                values = tuple(
                    e.value
                    for e in choices.elts
                    if isinstance(e, ast.Constant)
                )
                if expected is not None and values != expected:
                    yield (
                        cli_rel,
                        node.lineno,
                        f"{flag} literal choices {values} disagree with "
                        f"{expected_name} {expected}; use "
                        f"list({expected_name}) instead",
                    )


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

#: All shipped rules, in id order.  X001/X002 (suppression hygiene) are
#: engine-level meta findings, not selectable rules — see engine.py.
_RULES: tuple[Rule, ...] = (
    NoWallClock(),
    SeededRngOnly(),
    NoOrderDependentIteration(),
    SlotsOnHotRecords(),
    SchemaDataclassDrift(),
    RegistryCompleteness(),
)

#: Lookup registry: every rule under both its id and its slug, so
#: ``--rule`` accepts either and typos get did-you-mean KeyErrors.
rules = Registry("lint rule")
for _rule in _RULES:
    rules.register(_rule.id, _rule)
    rules.register(_rule.name, _rule)


def all_rules() -> tuple[Rule, ...]:
    """Every shipped rule, in id order."""
    return _RULES


def resolve_rules(names: Sequence[str] | None) -> tuple[Rule, ...]:
    """Resolve ``--rule`` selections (ids or slugs) to rule objects.

    Unknown names raise the registry's suggesting ``KeyError``; ``None``
    or empty selects every rule.  Order and uniqueness follow the
    shipped id order regardless of selection order.
    """
    if not names:
        return _RULES
    selected = {id(rules.get(name)) for name in names}
    return tuple(rule for rule in _RULES if id(rule) in selected)
