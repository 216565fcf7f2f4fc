"""Whole-program model: per-module summaries and the project call graph.

PR 2's checkers see one file at a time, which is exactly why they
cannot express this repository's hardest invariants -- "every engine
consumes every knob", "nothing impure reaches the cache key through
*any* call chain".  This module builds the cross-module view those
passes run on:

* :class:`ModuleSummary` -- one JSON-serializable digest of a parsed
  module: functions with their call sites / attribute reads / foreign
  writes, classes with their (dataclass) fields, canonicalized
  imports, string-set constants and suppression comments.  Summaries
  are what the incremental cache (:mod:`repro.lint.cache`) persists,
  keyed by content hash, so re-runs only re-parse edited files.
* :class:`ProjectGraph` -- the summaries of every linted file plus a
  resolved call graph over them: edges between project functions
  (``module.Class.method`` qualnames) and canonical external callee
  names (``time.time``, ``numpy.zeros``) for the taint engine.

Resolution is deliberately conservative: a call we cannot attribute
statically (a dynamic dispatch, a callable in a variable) simply adds
no edge.  Project passes are therefore under-approximate -- they can
miss, never hallucinate, which is the right default for a CI gate.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import Any, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "CallSite",
    "WriteSite",
    "FieldSummary",
    "ClassSummary",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectGraph",
    "build_project",
    "module_name_for",
    "source_digest",
    "summarize_module",
]

#: Method names whose call on an object mutates it in place.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "extend", "insert", "update",
    "setdefault", "pop", "popitem", "popleft", "remove", "discard",
    "clear", "sort", "reverse", "__setitem__",
})


def source_digest(source: str) -> str:
    """Content hash the incremental cache keys summaries by."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def module_name_for(path: str | Path) -> tuple[str, bool]:
    """Dotted module name for a file, by walking up ``__init__.py``s.

    Returns ``(name, is_package)``.  A file outside any package keeps
    its bare stem, so fixture files in a temp directory still get
    stable, collision-free names.
    """
    path = Path(path)
    is_package = path.name == "__init__.py"
    parts: list[str] = [] if is_package else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:
        parts = [path.parent.name or path.stem]
    return ".".join(parts), is_package


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``target`` is the dotted path as written (``self.registry.counter``,
    ``np.zeros``, ``run_fast``); resolution to canonical or project
    names happens in :class:`ProjectGraph` where the import maps of
    every module are available.  ``str_arg`` records a literal first
    argument (``payload.pop("engine", ...)``) for policy checkers.
    """

    target: str
    lineno: int
    col: int
    keywords: tuple[str, ...] = ()
    str_arg: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "target": self.target, "lineno": self.lineno, "col": self.col,
            "keywords": list(self.keywords), "str_arg": self.str_arg,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CallSite":
        return cls(
            target=data["target"], lineno=data["lineno"], col=data["col"],
            keywords=tuple(data["keywords"]), str_arg=data["str_arg"],
        )


@dataclass(frozen=True)
class WriteSite:
    """A store through a name: ``root.attr = ...``, ``root[k] = ...``
    or a mutating method call ``root.append(...)``.

    ``attr`` is None for subscript stores; ``via_call`` marks mutator
    method calls.  ``root`` is the leftmost name, after one level of
    local aliasing (``s = sim; s.x = 1`` reports root ``sim``).
    """

    root: str
    attr: str | None
    lineno: int
    col: int
    via_call: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "root": self.root, "attr": self.attr, "lineno": self.lineno,
            "col": self.col, "via_call": self.via_call,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WriteSite":
        return cls(
            root=data["root"], attr=data["attr"], lineno=data["lineno"],
            col=data["col"], via_call=data["via_call"],
        )


@dataclass(frozen=True)
class FieldSummary:
    """One annotated class attribute (a dataclass field, typically)."""

    name: str
    lineno: int
    col: int
    annotation: str
    #: ``field(..., compare=False)`` -- excluded from generated equality.
    compare: bool = True
    has_default: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "lineno": self.lineno, "col": self.col,
            "annotation": self.annotation, "compare": self.compare,
            "has_default": self.has_default,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FieldSummary":
        return cls(**data)


@dataclass(frozen=True)
class ClassSummary:
    """One class: bases as written, annotated fields, method names."""

    name: str
    lineno: int
    bases: tuple[str, ...]
    fields: tuple[FieldSummary, ...]
    methods: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "lineno": self.lineno,
            "bases": list(self.bases),
            "fields": [f.to_dict() for f in self.fields],
            "methods": list(self.methods),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClassSummary":
        return cls(
            name=data["name"], lineno=data["lineno"],
            bases=tuple(data["bases"]),
            fields=tuple(FieldSummary.from_dict(f) for f in data["fields"]),
            methods=tuple(data["methods"]),
        )


@dataclass(frozen=True)
class FunctionSummary:
    """One function or method, flattened for cross-module analysis."""

    name: str
    qualname: str
    lineno: int
    col: int
    params: tuple[str, ...]
    calls: tuple[CallSite, ...]
    #: Attribute names read anywhere in the body (any receiver).
    attr_reads: frozenset[str]
    #: Attribute names read specifically off ``self``.
    self_reads: frozenset[str]
    writes: tuple[WriteSite, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "qualname": self.qualname,
            "lineno": self.lineno, "col": self.col,
            "params": list(self.params),
            "calls": [c.to_dict() for c in self.calls],
            "attr_reads": sorted(self.attr_reads),
            "self_reads": sorted(self.self_reads),
            "writes": [w.to_dict() for w in self.writes],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FunctionSummary":
        return cls(
            name=data["name"], qualname=data["qualname"],
            lineno=data["lineno"], col=data["col"],
            params=tuple(data["params"]),
            calls=tuple(CallSite.from_dict(c) for c in data["calls"]),
            attr_reads=frozenset(data["attr_reads"]),
            self_reads=frozenset(data["self_reads"]),
            writes=tuple(WriteSite.from_dict(w) for w in data["writes"]),
        )


@dataclass
class ModuleSummary:
    """Everything the project passes need to know about one file."""

    path: str
    module: str
    sha256: str
    is_package: bool
    imports: dict[str, str]
    functions: dict[str, FunctionSummary]
    classes: dict[str, ClassSummary]
    module_attr_reads: frozenset[str]
    #: Module-level ``NAME = {"a", "b"}`` string-collection constants.
    str_sets: dict[str, tuple[str, ...]]
    shadowed_builtins: frozenset[str] = field(default_factory=frozenset)

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path, "module": self.module, "sha256": self.sha256,
            "is_package": self.is_package, "imports": dict(self.imports),
            "functions": {
                q: f.to_dict() for q, f in sorted(self.functions.items())
            },
            "classes": {
                q: c.to_dict() for q, c in sorted(self.classes.items())
            },
            "module_attr_reads": sorted(self.module_attr_reads),
            "str_sets": {k: list(v) for k, v in sorted(self.str_sets.items())},
            "shadowed_builtins": sorted(self.shadowed_builtins),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModuleSummary":
        return cls(
            path=data["path"], module=data["module"], sha256=data["sha256"],
            is_package=data["is_package"], imports=dict(data["imports"]),
            functions={
                q: FunctionSummary.from_dict(f)
                for q, f in data["functions"].items()
            },
            classes={
                q: ClassSummary.from_dict(c)
                for q, c in data["classes"].items()
            },
            module_attr_reads=frozenset(data["module_attr_reads"]),
            str_sets={k: tuple(v) for k, v in data["str_sets"].items()},
            shadowed_builtins=frozenset(data["shadowed_builtins"]),
        )


# ----------------------------------------------------------------------
# Summarization
# ----------------------------------------------------------------------

def _dotted_path(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chains back to a dotted string (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolve_import(
    module: str, is_package: bool, level: int, target: str
) -> str:
    """Absolute dotted path of a (possibly relative) import source."""
    if level == 0:
        return target
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: max(0, len(parts) - (level - 1))]
    base = ".".join(parts)
    if not target:
        return base
    return f"{base}.{target}" if base else target


def _import_table(
    tree: ast.Module, module: str, is_package: bool
) -> dict[str, str]:
    """Local name -> absolute canonical dotted path, relatives resolved."""
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            source = _resolve_import(
                module, is_package, node.level, node.module or ""
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{source}.{alias.name}" if source else alias.name
    return table


def _literal_str_set(node: ast.expr) -> tuple[str, ...] | None:
    """String elements of a set/frozenset/tuple/list display (or None)."""
    if isinstance(node, ast.Call):
        callee = node.func
        name = callee.id if isinstance(callee, ast.Name) else (
            callee.attr if isinstance(callee, ast.Attribute) else ""
        )
        if name != "frozenset" or len(node.args) != 1:
            return None
        node = node.args[0]
    if not isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        return None
    values: list[str] = []
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        values.append(elt.value)
    return tuple(values)


def _class_fields(node: ast.ClassDef) -> tuple[FieldSummary, ...]:
    """Annotated class-body attributes (dataclass fields, typically)."""
    fields: list[FieldSummary] = []
    for stmt in node.body:
        if not (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        ):
            continue
        annotation = ast.unparse(stmt.annotation)
        if annotation.startswith("ClassVar"):
            continue
        compare = True
        if isinstance(stmt.value, ast.Call):
            callee = stmt.value.func
            callee_name = callee.id if isinstance(callee, ast.Name) else (
                callee.attr if isinstance(callee, ast.Attribute) else ""
            )
            if callee_name == "field":
                for kw in stmt.value.keywords:
                    if (
                        kw.arg == "compare"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                    ):
                        compare = False
        fields.append(
            FieldSummary(
                name=stmt.target.id,
                lineno=stmt.lineno,
                col=stmt.col_offset + 1,
                annotation=annotation,
                compare=compare,
                has_default=stmt.value is not None,
            )
        )
    return tuple(fields)


def _write_root(node: ast.expr) -> tuple[str, str | None] | None:
    """(root name, attr-or-None-for-subscript) of a store target."""
    if isinstance(node, ast.Attribute):
        root = _dotted_path(node.value)
        if root is not None:
            return root.split(".")[0], node.attr
    elif isinstance(node, ast.Subscript):
        root = _dotted_path(node.value)
        if root is not None:
            return root.split(".")[0], None
    return None


def _function_summary(
    node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
) -> FunctionSummary:
    params = tuple(
        arg.arg
        for arg in (
            *node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
            *((node.args.vararg,) if node.args.vararg else ()),
            *((node.args.kwarg,) if node.args.kwarg else ()),
        )
    )
    # One level of aliasing: locals assigned from a bare parameter name
    # count as that parameter for foreign-write attribution.
    aliases: dict[str, str] = {}
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Assign)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in params
        ):
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    aliases[target.id] = sub.value.id

    calls: list[CallSite] = []
    attr_reads: set[str] = set()
    self_reads: set[str] = set()
    writes: list[WriteSite] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attr_reads.add(sub.attr)
            if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                self_reads.add(sub.attr)
        elif isinstance(sub, ast.Call):
            target = _dotted_path(sub.func)
            if target is None:
                continue
            str_arg: str | None = None
            if sub.args and isinstance(sub.args[0], ast.Constant) and isinstance(
                sub.args[0].value, str
            ):
                str_arg = sub.args[0].value
            calls.append(
                CallSite(
                    target=target,
                    lineno=sub.lineno,
                    col=sub.col_offset + 1,
                    keywords=tuple(
                        kw.arg for kw in sub.keywords if kw.arg is not None
                    ),
                    str_arg=str_arg,
                )
            )
            tail = target.rsplit(".", 1)
            if len(tail) == 2 and tail[1] in MUTATOR_METHODS:
                root = aliases.get(
                    tail[0].split(".")[0], tail[0].split(".")[0]
                )
                writes.append(
                    WriteSite(
                        root=root, attr=tail[1],
                        lineno=sub.lineno, col=sub.col_offset + 1,
                        via_call=True,
                    )
                )
        elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets: Sequence[ast.expr]
            if isinstance(sub, ast.Assign):
                targets = sub.targets
            else:
                targets = (sub.target,)
            for tgt in targets:
                hit = _write_root(tgt)
                if hit is None:
                    continue
                root, attr = hit
                writes.append(
                    WriteSite(
                        root=aliases.get(root, root), attr=attr,
                        lineno=tgt.lineno, col=tgt.col_offset + 1,
                    )
                )
    return FunctionSummary(
        name=node.name,
        qualname=qualname,
        lineno=node.lineno,
        col=node.col_offset + 1,
        params=params,
        calls=tuple(calls),
        attr_reads=frozenset(attr_reads),
        self_reads=frozenset(self_reads),
        writes=tuple(writes),
    )


class _ModuleVisitor(ast.NodeVisitor):
    """Collects functions (with class nesting) and classes."""

    def __init__(self) -> None:
        self.stack: list[str] = []
        self.functions: dict[str, FunctionSummary] = {}
        self.classes: dict[str, ClassSummary] = {}

    def _qual(self, name: str) -> str:
        return ".".join([*self.stack, name])

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _handle_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        qualname = self._qual(node.name)
        self.functions[qualname] = _function_summary(node, qualname)
        self.stack.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self.stack.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qual(node.name)
        methods = tuple(
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        bases = tuple(
            base for base in (_dotted_path(b) for b in node.bases)
            if base is not None
        )
        self.classes[qualname] = ClassSummary(
            name=node.name,
            lineno=node.lineno,
            bases=bases,
            fields=_class_fields(node),
            methods=methods,
        )
        self.stack.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self.stack.pop()


def summarize_module(
    source: str,
    path: str,
    module: str | None = None,
    tree: ast.Module | None = None,
) -> ModuleSummary:
    """Build a :class:`ModuleSummary` from one source buffer.

    Raises :class:`SyntaxError` for unparseable sources; the runner
    reports those as RPR000 findings and excludes the file from the
    project graph.  Pass ``tree`` to reuse an existing parse.
    """
    if tree is None:
        tree = ast.parse(source, filename=path)
    if module is None:
        module, is_package = module_name_for(path)
    else:
        is_package = PurePath(path).name == "__init__.py"
    visitor = _ModuleVisitor()
    visitor.visit(tree)
    module_attr_reads = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    str_sets: dict[str, tuple[str, ...]] = {}
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            values = _literal_str_set(stmt.value)
            if values is not None:
                str_sets[stmt.targets[0].id] = values
    shadowed = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            shadowed.add(node.id)
        elif isinstance(node, ast.arg):
            shadowed.add(node.arg)
    return ModuleSummary(
        path=path,
        module=module,
        sha256=source_digest(source),
        is_package=is_package,
        imports=_import_table(tree, module, is_package),
        functions=visitor.functions,
        classes=visitor.classes,
        module_attr_reads=frozenset(module_attr_reads),
        str_sets=str_sets,
        shadowed_builtins=frozenset(shadowed),
    )


# ----------------------------------------------------------------------
# The project graph
# ----------------------------------------------------------------------

class ProjectGraph:
    """All module summaries plus the resolved call graph over them.

    Project functions are addressed as ``<module>.<qualname>``
    (``repro.simulation.engine.Simulator.run``).  :meth:`callees`
    returns both the project-internal edges and the canonical names of
    external calls; :meth:`reachable` closes over internal edges only.
    """

    def __init__(self, modules: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        for summary in modules:
            self.modules[summary.module] = summary
        #: qualified function name -> (owning summary, function summary)
        self.functions: dict[str, tuple[ModuleSummary, FunctionSummary]] = {}
        for summary in self.modules.values():
            for qualname, fn in summary.functions.items():
                self.functions[f"{summary.module}.{qualname}"] = (summary, fn)
        self._internal: dict[str, frozenset[str]] = {}
        self._external: dict[str, tuple[tuple[str, CallSite], ...]] = {}
        self._resolve_all()

    # -- resolution ----------------------------------------------------

    def _project_target(self, canonical: str) -> str | None:
        """Map a canonical dotted path onto a project function, if any."""
        if canonical in self.functions:
            return canonical
        # A class constructor call: Module.Class -> Module.Class.__init__.
        init = f"{canonical}.__init__"
        if init in self.functions:
            return init
        return None

    def _resolve_call(
        self, summary: ModuleSummary, fn: FunctionSummary, call: CallSite
    ) -> tuple[str | None, str | None]:
        """(internal qualified name, canonical external name) for a call.

        Exactly one side is non-None for resolvable calls; both are
        None when the receiver is dynamic (a parameter, a loop
        variable) and no static attribution is possible.
        """
        parts = call.target.split(".")
        root = parts[0]
        if root in ("self", "cls"):
            owner = fn.qualname.rsplit(".", 2)
            # A method's qualname is Class.method (or Outer.Class.method);
            # self.x() resolves against the owning class when it has x.
            if len(parts) == 2 and len(owner) >= 2:
                cls_qual = fn.qualname.rsplit(".", 1)[0]
                cls = summary.classes.get(cls_qual)
                if cls is not None and parts[1] in cls.methods:
                    return f"{summary.module}.{cls_qual}.{parts[1]}", None
            return None, None
        if root in summary.imports:
            canonical = ".".join([summary.imports[root], *parts[1:]])
            internal = self._project_target(canonical)
            if internal is not None:
                return internal, None
            return None, canonical
        local = f"{summary.module}.{call.target}"
        internal = self._project_target(local)
        if internal is not None:
            return internal, None
        if len(parts) == 1 and root not in summary.shadowed_builtins:
            # A bare call to an unshadowed name: a builtin (hash, len).
            return None, root
        return None, None

    def _resolve_all(self) -> None:
        for qualified, (summary, fn) in self.functions.items():
            internal: set[str] = set()
            external: list[tuple[str, CallSite]] = []
            for call in fn.calls:
                target, canonical = self._resolve_call(summary, fn, call)
                if target is not None:
                    internal.add(target)
                elif canonical is not None:
                    external.append((canonical, call))
            self._internal[qualified] = frozenset(internal)
            self._external[qualified] = tuple(external)

    # -- queries -------------------------------------------------------

    def find_module(self, suffix: str) -> ModuleSummary | None:
        """The unique module whose dotted name ends with ``suffix``."""
        hits = [
            summary for name, summary in self.modules.items()
            if name == suffix or name.endswith("." + suffix)
        ]
        return hits[0] if len(hits) == 1 else None

    def module_functions(self, summary: ModuleSummary) -> list[str]:
        """Qualified names of every function defined in ``summary``."""
        return [f"{summary.module}.{q}" for q in summary.functions]

    def callees(self, qualified: str) -> frozenset[str]:
        """Project-internal callees of one function."""
        return self._internal.get(qualified, frozenset())

    def external_calls(
        self, qualified: str
    ) -> tuple[tuple[str, CallSite], ...]:
        """(canonical name, call site) pairs for external calls."""
        return self._external.get(qualified, ())

    def reachable(
        self, roots: Iterable[str], barrier: Iterable[str] = ()
    ) -> set[str]:
        """Functions reachable from ``roots`` over internal edges
        (roots included, unknown roots ignored).  Functions defined in
        a module named in ``barrier`` are neither entered nor
        returned."""
        fenced = frozenset(barrier)
        seen: set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen or self.functions[current][0].module in fenced:
                continue
            seen.add(current)
            stack.extend(self.callees(current) - seen)
        return seen

    def call_chain(self, start: str, end: str) -> list[str] | None:
        """Shortest internal-edge path ``start -> ... -> end`` (BFS),
        or None when ``end`` is unreachable."""
        if start not in self.functions:
            return None
        if start == end:
            return [start]
        parents: dict[str, str] = {}
        queue = [start]
        seen = {start}
        while queue:
            nxt: list[str] = []
            for current in queue:
                for callee in sorted(self.callees(current)):
                    if callee in seen:
                        continue
                    parents[callee] = current
                    if callee == end:
                        chain = [end]
                        while chain[-1] != start:
                            chain.append(parents[chain[-1]])
                        return list(reversed(chain))
                    seen.add(callee)
                    nxt.append(callee)
            queue = nxt
        return None

    def read_closure(
        self, summary: ModuleSummary, barrier: Iterable[str] = ()
    ) -> frozenset[str]:
        """Attribute names read by a module's functions *and* every
        project function reachable from them -- the "what does this
        engine consume, including through helpers" question.  Calls
        into ``barrier`` modules are not followed (see
        :meth:`reachable`)."""
        roots = self.module_functions(summary)
        reads: set[str] = set(summary.module_attr_reads)
        for qualified in self.reachable(roots, barrier):
            _, fn = self.functions[qualified]
            reads.update(fn.attr_reads)
        return frozenset(reads)

    def iter_functions(
        self,
    ) -> Iterator[tuple[str, ModuleSummary, FunctionSummary]]:
        """(qualified name, module, function) over the whole project."""
        for qualified, (summary, fn) in self.functions.items():
            yield qualified, summary, fn


def build_project(summaries: Iterable[ModuleSummary]) -> ProjectGraph:
    """Convenience constructor mirroring the dataclass-style API."""
    return ProjectGraph(summaries)
