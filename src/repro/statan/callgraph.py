"""Project index and call graph for whole-program statan passes.

The per-file rules in :mod:`repro.statan.rules` see one tree at a time;
the interprocedural passes in :mod:`repro.statan.program` need to know
*who calls whom* across the package.  This module builds that picture
once per run:

:class:`ModuleInfo`
    One parsed file: dotted module name, import map (local alias ->
    dotted target), module-level integer/float/string constants (used
    to resolve seeds like ``DEFAULT_BUILD_SEED``), and its classes.

:class:`FunctionInfo`
    One function or method, addressed by a qualified name
    ``pkg.mod::Class.method`` / ``pkg.mod::func``.

:class:`CallGraph`
    Edges between qualified names, built with deliberately simple
    resolution: bare names resolve through module scope and imports,
    ``self.x()``/``cls.x()`` through the enclosing class and its
    project-local bases, and ``self.attr.x()`` (or ``x()`` on a local
    bound to ``self.attr``) through the project classes ``self.attr``
    is constructed from.  Any other ``obj.x()`` resolves by method name
    against every project class that defines ``x`` (a conservative
    union — for the passes built on top, a spurious edge means at worst
    a spurious *suppressable* finding, while a missing edge is a silent
    false negative).

Nothing here executes project code; it is all :mod:`ast`.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.statan.rules import _dotted

__all__ = [
    "ModuleInfo", "ClassInfo", "FunctionInfo", "CallSite", "CallGraph",
    "build_modules", "module_name_for_path",
]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a file path.

    ``src/repro/sim/core.py`` -> ``repro.sim.core``; the leading
    directories before the last ``src`` segment (or the whole prefix
    when there is none) are dropped, and ``__init__.py`` maps to its
    package.
    """
    parts = path.replace("\\", "/").split("/")
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part) or "<module>"


@dataclass
class ClassInfo:
    """One class definition: bases by name, methods by name."""

    name: str
    module: str
    bases: tuple[str, ...]
    methods: dict[str, "FunctionInfo"] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One function/method and where it lives."""

    qname: str
    name: str
    module: str
    path: str
    node: ast.AST
    cls: Optional[str] = None

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass
class ModuleInfo:
    """One parsed source file plus its resolved local namespace."""

    path: str
    name: str
    tree: ast.AST
    source: str
    #: local alias -> dotted target ("np" -> "numpy",
    #: "build_system" -> "repro.cluster.topology.build_system").
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level UPPER_CASE int/float/str constants, resolved.
    constants: dict[str, object] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def _collect_imports(tree: ast.AST) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".", 1)[0]] = \
                    alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                imports[alias.asname or alias.name] = \
                    "{}.{}".format(node.module, alias.name)
    return imports


def _collect_constants(tree: ast.AST) -> dict[str, object]:
    constants: dict[str, object] = {}
    for stmt in getattr(tree, "body", []):
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, (int, float, str))):
            constants[stmt.targets[0].id] = stmt.value.value
    return constants


def build_modules(
        files: Sequence[tuple[str, str, ast.AST]]) -> dict[str, ModuleInfo]:
    """Index ``(path, source, tree)`` triples into :class:`ModuleInfo`."""
    modules: dict[str, ModuleInfo] = {}
    for path, source, tree in files:
        name = module_name_for_path(path)
        info = ModuleInfo(path=path, name=name, tree=tree, source=source,
                          imports=_collect_imports(tree),
                          constants=_collect_constants(tree))
        for stmt in getattr(tree, "body", []):
            if isinstance(stmt, _FUNCTIONS):
                qname = "{}::{}".format(name, stmt.name)
                info.functions[stmt.name] = FunctionInfo(
                    qname=qname, name=stmt.name, module=name, path=path,
                    node=stmt)
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(
                    name=stmt.name, module=name,
                    bases=tuple((_dotted(base) or "").rsplit(".", 1)[-1]
                                for base in stmt.bases))
                for sub in stmt.body:
                    if isinstance(sub, _FUNCTIONS):
                        qname = "{}::{}.{}".format(name, stmt.name, sub.name)
                        cls.methods[sub.name] = FunctionInfo(
                            qname=qname, name=sub.name, module=name,
                            path=path, node=sub, cls=stmt.name)
                info.classes[stmt.name] = cls
        modules[path] = info
    return modules


@dataclass
class CallSite:
    """One resolved call edge with its source location."""

    caller: str
    callee: str
    node: ast.Call


class CallGraph:
    """Callers/callees over the indexed functions."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        #: every FunctionInfo by qualified name.
        self.functions: dict[str, FunctionInfo] = {}
        #: class name -> every ClassInfo with that name (project-wide).
        self._classes_by_name: dict[str, list[ClassInfo]] = {}
        #: method name -> FunctionInfos across every project class.
        self._methods_by_name: dict[str, list[FunctionInfo]] = {}
        #: dotted module name -> ModuleInfo.
        self._by_module_name: dict[str, ModuleInfo] = {}
        for module in modules.values():
            self._by_module_name[module.name] = module
            for fn in module.functions.values():
                self.functions[fn.qname] = fn
            for cls in module.classes.values():
                self._classes_by_name.setdefault(cls.name, []).append(cls)
                for fn in cls.methods.values():
                    self.functions[fn.qname] = fn
                    self._methods_by_name.setdefault(
                        fn.name, []).append(fn)
        #: "module::Class" -> {attr: classes it is built from, or None}.
        self._attr_types: dict[str, dict[str, Optional[list[ClassInfo]]]] \
            = {}
        #: function node -> {local: the ``self`` attribute it aliases}.
        self._self_aliases: dict[ast.AST, dict[str, str]] = {}
        self.edges: dict[str, set[str]] = {}
        self.redges: dict[str, set[str]] = {}
        self.sites: list[CallSite] = []
        self._build_edges()

    # -- construction ------------------------------------------------------

    def _build_edges(self) -> None:
        for module in self.modules.values():
            for fn in list(module.functions.values()):
                self._scan_function(module, fn)
            for cls in module.classes.values():
                for fn in cls.methods.values():
                    self._scan_function(module, fn, cls)

    def _scan_function(self, module: ModuleInfo, fn: FunctionInfo,
                       cls: Optional[ClassInfo] = None) -> None:
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in self.resolve_call(node, module, cls, fn.node):
                self.edges.setdefault(fn.qname, set()).add(callee.qname)
                self.redges.setdefault(callee.qname, set()).add(fn.qname)
                self.sites.append(CallSite(fn.qname, callee.qname, node))

    def resolve_call(self, node: ast.Call, module: ModuleInfo,
                     cls: Optional[ClassInfo] = None,
                     scope: Optional[ast.AST] = None
                     ) -> list[FunctionInfo]:
        """Project-local targets a call may reach (possibly several).

        ``scope`` is the function the call sits in; it lets a local
        bound to ``self.attr`` resolve like ``self.attr`` itself.
        """
        func = node.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, module)
        if isinstance(func, ast.Attribute):
            receiver = _dotted(func.value)
            if receiver in ("self", "cls") and cls is not None:
                target = self._resolve_method(cls, func.attr)
                if target is not None:
                    return [target]
                return []
            types = self._receiver_types(func.value, cls, scope)
            if types is not None:
                targets = (self._resolve_method(klass, func.attr)
                           for klass in types)
                return [target for target in targets if target is not None]
            if receiver is not None:
                # module-qualified: ``topology.build_system(...)``.
                dotted = module.imports.get(receiver.split(".", 1)[0])
                if dotted is not None:
                    owner = self._module_by_suffix(dotted)
                    if owner is not None:
                        target = owner.functions.get(func.attr)
                        if target is not None:
                            return [target]
                        klass = owner.classes.get(func.attr)
                        if klass is not None:
                            init = klass.methods.get("__init__")
                            return [init] if init is not None else []
            # ``obj.method(...)``: union over same-named project methods.
            return list(self._methods_by_name.get(func.attr, []))
        return []

    def _receiver_types(self, receiver: ast.AST, cls: Optional[ClassInfo],
                        scope: Optional[ast.AST]
                        ) -> Optional[list[ClassInfo]]:
        """Project classes ``receiver`` is an instance of, when known.

        Known only for ``self.attr`` and for a local bound to
        ``self.attr`` inside a method; ``None`` means "no type known".
        """
        if cls is None:
            return None
        if isinstance(receiver, ast.Name) and scope is not None:
            attr = self._aliases_in(scope).get(receiver.id)
        elif isinstance(receiver, ast.Attribute) \
                and isinstance(receiver.value, ast.Name) \
                and receiver.value.id == "self":
            attr = receiver.attr
        else:
            return None
        if attr is None:
            return None
        return self._attribute_types(cls).get(attr)

    def _aliases_in(self, scope: ast.AST) -> dict[str, str]:
        """Locals of ``scope`` whose every binding is ``x = self.attr``."""
        aliases = self._self_aliases.get(scope)
        if aliases is not None:
            return aliases
        args = getattr(scope, "args", None)
        params = {arg.arg for arg in ast.walk(args)
                  if isinstance(arg, ast.arg)} if args is not None else set()
        bound: dict[str, Optional[str]] = {}
        simple: set[int] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = node.value
                name = node.targets[0].id
                if isinstance(value, ast.Attribute) \
                        and isinstance(value.value, ast.Name) \
                        and value.value.id == "self" \
                        and bound.get(name, value.attr) == value.attr:
                    bound[name] = value.attr
                    simple.add(id(node.targets[0]))
        for node in ast.walk(scope):
            # Any other binding of the name (a second target, a loop
            # variable, ``with ... as``, a walrus) makes it unknown.
            if isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Store) \
                    and id(node) not in simple:
                bound[node.id] = None
        aliases = {name: attr for name, attr in bound.items()
                   if attr is not None and name not in params}
        self._self_aliases[scope] = aliases
        return aliases

    def _attribute_types(self, cls: ClassInfo
                         ) -> dict[str, Optional[list[ClassInfo]]]:
        """``self.attr`` -> the project classes it is constructed from.

        Every ``self.attr = ...`` in ``cls`` and in its project
        subclasses counts; an attribute maps to ``None`` (unknown) as
        soon as one of them is anything but a call of a project class.
        """
        key = "{}::{}".format(cls.module, cls.name)
        types = self._attr_types.get(key)
        if types is not None:
            return types
        types = {}
        for owner, klass in self._lineage(cls):
            for method in klass.methods.values():
                for node in ast.walk(method.node):
                    if isinstance(node, (ast.Assign, ast.AnnAssign,
                                         ast.AugAssign)):
                        targets = getattr(node, "targets", None) \
                            or [node.target]
                        for target in targets:
                            self._record_attr_type(
                                types, target, node, owner)
        self._attr_types[key] = types
        return types

    def _record_attr_type(self, types: dict[str, Optional[list[ClassInfo]]],
                          target: ast.AST, node: ast.AST,
                          owner: ModuleInfo) -> None:
        for sub in ast.walk(target):
            if not (isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"):
                continue
            built = None
            if sub is target and isinstance(node.value, ast.Call) \
                    and not isinstance(node, ast.AugAssign):
                built = self._class_called(node.value.func, owner)
            known = types.setdefault(sub.attr, [])
            if built is None or known is None:
                types[sub.attr] = None
            elif not any(klass is built for klass in known):
                known.append(built)

    def _class_called(self, func: ast.AST,
                      module: ModuleInfo) -> Optional[ClassInfo]:
        """The project class a constructor call's ``func`` names."""
        if isinstance(func, ast.Name):
            local = module.classes.get(func.id)
            if local is not None:
                return local
            dotted = module.imports.get(func.id)
        else:
            dotted = _dotted(func)
            if dotted is not None and "." in dotted:
                head, rest = dotted.split(".", 1)
                dotted = "{}.{}".format(module.imports.get(head, head), rest)
        if dotted is None or "." not in dotted:
            return None
        owner_name, leaf = dotted.rsplit(".", 1)
        owner = self._module_by_suffix(owner_name)
        return owner.classes.get(leaf) if owner is not None else None

    def _lineage(self, cls: ClassInfo) -> list[tuple[ModuleInfo, ClassInfo]]:
        """``cls`` and every project class that inherits from it."""
        return [(owner, klass) for owner in self.modules.values()
                for klass in owner.classes.values()
                if klass is cls
                or any(base is cls for base in self._ancestors(klass))]

    def _ancestors(self, cls: ClassInfo) -> list[ClassInfo]:
        """Project base classes of ``cls``, transitively (by base name),
        in breadth-first order."""
        seen: dict[int, ClassInfo] = {}
        queue: deque[str] = deque(cls.bases)
        while queue:
            for base in self._classes_by_name.get(queue.popleft(), []):
                if id(base) not in seen:
                    seen[id(base)] = base
                    queue.extend(base.bases)
        return list(seen.values())

    def _resolve_name(self, name: str,
                      module: ModuleInfo) -> list[FunctionInfo]:
        fn = module.functions.get(name)
        if fn is not None:
            return [fn]
        cls = module.classes.get(name)
        if cls is not None:
            init = cls.methods.get("__init__")
            return [init] if init is not None else []
        dotted = module.imports.get(name)
        if dotted is not None and "." in dotted:
            owner_name, leaf = dotted.rsplit(".", 1)
            owner = self._module_by_suffix(owner_name)
            if owner is not None:
                fn = owner.functions.get(leaf)
                if fn is not None:
                    return [fn]
                cls = owner.classes.get(leaf)
                if cls is not None:
                    init = cls.methods.get("__init__")
                    return [init] if init is not None else []
        # A class imported under its own name and called bare:
        for cls in self._classes_by_name.get(name, []):
            init = cls.methods.get("__init__")
            if init is not None:
                return [init]
        return []

    def _resolve_method(self, cls: ClassInfo,
                        name: str) -> Optional[FunctionInfo]:
        for current in [cls] + self._ancestors(cls):
            fn = current.methods.get(name)
            if fn is not None:
                return fn
        return None

    def _module_by_suffix(self, dotted: str) -> Optional[ModuleInfo]:
        module = self._by_module_name.get(dotted)
        if module is not None:
            return module
        for name, info in self._by_module_name.items():
            if name.endswith("." + dotted) or name == dotted:
                return info
        return None

    # -- queries -----------------------------------------------------------

    def callers_of(self, qname: str) -> set[str]:
        return self.redges.get(qname, set())

    def callees_of(self, qname: str) -> set[str]:
        return self.edges.get(qname, set())

    def reachable_from(self, roots: Iterable[str]) -> dict[str, str]:
        """BFS over call edges; returns ``{reached: parent}`` links."""
        parents: dict[str, str] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root not in parents:
                parents[root] = ""
                queue.append(root)
        while queue:
            current = queue.popleft()
            for callee in self.edges.get(current, ()):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return parents

    def chain(self, parents: dict[str, str], qname: str) -> list[str]:
        """Root-to-``qname`` path through the BFS ``parents`` links."""
        out = [qname]
        while parents.get(out[-1]):
            out.append(parents[out[-1]])
        return list(reversed(out))
