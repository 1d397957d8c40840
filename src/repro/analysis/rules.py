"""Project invariant rules RPR001–RPR006.

Each rule encodes an invariant this codebase has already paid for once:

* **RPR001** — builtin ``hash()`` is salted per process (PYTHONHASHSEED),
  so it must never key anything persisted or shared across processes.
  The registry's model seeds (PR 2) and the prefix pool's entry keys
  (PR 8) both shipped that bug; ``stable_prefix_key`` / ``zlib.crc32``
  are the sanctioned replacements.
* **RPR002** — attributes annotated ``# guarded-by: self._lock`` may only
  be touched inside ``with self._lock:`` (or a ``threading.Condition``
  built on it).  ``__init__`` is exempt (the object is not yet shared);
  a ``guarded-by`` annotation on a ``def`` line marks a caller-holds-lock
  helper.
* **RPR003** — no mutable module-global state in thread-shared modules
  (modules importing ``threading``) unless ``threading.local()`` or
  annotated ``# guarded-by: <LOCK>`` — in which case every function-level
  access must hold that lock.
* **RPR004** — serving constructors taking ``config=`` must route engine
  tunables through :class:`~repro.serving.config.EngineConfig` instead of
  growing fresh bare keyword arguments or a ``**kwargs`` catch-all.
* **RPR005** — functions annotated ``# table-edit`` are bookkeeping-only
  paths (paged-KV admission/retirement/rollback); array copies
  (``np.concatenate``, ``.copy()``, …) inside them silently re-introduce
  the O(rows x width) costs the block tables exist to avoid.
* **RPR006** — no blocking or thread-waking call while holding a lock that
  guards ``# guarded-by`` state: every other thread that needs the state
  waits out the sleep, the future, the socket, or the self-pipe write and
  loop wakeup of ``call_soon_threadsafe``.  ``Condition.wait`` on the held
  condition releases the lock and is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import (
    Finding,
    LockWalk,
    Rule,
    SourceFile,
    condition_aliases,
)

__all__ = ["DEFAULT_RULES", "all_rules"]


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


class NoBuiltinHash(Rule):
    id = "RPR001"
    title = "builtin hash() is process-salted; use stable_prefix_key/crc32"

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                qual = src.qualname_of(node)
                snippet = ast.unparse(node)[:60]
                found = self.finding(
                    src,
                    node,
                    "builtin hash() is salted per process (PYTHONHASHSEED); "
                    "keys that persist or cross process boundaries must use "
                    "repro.serving.pool.stable_prefix_key or zlib.crc32 "
                    f"(in {qual})",
                    key=f"{qual}:{snippet}",
                )
                if found:
                    yield found


class LockDiscipline(Rule):
    id = "RPR002"
    title = "guarded-by attributes may only be touched under their lock"

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for cls in ast.walk(src.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            guarded = self._guarded_attrs(src, cls)
            if not guarded:
                continue
            walker = LockWalk(aliases=condition_aliases(cls))
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name == "__init__":
                    # Construction happens before the object is shared.
                    continue
                yield from self._check_method(src, cls, method, guarded, walker)

    @staticmethod
    def _guarded_attrs(src: SourceFile, cls: ast.ClassDef) -> dict[str, str]:
        """attr name -> lock expression, from annotated self-assignments."""
        guarded: dict[str, str] = {}
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                guard = src.guard_at(node)
                if guard is None:
                    continue
                for target in targets:
                    if _is_self_attr(target):
                        guarded[target.attr] = guard
        return guarded

    def _check_method(
        self,
        src: SourceFile,
        cls: ast.ClassDef,
        method: ast.FunctionDef,
        guarded: dict[str, str],
        walker: LockWalk,
    ) -> Iterator[Finding]:
        findings: list[Finding] = []
        initial = src.guard_at(method)
        held0 = frozenset() if initial is None else frozenset({initial})

        def visit(node: ast.AST, held: frozenset[str]) -> None:
            if not _is_self_attr(node) or node.attr not in guarded:
                return
            required = guarded[node.attr]
            if required in held:
                return
            found = self.finding(
                src,
                node,
                f"self.{node.attr} is declared '# guarded-by: {required}' but "
                f"{cls.name}.{method.name} touches it without holding "
                f"{required} (wrap in 'with {required}:' or annotate the def "
                f"as caller-holds-lock)",
                key=f"{cls.name}.{method.name}:{node.attr}",
            )
            if found:
                findings.append(found)

        for stmt in method.body:
            walker._walk_one(stmt, held0, visit)
        # One finding per (method, attribute): repeated touches in the same
        # method are the same logical violation.
        seen: set[str] = set()
        for finding in findings:
            if finding.key not in seen:
                seen.add(finding.key)
                yield finding


#: Call targets that build mutable containers.
_MUTABLE_FACTORIES = {
    "dict",
    "list",
    "set",
    "bytearray",
    "OrderedDict",
    "defaultdict",
    "deque",
    "Counter",
    "WeakKeyDictionary",
    "WeakValueDictionary",
    "WeakSet",
}

#: Call targets that are synchronization primitives or thread-local state —
#: the sanctioned kinds of module-global object in a thread-shared module.
_SYNC_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Event",
    "Barrier",
    "local",
    "allocate_lock",
    "maybe_watch_lock",
}


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class NoBareModuleGlobals(Rule):
    id = "RPR003"
    title = "mutable module-globals in thread-shared modules need a lock"

    def check(self, src: SourceFile) -> Iterator[Finding]:
        if not src.imports_module("threading"):
            return
        guarded: dict[str, str] = {}
        for stmt in src.tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if not names or names == ["__all__"]:
                    continue
                guard = src.guard_at(stmt)
                if guard is not None:
                    for name in names:
                        guarded[name] = guard
                    continue
                if stmt.value is not None and self._is_mutable(stmt.value):
                    for name in names:
                        found = self.finding(
                            src,
                            stmt,
                            f"module-global {name!r} is mutable and the module "
                            "is thread-shared (imports threading); make it "
                            "threading.local(), annotate it '# guarded-by: "
                            "<MODULE_LOCK>', or move it into an instance",
                            key=name,
                        )
                        if found:
                            yield found
        yield from self._check_guarded_use(src, guarded)

    @staticmethod
    def _is_mutable(value: ast.AST) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            name = _call_name(value)
            if name in _SYNC_FACTORIES:
                return False
            return name in _MUTABLE_FACTORIES
        return False

    def _check_guarded_use(
        self, src: SourceFile, guarded: dict[str, str]
    ) -> Iterator[Finding]:
        """Annotated globals: every function-level access must hold the lock."""
        if not guarded:
            return
        walker = LockWalk()
        for func in ast.walk(src.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            findings: list[Finding] = []
            initial = src.guard_at(func)
            held0 = frozenset() if initial is None else frozenset({initial})
            qual = src.qualname_of(func)

            def visit(node: ast.AST, held: frozenset[str]) -> None:
                if not isinstance(node, ast.Name) or node.id not in guarded:
                    return
                required = guarded[node.id]
                if required in held:
                    return
                found = self.finding(
                    src,
                    node,
                    f"module-global {node.id!r} is declared '# guarded-by: "
                    f"{required}' but {qual} touches it without holding it",
                    key=f"{node.id}:{qual}",
                )
                if found:
                    findings.append(found)

            for stmt in func.body:
                walker._walk_one(stmt, held0, visit)
            seen: set[str] = set()
            for finding in findings:
                if finding.key not in seen:
                    seen.add(finding.key)
                    yield finding


#: Constructor parameters that carry live resources or wiring rather than
#: engine tunables — the only bare keywords a config-accepting serving
#: constructor may declare.  Anything else routes through EngineConfig.
_INFRA_PARAMS = {"config", "cache_pool", "clock", "rng", "on_step"}


class ConfigRouting(Rule):
    id = "RPR004"
    title = "serving constructors route options through EngineConfig"

    def check(self, src: SourceFile) -> Iterator[Finding]:
        if not src.mentions("EngineConfig"):
            return
        for cls in ast.walk(src.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            init = next(
                (
                    node
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef) and node.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            args = init.args
            all_args = args.posonlyargs + args.args
            names = {a.arg for a in all_args} | {a.arg for a in args.kwonlyargs}
            if "config" not in names:
                continue
            # Positional params without defaults are structural (model,
            # builder, num_workers); everything defaulted or keyword-only
            # is an option and belongs in EngineConfig.
            defaulted = all_args[len(all_args) - len(args.defaults) :]
            for arg in list(defaulted) + list(args.kwonlyargs):
                if arg.arg in _INFRA_PARAMS or arg.arg == "self":
                    continue
                found = self.finding(
                    src,
                    arg,
                    f"{cls.name}.__init__ declares bare keyword option "
                    f"{arg.arg!r}; engine options must be EngineConfig fields "
                    "passed via config= (structural wiring can be allowed "
                    "inline or baselined with a justification)",
                    key=f"{cls.name}:{arg.arg}",
                )
                if found:
                    yield found
            # A catch-all is a side channel for any option at all.
            if args.kwarg is not None:
                found = self.finding(
                    src,
                    args.kwarg,
                    f"{cls.name}.__init__ takes a **{args.kwarg.arg} catch-all "
                    "beside config=; engine options must be EngineConfig "
                    "fields, not untyped keyword arguments",
                    key=f"{cls.name}:**{args.kwarg.arg}",
                )
                if found:
                    yield found


#: numpy functions that materialise copies of array data.
_NUMPY_COPY_FNS = {
    "concatenate",
    "stack",
    "vstack",
    "hstack",
    "dstack",
    "append",
    "tile",
    "repeat",
    "copy",
    "ascontiguousarray",
}


class TableEditNoCopy(Rule):
    id = "RPR005"
    title = "# table-edit functions must not copy array data"

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for func in ast.walk(src.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not src.is_table_edit(func):
                continue
            qual = src.qualname_of(func)
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                reason = self._copy_call(node)
                if reason is None:
                    continue
                found = self.finding(
                    src,
                    node,
                    f"{qual} is marked '# table-edit' (bookkeeping-only) but "
                    f"calls {reason}; table edits must move references, not "
                    "array bytes",
                    key=f"{qual}:{reason}",
                )
                if found:
                    yield found

    @staticmethod
    def _copy_call(node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"):
                if func.attr in _NUMPY_COPY_FNS:
                    return f"np.{func.attr}()"
                return None
            if func.attr == "copy":
                return f"{ast.unparse(func.value)}.copy()"
        elif isinstance(func, ast.Name) and func.id in ("deepcopy",):
            return f"{func.id}()"
        return None


#: Method names that block the calling thread or wake another one, with
#: what each does.  ``wait`` and ``join`` are refined in ``_blocking_call``.
_BLOCKING_METHODS = {
    "call_soon_threadsafe": "wakes another thread's event loop",
    "result": "blocks on a future",
    "send": "blocks on a socket or pipe",
    "sendall": "blocks on a socket",
    "sendto": "blocks on a socket",
    "send_bytes": "blocks on a pipe",
    "recv": "blocks on a socket or pipe",
    "recv_into": "blocks on a socket",
    "recvfrom": "blocks on a socket",
    "recv_bytes": "blocks on a pipe",
}


class NoBlockingUnderLock(Rule):
    id = "RPR006"
    title = "no blocking or thread-waking call under a guarded-by lock"

    def check(self, src: SourceFile) -> Iterator[Finding]:
        guard_locks = set(src.guards.values())
        if not guard_locks:
            return
        # Module functions and methods; the walk covers nested functions
        # (with no lock held, as they run later).
        for scope in ast.walk(src.tree):
            if not isinstance(scope, (ast.Module, ast.ClassDef)):
                continue
            aliases = condition_aliases(scope) if isinstance(scope, ast.ClassDef) else {}
            walker = LockWalk(aliases=aliases)
            for func in scope.body:
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(src, func, guard_locks, walker)

    def _check_function(
        self,
        src: SourceFile,
        func: ast.FunctionDef,
        guard_locks: set[str],
        walker: LockWalk,
    ) -> Iterator[Finding]:
        findings: list[Finding] = []
        initial = src.guard_at(func)
        held0 = frozenset() if initial is None else frozenset({initial})
        qual = src.qualname_of(func)

        def visit(node: ast.AST, held: frozenset[str]) -> None:
            locks = held & guard_locks
            if not locks or not isinstance(node, ast.Call):
                return
            what = self._blocking_call(node, held)
            if what is None:
                return
            lock = sorted(locks)[0]
            found = self.finding(
                src,
                node,
                f"{qual} calls {ast.unparse(node.func)}() while holding {lock}, "
                f"which guards '# guarded-by' state; the call {what}, so every "
                "thread waiting for the lock waits on it too (collect under the "
                "lock, call after releasing it)",
                key=f"{qual}:{ast.unparse(node)[:60]}",
            )
            if found:
                findings.append(found)

        for stmt in func.body:
            walker._walk_one(stmt, held0, visit)
        seen: set[str] = set()
        for finding in findings:
            if finding.key not in seen:
                seen.add(finding.key)
                yield finding

    @staticmethod
    def _blocking_call(node: ast.Call, held: frozenset[str]) -> str | None:
        """What a blocking call does, or None for a call that does not block."""
        func = node.func
        if isinstance(func, ast.Name):
            return "sleeps" if func.id == "sleep" else None
        if not isinstance(func, ast.Attribute):
            return None
        name = func.attr
        if name == "sleep":
            return "sleeps"
        if name == "wait":
            # Condition.wait on the held condition releases the lock.
            return None if ast.unparse(func.value) in held else "waits on an event"
        if name == "join":
            # Thread.join takes no argument or a timeout; str.join an iterable.
            timeout_only = not node.args or (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, (int, float))
            )
            if any(k.arg == "timeout" for k in node.keywords) or timeout_only:
                return "waits for a thread or process"
            return None
        return _BLOCKING_METHODS.get(name)


def all_rules() -> list[Rule]:
    """Fresh instances of every project rule, in id order."""
    return [
        NoBuiltinHash(),
        LockDiscipline(),
        NoBareModuleGlobals(),
        ConfigRouting(),
        TableEditNoCopy(),
        NoBlockingUnderLock(),
    ]


DEFAULT_RULES = all_rules()
