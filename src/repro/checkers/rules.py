"""Simulator-specific lint rules RPR001-RPR005.

Every rule here guards an invariant the simulator's correctness
arguments lean on:

* **RPR001** — reproducibility requires deterministic iteration
  everywhere results are produced; iterating an unordered ``set`` (or a
  set-algebra expression over ``dict.keys()`` views) is the classic
  silent divergence between two runs of "the same" simulation.
* **RPR002** — all randomness must flow through the seeded per-PM
  ``random.Random`` instances; module-level RNG or wall-clock reads
  make results depend on process state.
* **RPR003** — the kernel's propose/resolve/commit/update contract
  only holds when engine-owned state (buffers, engine counters,
  metrics) is mutated from a component's declared phase hooks.
* **RPR004** — cycle/flit counters are integers; accumulating floats
  into them rounds differently across platforms and run lengths.
* **RPR005** — emitted JSON is compared byte-for-byte (the scheduler
  equivalence gate, the result cache, golden files); serializing a
  dict-derived payload without ``sort_keys=True`` leaks dict insertion
  order into those bytes.

Rules are conservative by construction: they use lightweight, local
type inference (set literals, ``set()`` calls, annotated attributes,
aliases of those) rather than whole-program analysis, and anything they
cannot prove unordered is left alone.  Deliberate exceptions carry a
``# repro: noqa[CODE]`` with the code named.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .lint import Finding, ModuleContext, rule

# ----------------------------------------------------------------------
# RPR001 — no iteration over unordered sets
# ----------------------------------------------------------------------

#: Wrappers that impose an order (or consume the iterable orderlessly
#: enough): iterating through these is fine.
_ORDERING_WRAPPERS = {"sorted", "len", "min", "max", "any", "all", "frozenset", "set"}

#: Iteration-forcing calls that preserve the (undefined) set order.
_ORDER_PRESERVING_CALLS = {"list", "tuple", "enumerate", "iter"}


def _is_keys_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
    )


class _SetTypes:
    """Names and attributes known (locally) to hold sets."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.attributes: set[str] = set()

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # Set algebra: a union/intersection/difference is a set if
            # either side is a set or a dict-keys view.
            return (
                self.is_set_expr(node.left)
                or self.is_set_expr(node.right)
                or _is_keys_call(node.left)
                or _is_keys_call(node.right)
            )
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "self":
                return node.attr in self.attributes
        return False

    @staticmethod
    def _annotation_is_set(annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Name):
            return annotation.id in ("set", "frozenset")
        if isinstance(annotation, ast.Subscript):
            return _SetTypes._annotation_is_set(annotation.value)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            text = annotation.value.strip()
            return text.startswith(("set[", "frozenset[", "set ", "frozenset "))
        return False

    def learn(self, node: ast.AST) -> None:
        """Record set-typed names/attributes from one statement."""
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if self.is_set_expr(node.value):
                self._record(target)
        elif isinstance(node, ast.AnnAssign):
            if self._annotation_is_set(node.annotation) or (
                node.value is not None and self.is_set_expr(node.value)
            ):
                self._record(node.target)

    def _record(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            if target.value.id == "self":
                self.attributes.add(target.attr)


@rule(
    "RPR001",
    "unordered-set-iteration",
    "no iteration over unordered set/dict.keys()-algebra contents in "
    "determinism-relevant packages; wrap in sorted() or use an "
    "insertion-ordered structure",
    scope=("core", "ring", "mesh", "workload"),
)
def check_set_iteration(context: ModuleContext) -> Iterator[Finding]:
    types = _SetTypes()
    # Pass 1: learn set-typed names/attributes (module, class and
    # function bodies alike — name-based, deliberately scope-blind).
    for node in ast.walk(context.tree):
        types.learn(node)

    def offending(iterable: ast.AST) -> str | None:
        if types.is_set_expr(iterable):
            return "a set"
        if _is_keys_call(iterable):
            return "dict.keys()"
        return None

    for node in ast.walk(context.tree):
        if isinstance(node, ast.For):
            what = offending(node.iter)
            if what is not None:
                yield context.finding(
                    "RPR001",
                    f"iteration over {what} has no deterministic order; "
                    "sort it or use an insertion-ordered structure",
                    node.iter,
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                what = offending(generator.iter)
                if what is not None:
                    yield context.finding(
                        "RPR001",
                        f"comprehension iterates {what} in no deterministic "
                        "order; sort it or use an insertion-ordered structure",
                        generator.iter,
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _ORDER_PRESERVING_CALLS and node.args:
                what = offending(node.args[0])
                if what is not None:
                    yield context.finding(
                        "RPR001",
                        f"{node.func.id}() over {what} freezes an "
                        "undefined order; use sorted() instead",
                        node,
                    )


# ----------------------------------------------------------------------
# RPR002 — no wall clock, no module-level RNG
# ----------------------------------------------------------------------

_CLOCK_MODULES = ("time", "datetime")

#: numpy.random constructors that take an explicit seed/key: calling
#: them *with* arguments is a deterministic source, like a seeded
#: ``random.Random``; calling ``default_rng()`` bare draws from OS
#: entropy like ``Random()``.
_NUMPY_SEEDED_CTORS = {"default_rng", "Generator", "Philox", "PCG64", "SeedSequence"}


def _root_name(node: ast.AST) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _attr_chain(node: ast.AST) -> "list[str]":
    """Dotted name parts of an attribute chain (``np.random.rand`` ->
    ``["np", "random", "rand"]``); empty when the root is not a name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    parts.append(node.id)
    parts.reverse()
    return parts


@rule(
    "RPR002",
    "nondeterministic-source",
    "no random/time/datetime wall-clock or module-level RNG use outside "
    "the seeded workload RNG wrappers (seeded random.Random(...) and "
    "seeded/keyed numpy.random generator construction are the "
    "sanctioned sources)",
    scope=("core", "ring", "mesh", "workload", "analysis", "runtime"),
)
def check_nondeterministic_sources(context: ModuleContext) -> Iterator[Finding]:
    # Names imported straight off the offending modules
    # (``from time import monotonic``): calling them is equivalent.
    imported: dict[str, str] = {}
    numpy_aliases: set[str] = set()
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module in (
            "random",
            *_CLOCK_MODULES,
        ):
            for alias in node.names:
                if node.module == "random" and alias.name == "Random":
                    continue  # seeded construction is the sanctioned path
                imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            for alias in node.names:
                # Seeded constructors are handled at the call site (an
                # argument-less default_rng() is still a violation).
                imported[alias.asname or alias.name] = f"numpy.random.{alias.name}"

    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            root = _root_name(func)
            chain = _attr_chain(func)
            if (
                len(chain) >= 3
                and chain[0] in numpy_aliases
                and chain[1] == "random"
            ):
                attr = chain[2]
                if attr in _NUMPY_SEEDED_CTORS:
                    if not node.args and not node.keywords:
                        yield context.finding(
                            "RPR002",
                            f"numpy.random.{attr}() without a seed draws "
                            "from OS entropy; pass an explicit seed or key",
                            node,
                        )
                else:
                    yield context.finding(
                        "RPR002",
                        f"module-level numpy RNG call numpy.random.{attr}() "
                        "uses the shared global stream; construct a seeded "
                        "Generator (numpy.random.default_rng(seed) or a "
                        "keyed Philox) instead",
                        node,
                    )
            elif root == "random":
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        yield context.finding(
                            "RPR002",
                            "unseeded random.Random() draws from OS entropy; "
                            "pass an explicit seed",
                            node,
                        )
                else:
                    yield context.finding(
                        "RPR002",
                        f"module-level RNG call random.{func.attr}() uses the "
                        "shared global stream; draw from a seeded "
                        "random.Random instance instead",
                        node,
                    )
            elif root in _CLOCK_MODULES:
                yield context.finding(
                    "RPR002",
                    f"wall-clock read {root}.{func.attr}() makes behaviour "
                    "depend on host time; simulation code must use the "
                    "engine cycle counter",
                    node,
                )
        elif isinstance(func, ast.Name) and func.id in imported:
            origin = imported[func.id]
            if (
                origin.startswith("numpy.random.")
                and origin.rsplit(".", 1)[1] in _NUMPY_SEEDED_CTORS
                and (node.args or node.keywords)
            ):
                continue  # seeded/keyed construction: the sanctioned path
            yield context.finding(
                "RPR002",
                f"call to {origin}() (imported nondeterministic "
                "source); use seeded RNGs / the engine clock",
                node,
            )


# ----------------------------------------------------------------------
# RPR003 — phase discipline for components
# ----------------------------------------------------------------------

#: Base classes marking a class as a clocked component.  Matching is by
#: name: the hierarchy spans modules (core.engine.Component ->
#: ring.port.RingPort -> ring.nic.RingNIC) and the lint is per-file.
_COMPONENT_BASES = {
    "Component",
    "RingPort",
    "RingNIC",
    "MeshRouter",
    "ProcessingModule",
}

#: The declared phase hooks: the engine invokes these (and only these)
#: inside the clock loop, so mutation of engine-owned state is legal in
#: any method reachable from them.  Construction is also a root: wiring
#: happens before the clock starts.  The ``compiled_*_handler`` hooks
#: are finalize-time builders whose returned closures the compiled
#: scheduler invokes *inside* the clock loop — phase hooks by
#: construction (``ast.walk`` descends into the nested closures, so
#: their bodies are still linted under the phase-root allowance).
_PHASE_ROOTS = (
    "propose",
    "update",
    "on_transfer_commit",
    "compiled_propose_handler",
    "compiled_update_handler",
    "compiled_commit_handler",
    "__init__",
    "__post_init__",
)


def _self_calls(function: ast.FunctionDef) -> set[str]:
    """Names of ``self.<method>()`` calls made inside *function*."""
    called: set[str] = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            called.add(node.func.attr)
    return called


def _engine_param_names(function: ast.FunctionDef) -> set[str]:
    """Parameters of *function* that (by name) carry the engine."""
    return {
        arg.arg
        for arg in [*function.args.args, *function.args.kwonlyargs]
        if arg.arg == "engine"
    }


def _attr_chain(node: ast.AST) -> list[str]:
    """``self.metrics.remote_issued`` -> ["self", "metrics", "remote_issued"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


#: FlitBuffer's mutating API — pushes and pops move flits, which only
#: the clock loop may do.
_BUFFER_MUTATORS = ("push", "pop", "push_packet")
_METRICS_MUTATORS = ("record_remote", "record_local", "record", "close_batch")


def _phase_violations(
    context: ModuleContext, function: ast.FunctionDef, class_name: str
) -> Iterator[Finding]:
    engine_names = _engine_param_names(function) | {"_engine"}
    where = f"{class_name}.{function.name}"
    for node in ast.walk(function):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                chain = _attr_chain(target)
                if len(chain) >= 2 and (
                    chain[0] in engine_names
                    or (chain[0] == "self" and chain[1] in engine_names)
                ):
                    yield context.finding(
                        "RPR003",
                        f"{where} assigns engine state "
                        f"{'.'.join(chain)} outside its propose/update/"
                        "on_transfer_commit phase hooks",
                        node,
                    )
                elif "metrics" in chain[:-1]:
                    yield context.finding(
                        "RPR003",
                        f"{where} mutates shared metrics "
                        f"({'.'.join(chain)}) outside its phase hooks",
                        node,
                    )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            chain = _attr_chain(node.func)
            attr = node.func.attr
            if attr in _BUFFER_MUTATORS:
                yield context.finding(
                    "RPR003",
                    f"{where} moves flits ({'.'.join(chain)}()) outside its "
                    "phase hooks; buffers are engine-owned during the run",
                    node,
                )
            elif attr == "propose" and chain and chain[0] in engine_names:
                yield context.finding(
                    "RPR003",
                    f"{where} calls engine.propose() outside the propose phase",
                    node,
                )
            elif attr in _METRICS_MUTATORS and "metrics" in chain[:-1]:
                yield context.finding(
                    "RPR003",
                    f"{where} records metrics ({'.'.join(chain)}()) outside "
                    "its phase hooks",
                    node,
                )


@rule(
    "RPR003",
    "phase-discipline",
    "component classes may not mutate engine-owned state (buffers, "
    "engine counters, metrics) from methods outside their declared "
    "propose/update/on_transfer_commit phase hooks",
    scope=("core", "ring", "mesh"),
)
def check_phase_discipline(context: ModuleContext) -> Iterator[Finding]:
    for node in context.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
        if not bases & _COMPONENT_BASES:
            continue
        methods = {
            item.name: item
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
        # Closure of methods reachable from the phase roots through
        # ``self.<m>()`` calls: those run inside the clock loop (or at
        # construction) and may mutate engine-owned state.
        reachable: set[str] = set()
        frontier = [name for name in _PHASE_ROOTS if name in methods]
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            for callee in _self_calls(methods[name]):
                if callee in methods and callee not in reachable:
                    frontier.append(callee)
        for name, function in methods.items():
            if name in reachable:
                continue
            yield from _phase_violations(context, function, node.name)


# ----------------------------------------------------------------------
# RPR004 — no float accumulation into integer counters
# ----------------------------------------------------------------------

_COUNTER_NAME = re.compile(
    r"(^|_)(cycles?|flits?|count|counts|counter|moved|issued|completed|"
    r"sent|routed|enqueued|dequeued|outstanding|packets?|misses|hops?)($|_)"
)


def _contains_float(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
            return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "float"
        ):
            return True
    return False


@rule(
    "RPR004",
    "float-into-counter",
    "no float accumulation into integer cycle/flit counters (float "
    "rounding makes counts platform- and history-dependent)",
    scope=("core", "ring", "mesh", "workload"),
)
def check_float_counters(context: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.AugAssign):
            continue
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            continue
        target = node.target
        name = (
            target.attr
            if isinstance(target, ast.Attribute)
            else target.id if isinstance(target, ast.Name) else None
        )
        if name is None or not _COUNTER_NAME.search(name):
            continue
        if _contains_float(node.value):
            yield context.finding(
                "RPR004",
                f"float value accumulated into integer counter {name!r}; "
                "keep counters integral (scale or round explicitly at the "
                "reporting boundary)",
                node,
            )


# ----------------------------------------------------------------------
# RPR005 — json serialization of dict payloads must sort keys
# ----------------------------------------------------------------------

#: Helper names that (by repo convention) build dict payloads:
#: ``result_payload``, ``params_payload``, ``asdict``, ``to_dict`` ...
_PAYLOAD_BUILDER_RE = re.compile(r"(^|_)(payload|asdict|to_dict)($|_)")


class _DictTypes:
    """Names and attributes known (locally) to hold dicts."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.attributes: set[str] = set()

    def is_dict_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and (
                func.id == "dict" or _PAYLOAD_BUILDER_RE.search(func.id)
            ):
                return True
            if isinstance(func, ast.Attribute) and _PAYLOAD_BUILDER_RE.search(
                func.attr
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # PEP 584 dict merge: a | b is a dict if either side is.
            return self.is_dict_expr(node.left) or self.is_dict_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "self":
                return node.attr in self.attributes
        return False

    @staticmethod
    def _annotation_is_dict(annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Name):
            return annotation.id in ("dict", "Dict", "OrderedDict", "defaultdict")
        if isinstance(annotation, ast.Subscript):
            return _DictTypes._annotation_is_dict(annotation.value)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            text = annotation.value.strip()
            return text.startswith(("dict[", "Dict[", "dict ", "Dict "))
        return False

    def learn(self, node: ast.AST) -> None:
        """Record dict-typed names/attributes from one statement."""
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            if self.is_dict_expr(node.value):
                self._record(node.targets[0])
        elif isinstance(node, ast.AnnAssign):
            if self._annotation_is_dict(node.annotation) or (
                node.value is not None and self.is_dict_expr(node.value)
            ):
                self._record(node.target)

    def _record(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
            if target.value.id == "self":
                self.attributes.add(target.attr)


@rule(
    "RPR005",
    "unsorted-json-payload",
    "json.dumps/json.dump of a dict-derived payload must pass "
    "sort_keys=True; dict insertion order otherwise leaks into emitted "
    "JSON, breaking byte-identity of results and cache entries",
    scope=("core", "ring", "mesh", "workload", "runtime", "analysis", "audit"),
)
def check_json_sort_keys(context: ModuleContext) -> Iterator[Finding]:
    json_aliases: set[str] = set()
    dumps_imports: dict[str, str] = {}
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "json":
                    json_aliases.add(alias.asname or "json")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            for alias in node.names:
                if alias.name in ("dumps", "dump"):
                    dumps_imports[alias.asname or alias.name] = f"json.{alias.name}"

    types = _DictTypes()
    for node in ast.walk(context.tree):
        types.learn(node)

    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in json_aliases
            and func.attr in ("dumps", "dump")
        ):
            called = f"{func.value.id}.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in dumps_imports:
            called = dumps_imports[func.id]
        else:
            continue
        if not node.args:
            continue
        if any(keyword.arg is None for keyword in node.keywords):
            continue  # **kwargs may carry sort_keys; can't prove either way
        sort_keys = next(
            (kw for kw in node.keywords if kw.arg == "sort_keys"), None
        )
        if sort_keys is not None and not (
            isinstance(sort_keys.value, ast.Constant)
            and sort_keys.value.value is False
        ):
            continue  # sort_keys=True, or dynamic — benefit of the doubt
        if types.is_dict_expr(node.args[0]):
            yield context.finding(
                "RPR005",
                f"{called}() serializes a dict-derived payload without "
                "sort_keys=True; dict insertion order leaks into the "
                "emitted bytes — pass sort_keys=True for stable output",
                node,
            )
