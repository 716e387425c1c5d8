"""Outside-in span tracer for the fema package.

`Tracer.install()` rebinds every public function and every public method of
every `fema` module to a timing wrapper, from outside the package: module
attributes are replaced (in each module that imported the function by name
too) and class attributes are replaced in place. Each call records one span
(name, start, end, parent) in memory. `summary()` derives calls, busy time,
self time and the longest call per span name, plus the counters the
benchmark reports as ratios. `uninstall()` restores the original objects.

Span names drop the `fema.` prefix and the class name: `FailureMemory.update`
is `memory.update`, `SacAgent.update` is `agents.sac.update`. Methods of the
environment classes share one name per method (`envs.step`), so the three
environments aggregate into one layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

ENV_MODULES = ("fema.envs.cliff_corridor", "fema.envs.grid_hazard",
               "fema.envs.tilt_pole")
SKIP_MODULES = ("fema.__main__",)


def fema_modules() -> list:
    """Every importable fema module, the package itself first."""
    import fema
    mods = [fema]
    for info in pkgutil.walk_packages(fema.__path__, "fema."):
        if info.name not in SKIP_MODULES:
            mods.append(importlib.import_module(info.name))
    return mods


def _span_name(module_name: str, attr: str, is_method: bool) -> str:
    if is_method and module_name in ENV_MODULES:
        return f"envs.{attr}"
    return f"{module_name[len('fema.'):]}.{attr}"


class Tracer:
    """Spans kept in memory while installed; one tracer per process.

    Spans live in flat arrays (name id, start, end, parent index), which
    the garbage collector does not track, so recording stays cheap.
    """

    def __init__(self):
        self.name_ids: dict = {}    # span name -> id
        self.names = array("i")     # span index -> name id
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")   # span index of the caller, -1 at the top
        self._stack: list = []
        self._patches: list = []    # (owner, attr, original) to restore
        self.counters: dict = {}
        self.memories: dict = {}    # id -> FailureMemory seen at a boundary
        self._hooks = {
            "selection.select": self._after_select,
            "memory.retrieve": self._after_retrieve,
            "memory.update": self._after_update,
        }

    # -- recording ------------------------------------------------------------

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _after_select(self, args, before, result) -> None:
        trace = result[1]
        if trace.fallback:
            self._count("select.fallback")
        else:
            self._count("select.scored")
            self._count("select.override", trace.chosen != 0)

    def _after_retrieve(self, args, before, result) -> None:
        self._count("retrieve.hit", bool(result.records))
        self.memories[id(args[0])] = args[0]

    def _after_update(self, args, before, result) -> None:
        mem = args[0]
        self.memories[id(mem)] = mem
        self._count("memory.trimmed", before - len(mem.events))

    def _wrap(self, fn, name: str):
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get(name)

        if hook is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(names)
                names.append(name_id)
                parents.append(stack[-1] if stack else -1)
                stack.append(idx)
                ends.append(0.0)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
            return traced

        @functools.wraps(fn)
        def traced_hooked(*args, **kwargs):
            before = None
            if name == "memory.update":
                before = len(args[0].events) + len(args[0].pending)
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            hook(args, before, result)
            return result
        return traced_hooked

    # -- installing -------------------------------------------------------------

    def install(self) -> "Tracer":
        modules = fema_modules()
        replaced = {}   # id(original function) -> wrapper
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(
                        obj, _span_name(mod.__name__, attr, False))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, mod.__name__)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def _wrap_class(self, cls, module_name: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                inner = raw.__func__
                wrapped = type(raw)(self._wrap(
                    inner, _span_name(module_name, attr, True)))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, _span_name(module_name, attr, True))
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- deriving ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy_s, self_s, max_s, plus counters.

        busy_s sums only outermost spans of a name, so recursion does not
        count twice; self_s is each span's duration minus the durations of
        its direct children (spans nest, so children never overlap).
        """
        n = len(self.names)
        id_names = {i: name for name, i in self.name_ids.items()}
        names = [id_names[i] for i in self.names]
        if self._stack:
            raise RuntimeError("summary() called inside an open span")
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
        in_select = [False] * n
        stats: dict = {}
        forward_in_select = 0
        for i in range(n):
            name = names[i]
            p = self.parents[i]
            in_select[i] = name == "selection.select" or (p >= 0 and in_select[p])
            if name == "numeric.forward" and in_select[i]:
                forward_in_select += 1
            st = stats.get(name)
            if st is None:
                st = stats[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                    "max_s": 0.0}
            st["calls"] += 1
            if not self._has_ancestor(names, i, name):
                st["busy_s"] += dur[i]
            st["self_s"] += dur[i] - child[i]
            st["max_s"] = max(st["max_s"], dur[i])
        counters = dict(self.counters)
        counters["select.forward_calls"] = forward_in_select
        mems = list(self.memories.values())
        counters["memory.staged"] = sum(m.next_seq for m in mems)
        counters["memory.records"] = sum(len(m.records) for m in mems)
        counters["memory.published_events"] = sum(len(m.events) for m in mems)
        counters["memory.pending"] = sum(len(m.pending) for m in mems)
        return {"spans": n, "layers": stats, "counters": counters}

    def _has_ancestor(self, names: list, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if names[p] == name:
                return True
            p = self.parents[p]
        return False
