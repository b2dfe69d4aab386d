"""In-memory span recorder and the wrappers that feed it.

The traced run wraps every public function and public method of the ruleweave
modules in a span, from these files only: nothing under ``src`` changes. A
span records its name, start, end, parent span and instance id. Parents are
tracked per thread, so worker threads of a condition run start their own span
trees. Spans stay in memory until :meth:`SpanRecorder.write` is called once,
at the end of the run.

A span's self time is its duration minus the durations of its child spans.
Children run on the parent's thread and nest inside it, so the child
intervals never overlap and their durations can simply be summed.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import threading
import time
from array import array
from collections import Counter
from typing import Callable, Optional

NO_PARENT = -1
NO_INSTANCE = -1


class SpanRecorder:
    """Spans as parallel arrays; names and instance ids are interned."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.instances: list[str] = []
        self._instance_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.instance = array("l")
        self.failed = array("b")
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def intern_name(self, name: str) -> int:
        with self._lock:
            index = self._name_ids.get(name)
            if index is None:
                index = self._name_ids[name] = len(self.names)
                self.names.append(name)
        return index

    def intern_instance(self, instance_id: str) -> int:
        with self._lock:
            index = self._instance_ids.get(instance_id)
            if index is None:
                index = self._instance_ids[instance_id] = len(self.instances)
                self.instances.append(instance_id)
        return index

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int, instance_id: Optional[str] = None) -> int:
        """Start a span under the current thread's innermost open span."""
        stack = self._stack()
        if stack:
            parent, instance = stack[-1]
        else:
            parent, instance = NO_PARENT, NO_INSTANCE
        if instance_id is not None:
            instance = self.intern_instance(instance_id)
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.instance.append(instance)
            self.end.append(0)
            self.failed.append(0)
            self.start.append(time.perf_counter_ns())
        stack.append((index, instance))
        return index

    def close(self, index: int, failed: bool = False) -> None:
        self.end[index] = time.perf_counter_ns()
        if failed:
            self.failed[index] = 1
        self._stack().pop()

    def span(self, name: str, instance_id: Optional[str] = None) -> "_Span":
        return _Span(self, self.intern_name(name), instance_id)

    def count(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[counter] += amount

    def __len__(self) -> int:
        return len(self.start)

    def self_times_ns(self) -> array:
        """Per span: duration minus the durations of its children."""
        own = array("q", (e - s for s, e in zip(self.start, self.end)))
        result = array("q", own)
        for parent, duration in zip(self.parent, own):
            if parent != NO_PARENT:
                result[parent] -= duration
        return result

    def write(self, path) -> None:
        """Write every span as a gzip'd TSV line: name id, start and end in ns
        since the first span, parent index, instance id, failed flag. Two
        leading comment lines map name and instance ids to their text."""
        origin = self.start[0] if self.start else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write(f"#names\t{json.dumps(self.names)}\n")
            handle.write(f"#instances\t{json.dumps(self.instances)}\n")
            handle.write("name\tstart_ns\tend_ns\tparent\tinstance\tfailed\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.instance, self.failed):
                name, start, end, parent, instance, failed = row
                handle.write(f"{name}\t{start - origin}\t{end - origin}\t{parent}\t{instance}\t{failed}\n")


class _Span:
    __slots__ = ("recorder", "name_id", "instance_id", "index")

    def __init__(self, recorder: SpanRecorder, name_id: int, instance_id: Optional[str]):
        self.recorder = recorder
        self.name_id = name_id
        self.instance_id = instance_id

    def __enter__(self):
        self.index = self.recorder.open(self.name_id, self.instance_id)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.recorder.close(self.index, exc_type is not None)
        return False


# -- wrapping the program's functions ---------------------------------------------

Probe = Callable[[SpanRecorder, tuple, dict, object], None]


def _wrap(
    recorder: SpanRecorder,
    name: str,
    function: Callable,
    probe: Optional[Probe],
    instance_arg: Optional[int],
) -> Callable:
    name_id = recorder.intern_name(name)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        instance_id = None
        if instance_arg is not None:
            instance_id = kwargs.get("instance_id", args[instance_arg] if len(args) > instance_arg else None)
        index = recorder.open(name_id, instance_id)
        try:
            result = function(*args, **kwargs)
        except BaseException:
            recorder.close(index, True)
            raise
        recorder.close(index)
        if probe is not None:
            probe(recorder, args, kwargs, result)
        return result

    return wrapper


def _public_callables(module):
    """(owner, attribute, function, kind, name) for every public function of the
    module and every public method of the classes it defines."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attribute, value in sorted(vars(module).items()):
        if attribute.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield module, attribute, value, "function", f"{short}.{attribute}"
        elif inspect.isclass(value):
            for method, raw in sorted(vars(value).items()):
                if method.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    kind, function = type(raw).__name__, raw.__func__
                elif inspect.isfunction(raw):
                    kind, function = "function", raw
                else:
                    continue
                yield value, method, function, kind, f"{short}.{value.__name__}.{method}"


class Installation:
    """Span wrappers installed into a set of modules; :meth:`remove` undoes them."""

    def __init__(self, recorder: SpanRecorder, modules, probes: dict[str, Probe], instance_args: dict[str, int]):
        self._undo: list[tuple[object, str, object]] = []
        replacements: dict[int, Callable] = {}
        for module in modules:
            for owner, attribute, function, kind, name in _public_callables(module):
                if inspect.isgeneratorfunction(function):
                    continue  # its body runs later, inside the caller's span
                wrapper = _wrap(recorder, name, function, probes.get(name), instance_args.get(name))
                replacements[id(function)] = wrapper
                if kind == "classmethod":
                    wrapper = classmethod(wrapper)
                elif kind == "staticmethod":
                    wrapper = staticmethod(wrapper)
                self._undo.append((owner, attribute, vars(owner)[attribute]))
                setattr(owner, attribute, wrapper)
        # Names imported with ``from x import f`` hold the original function.
        for module in modules:
            for attribute, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._undo.append((module, attribute, value))
                    setattr(module, attribute, wrapper)

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()
