"""Per-layer time and work ledger, measured from outside the program.

The ledger wraps named entry points of the program (functions and
methods, given as import paths) and accounts each call to a *layer*:

- ``<layer>_s``: self time, the call's duration minus the time its
  directly nested wrapped calls took.  Nested calls on one thread run one
  after another, so that time is the plain sum of their durations.
- counters: whatever a target's hook counts (calls by default).

Calls that are not nested inside another wrapped call are *top-level*;
their intervals are kept so that the time a workload spent outside every
wrapped layer (``unattributed``) can be computed as a region's length
minus the union of those intervals.

Nothing here imports the program: targets are resolved by name at
install time, and a target that no longer exists is recorded as absent
instead of failing the run, so the ledger survives refactors that move or
delete entry points.  The interval arithmetic is plain functions so it can
be unit-tested on its own.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


# ----------------------------------------------------------------------
# Interval arithmetic
# ----------------------------------------------------------------------

def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint intervals covering the same points."""
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by the union of ``intervals``."""
    return sum(e - s for s, e in merge_intervals(intervals))


def covered_within(region: Sequence[Interval],
                   intervals: Iterable[Interval]) -> float:
    """Length of ``union(region) ∩ union(intervals)``."""
    a = merge_intervals(region)
    b = merge_intervals(intervals)
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def unattributed(region: Sequence[Interval],
                 intervals: Iterable[Interval]) -> float:
    """Time inside ``region`` that no interval in ``intervals`` covers."""
    return union_length(region) - covered_within(region, intervals)


# ----------------------------------------------------------------------
# Targets and layers
# ----------------------------------------------------------------------

#: A hook sees the ledger, the call's arguments, its result and its
#: (start, end) and adds to the ledger's counters.
Hook = Callable[["Ledger", tuple, dict, object, float, float], None]
EnterHook = Callable[["Ledger", tuple, dict], None]


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``module`` plus a dotted attribute path
    (``"func"`` or ``"Class.method"``), accounted to ``layer``."""

    module: str
    attr: str
    layer: str
    #: Counter incremented by one per call (``None``: no call count).
    count: Optional[str] = None
    hook: Optional[Hook] = None
    enter: Optional[EnterHook] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


@dataclass
class _Frame:
    layer: str
    start: float
    child: float = 0.0


@dataclass
class Snapshot:
    """Totals at one instant; subtract two to get a window's share."""

    self_s: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    def minus(self, earlier: "Snapshot") -> "Snapshot":
        return self._combine(earlier, -1)

    def plus(self, other: "Snapshot") -> "Snapshot":
        return self._combine(other, 1)

    def _combine(self, other: "Snapshot", sign: int) -> "Snapshot":
        def merge(a: Dict[str, float], b: Dict[str, float]):
            return {k: a.get(k, 0) + sign * b.get(k, 0)
                    for k in set(a) | set(b)}
        return Snapshot(merge(self.self_s, other.self_s),
                        merge(self.counts, other.counts))


class Ledger:
    """Installs wrappers and accumulates self time, counts and the
    intervals of top-level calls.  Thread-safe: each thread keeps its
    own call stack; totals are updated under one lock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        #: Wrapped calls made, for the per-call cost estimate.
        self.calls = 0
        self.top: List[Interval] = []
        self.installed: List[str] = []
        self.absent: List[str] = []
        #: Free-form per-ledger state for hooks (seen keys, records).
        self.state: Dict[str, object] = {}
        # Re-entrant: hooks run under it and may call :meth:`add`.
        self._lock = threading.RLock()
        self._local = threading.local()

    # -- accounting ----------------------------------------------------

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[counter] = self.counts.get(counter, 0) + amount

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> _Frame:
        frame = _Frame(layer, self.clock())
        self._stack().append(frame)
        return frame

    def _exit(self, frame: _Frame) -> Tuple[float, float]:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        with self._lock:
            self.calls += 1
            self.self_s[frame.layer] = self.self_s.get(frame.layer, 0.0) \
                + duration - frame.child
            if stack:
                stack[-1].child += duration
            else:
                self.top.append((frame.start, end))
        return frame.start, end

    def _run_hook(self, hook: Hook, *call) -> None:
        # A hook reads program objects; if a refactor changed their
        # shape, the count is lost but the program's call is not.
        try:
            with self._lock:
                hook(self, *call)
        except Exception:  # noqa: BLE001 - boundary: never break a call
            self.add("ledger.hook_errors")

    def snapshot(self) -> Snapshot:
        with self._lock:
            return Snapshot(dict(self.self_s), dict(self.counts))

    def top_within(self, start: float, end: float) -> List[Interval]:
        """Top-level call intervals clipped to ``[start, end]``."""
        with self._lock:
            return [(max(s, start), min(e, end)) for s, e in self.top
                    if e > start and s < end]

    # -- installation --------------------------------------------------

    def wrap(self, fn: Callable, target: Target) -> Callable:
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.enter is not None:
                ledger._run_hook(target.enter, args, kwargs)
            frame = ledger._enter(target.layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                start, end = ledger._exit(frame)
                if target.count is not None:
                    ledger.add(target.count)
                if target.hook is not None:
                    ledger._run_hook(target.hook, args, kwargs, result,
                                     start, end)

        wrapper.__ledger_wrapped__ = fn
        return wrapper

    def install(self, targets: Sequence[Target],
                package: Optional[str] = None) -> None:
        """Wrap every resolvable target; record the rest as absent.

        Besides the defining module or class, every reference to the
        original function that ``package``'s loaded modules hold is
        replaced: module globals (``from x import f``), module-level
        dicts and default argument values.
        """
        swaps: Dict[int, Tuple[Callable, Callable]] = {}
        for target in targets:
            try:
                owner, name, original = _resolve(target)
            except (ImportError, AttributeError):
                self.absent.append(target.name)
                continue
            if not callable(original):
                self.absent.append(target.name)
                continue
            wrapped = self.wrap(original, target)
            setattr(owner, name, wrapped)
            swaps[id(original)] = (original, wrapped)
            self.installed.append(target.name)
        if package is not None and swaps:
            _replace_references(package, swaps)


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    parts = target.attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        if name not in owner.__dict__:
            raise AttributeError(f"{owner.__name__}.{name}")
        original = owner.__dict__[name]
        if isinstance(original, (staticmethod, classmethod, property)):
            raise AttributeError(f"{owner.__name__}.{name} is not a "
                                 "plain method")
    else:
        original = getattr(owner, name)
    return owner, name, original


def _replace_references(package: str,
                        swaps: Dict[int, Tuple[Callable, Callable]]) -> None:
    def swap(value):
        hit = swaps.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    def fix_defaults(fn) -> None:
        defaults = getattr(fn, "__defaults__", None)
        if defaults and any(swap(d) is not None for d in defaults):
            fn.__defaults__ = tuple(swap(d) or d for d in defaults)
        kwdefaults = getattr(fn, "__kwdefaults__", None)
        if kwdefaults:
            for key, value in list(kwdefaults.items()):
                replacement = swap(value)
                if replacement is not None:
                    kwdefaults[key] = replacement

    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package
                                  or mod_name.startswith(package + ".")):
            continue
        for key, value in list(vars(module).items()):
            replacement = swap(value)
            if replacement is not None:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    replacement = swap(v)
                    if replacement is not None:
                        value[k] = replacement
            elif isinstance(value, type) and value.__module__ == mod_name:
                for member in list(vars(value).values()):
                    fix_defaults(member)
            elif callable(value):
                fix_defaults(value)


def per_call_cost(n: int = 20_000, repeats: int = 5) -> float:
    """Seconds one wrapped call costs beyond the call itself.

    Used where a traced run has no untraced counterpart to subtract:
    the overhead is then estimated as wrapped calls times this cost.
    """
    probe = Ledger()

    def plain():
        return None

    wrapped = probe.wrap(plain, Target("probe", "plain", "probe",
                                       count="probe_n"))
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n):
            plain()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / n)
    return sorted(costs)[repeats // 2]
