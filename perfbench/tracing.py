"""In-memory span tracer that wraps icbound functions from the outside.

Each wrapper is installed by dotted name at the place its caller looks the
function up (a module global or a class attribute) and the original is put
back by `Tracer.uninstall`. A name that no longer resolves is recorded as
absent and skipped, so the benchmark keeps running when code moves.

Two kinds of wrapper exist:

* span wrappers record one span per call: id, name, start, end, parent id
  and the span's self time (its duration minus the time of its direct
  children, recorded or aggregated);
* aggregate wrappers, for functions called around 10^5 times per run, only
  add to a count and a busy time; their time still counts as child time of
  the enclosing frame, so self times stay exact.

Hooks attached to a wrapper see the call's arguments and result; the
benchmark uses them for counters (LP rows, certificate entries, bytes
written) and for the pivot-path record, which is kept even when timing is
off.
"""

from __future__ import annotations

import importlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter_ns

Hook = Callable[[tuple, dict, object], None]


@dataclass(frozen=True)
class Probe:
    """What to install at one dotted name.

    span: metric prefix the timings go to, or None to time nothing.
    aggregate: count and time only, no span per call.
    hook: called with (args, kwargs, result) after each successful call.
    """

    target: str
    span: Optional[str] = None
    aggregate: bool = False
    hook: Optional[Hook] = None


@dataclass
class _Frame:
    start: int
    span_id: int
    child_ns: int = 0


@dataclass
class LayerTotals:
    calls: int = 0
    busy_ns: int = 0


def _resolve(target: str) -> Tuple[object, str]:
    """(owner, attribute) for a dotted name; raises LookupError when absent."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            if not hasattr(owner, attr):
                raise LookupError(target)
            owner = getattr(owner, attr)
        if not hasattr(owner, parts[-1]):
            raise LookupError(target)
        return owner, parts[-1]
    raise LookupError(target)


@dataclass
class Tracer:
    """Owns the installed wrappers, the open frames and the closed spans."""

    timing: bool = True
    spans: List[Tuple[int, str, int, int, int, int]] = field(default_factory=list)
    totals: Dict[str, LayerTotals] = field(default_factory=dict)
    absent: List[str] = field(default_factory=list)
    _stack: List[_Frame] = field(default_factory=list)
    _depth: Dict[str, int] = field(default_factory=dict)
    _saved: List[Tuple[object, str, object, bool]] = field(default_factory=list)
    _ids: Iterator[int] = field(default_factory=lambda: itertools.count(1))

    def install(self, probes: List[Probe]) -> None:
        for probe in probes:
            try:
                owner, attr = _resolve(probe.target)
            except LookupError:
                self.absent.append(probe.target)
                continue
            own = isinstance(owner, type) and attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._saved.append((owner, attr, original, own or not isinstance(owner, type)))
            setattr(owner, attr, self._wrap(original, probe))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, fn, probe: Probe):
        hook = probe.hook
        name = probe.span if self.timing else None
        if name is None:
            def hooked(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(args, kwargs, result)
                return result
            return hooked if hook is not None else fn

        totals = self.totals.setdefault(name, LayerTotals())
        stack = self._stack
        depth = self._depth
        depth.setdefault(name, 0)
        spans = self.spans
        record = not probe.aggregate
        ids = self._ids

        def traced(*args, **kwargs):
            span_id = next(ids) if record else 0
            frame = _Frame(_now(), span_id)
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                depth[name] -= 1
                dur = end - frame.start
                totals.calls += 1
                if not depth[name]:
                    totals.busy_ns += dur
                if stack:
                    stack[-1].child_ns += dur
                if record:
                    parent = next((f.span_id for f in reversed(stack) if f.span_id), 0)
                    spans.append((span_id, name, frame.start, end, parent, dur - frame.child_ns))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def span_records(self) -> List[dict]:
        return [
            {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p, "self_ns": sf}
            for i, n, s, e, p, sf in self.spans
        ]

    def self_seconds_from_spans(self, name: str) -> float:
        return sum(sf for _, n, _, _, _, sf in self.spans if n == name) / 1e9
