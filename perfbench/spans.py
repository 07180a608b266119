"""In-memory span recorder for the traced benchmark run.

`Tracer.wrap` replaces a module or class attribute with a wrapper that
records one span per call: name, start, end, parent span and slot id. The
wrapper only calls through, so a traced run computes exactly what an
untraced one does. Spans stay in memory until `self_times` derives each
span's self time (its duration minus the part its direct children cover).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.slot: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.cpu: dict[int, float] = {}      # span index -> process CPU seconds
        self.counts: dict[str, int] = {}     # exact counters kept beside spans
        self.current_slot = -1
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def wrap(self, owner: Any, attr: str, name: str, *, cpu: bool = False,
             slot_arg: Optional[int] = None,
             on_return: Optional[Callable[[tuple, Any], None]] = None) -> None:
        """Record a span around every call of `owner.attr`.

        `slot_arg` names the positional argument holding the slot index;
        spans started inside such a call carry that slot id. `on_return`
        sees the call's arguments and result, to keep exact counts.
        """
        original = getattr(owner, attr)
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        perf_counter, process_time = time.perf_counter, time.process_time

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            if slot_arg is not None:
                self.current_slot = args[slot_arg]
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.slot.append(self.current_slot)
            self.end.append(0.0)
            self._stack.append(idx)
            cpu0 = process_time() if cpu else 0.0
            self.start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                if cpu:
                    self.cpu[idx] = process_time() - cpu0
                self._stack.pop()
                if slot_arg is not None:
                    self.current_slot = -1
            if on_return is not None:
                on_return(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        return {"name": np.asarray(self.name, dtype=np.int64),
                "slot": np.asarray(self.slot, dtype=np.int64),
                "dur": dur, "self": dur - children}

    def name_mask(self, spans: dict[str, np.ndarray], name: str) -> np.ndarray:
        name_id = self._name_ids.get(name, -1)
        return spans["name"] == name_id
