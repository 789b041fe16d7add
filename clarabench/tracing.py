"""Per-layer tracing from outside the program.

The recording half runs inside a program process (the ``clara serve``
daemon or a CLI run through :mod:`launch`, or a :mod:`worker`): it
replaces the public functions that enter each layer with wrappers that
record one span per call — name, start, end, parent span, request id —
in memory, and writes them out when the process ends.  Nothing under
``src/`` changes.

The analysis half runs in the benchmark client: a layer's self time is
its spans' durations minus the part of each interval its child spans
cover (children always nest on the caller's thread).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: (owner module/class path, attribute, layer) — the calls timed.
#: ``prepare_element``/``characterize``/``lint_module`` are patched
#: where the pipeline looks them up; ``cached_lint_run`` and
#: ``repro.core.prepare.prepare_element`` are what ``clara lint`` calls.
LAYER_TARGETS = (
    ("repro.core.pipeline", "prepare_element", "prepare"),
    ("repro.core.prepare", "prepare_element", "prepare"),
    ("repro.core.pipeline:Clara", "profile_on_host", "interp"),
    ("repro.core.pipeline", "characterize", "workload"),
    ("repro.core.predictor:InstructionPredictor", "advise", "predictor"),
    ("repro.core.algorithms:AlgorithmIdentifier", "advise", "algorithms"),
    ("repro.core.scaleout:ScaleoutAdvisor", "advise", "scaleout"),
    ("repro.core.placement:PlacementAdvisor", "advise", "placement"),
    ("repro.core.coalescing:CoalescingAdvisor", "advise", "coalescing"),
    ("repro.core.pipeline", "lint_module", "lint"),
    ("repro.nfir.analysis.lint_cache", "cached_lint_run", "lint"),
    ("repro.core.pipeline:Clara", "analyze", "pipeline"),
    ("repro.core.pipeline:Clara", "load", "artifacts"),
    ("repro.serve.handlers:ClaraService", "analyze", "serve"),
    ("repro.serve.broker:PredictBroker", "submit", "broker"),
)

#: layers that make up ``Clara.analyze``; its self time is what they
#: leave unattributed.
STAGES = ("prepare", "interp", "workload", "predictor", "algorithms",
          "scaleout", "placement", "coalescing", "lint")

# span tuple fields
NAME, START, END, PARENT, RID, COUNT = range(6)


class Recorder:
    """In-memory span store shared by every wrapper in a process."""

    def __init__(self) -> None:
        self.spans: List[Optional[list]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        from repro.obs import current_request_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                n = count(result) if count and result is not None else 0
                self.spans[index] = [layer, start, end, parent,
                                     current_request_id(), n]

        return traced

    def dump(self, path: str) -> None:
        """Write the spans; one still open at exit stays ``null`` so
        parent indexes keep pointing at the right span."""
        with open(path, "w") as fh:
            json.dump({"spans": list(self.spans)}, fh)

    def install(self) -> None:
        """Wrap every entry in :data:`LAYER_TARGETS`."""
        import importlib

        for owner_path, attr, layer in LAYER_TARGETS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            count = _packets if layer == "interp" else None
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(layer, raw.__func__, count))
            else:
                wrapped = self.wrap(layer, raw, count)
            setattr(owner, attr, wrapped)


def _packets(profile) -> int:
    return int(profile.packets)


def load_spans(path) -> List[Optional[list]]:
    with open(path) as fh:
        return json.load(fh)["spans"]


def self_times(spans: List[Optional[list]]) -> List[float]:
    """Per span: its duration minus its direct children's durations."""
    own = [0.0 if s is None else s[END] - s[START] for s in spans]
    for s in spans:
        if s is not None and s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_busy(spans: List[Optional[list]], keep: Callable[[list], bool]
               ) -> Dict[str, float]:
    """Self seconds per layer over the finished spans ``keep`` selects."""
    busy: Dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        if s is not None and keep(s):
            busy[s[NAME]] += own
    return busy
