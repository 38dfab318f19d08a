"""Spans and counters recorded from outside the program.

The benchmark never edits ``cral``. It replaces a function by a wrapper
in the namespace where its caller looks it up (``cral.trainer.backward``
for the trainer's calls, ``cral.losses.class_probs`` for the loss terms'
calls, ``cral.nn.Adam.step`` for every optimizer) and restores the
original afterwards. Wrappers read the clock and argument shapes only:
they consume no RNG and change no arithmetic, so a traced run must
reproduce an untraced run bit for bit.

Spans (name, start, end, parent, step) sit at the trainer and loss-term
boundaries, where calls are few. The hot model/nn/tensor functions, which
run hundreds of times per step, add to per-step counters instead.
Counters and spans are both keyed by the current step and phase: phase
1 and 2 are the two halves of ``train_step``, "sample" is batch sampling,
"eval" is evaluation, and "setup<k>" is the k-th set-up before the first
step.
"""

import functools
import statistics
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "step", "phase")

    def __init__(self, name, start, end, parent, step, phase):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.step = step
        self.phase = phase

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover.

    ``parent`` is an index into ``spans`` or None. Child intervals are
    clipped to the parent and merged first, so overlapping children are
    not subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """In-memory span and counter store plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)   # (name, step, phase) -> total
        self.step = 0
        self.phase = "setup"
        self._open = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def begin_step(self) -> None:
        self.step += 1

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[(name, self.step, self.phase)] += value

    def span(self, label: str, fn, /, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``label``."""
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        s = Span(label, self.clock(), None, parent, self.step, self.phase)
        self.spans.append(s)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            s.end = self.clock()
            self._open.pop()

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, wrap) -> None:
        """Replace ``owner.attr`` by ``wrap(original)`` until ``restore``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrap(original)))

    def spanned(self, owner, attr: str, name, phase=None) -> None:
        """Record a span around every call; ``name`` may be a callable of
        the call's (args, kwargs). A ``phase`` becomes the current phase
        when the call starts and stays so until another call sets one, so
        the backward pass and optimizer step after a phase's forward pass
        are counted in that phase."""
        def wrap(fn):
            def call(*args, **kwargs):
                if phase is not None:
                    self.phase = phase
                label = name(args, kwargs) if callable(name) else name
                return self.span(label, fn, *args, **kwargs)
            return call
        self.patch(owner, attr, wrap)

    def counted(self, owner, attr: str, count) -> None:
        """Add ``count(args, kwargs)`` -> {counter: value} before each call."""
        def wrap(fn):
            def call(*args, **kwargs):
                for key, value in count(args, kwargs).items():
                    self.add(key, value)
                return fn(*args, **kwargs)
            return call
        self.patch(owner, attr, wrap)

    def timed(self, owner, attr: str, name: str, count=None) -> None:
        """Count calls and their wall time in ms under ``name``."""
        def wrap(fn):
            def call(*args, **kwargs):
                if count is not None:
                    for key, value in count(args, kwargs).items():
                        self.add(key, value)
                started = self.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add(name + "_ms", 1000.0 * (self.clock() - started))
                    self.add(name + "_calls")
            return call
        self.patch(owner, attr, wrap)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def per_step(self, phases) -> dict:
        """counter -> {step: total over ``phases``}, for steps >= 1."""
        out = defaultdict(lambda: defaultdict(float))
        for (name, step, phase), value in self.counts.items():
            if step >= 1 and phase in phases:
                out[name][step] += value
        return out

    def span_totals(self, use_self_time: bool = False) -> dict:
        """span name -> {step: summed duration in ms}."""
        durations = (self_times(self.spans) if use_self_time
                     else [s.end - s.start for s in self.spans])
        out = defaultdict(lambda: defaultdict(float))
        for s, d in zip(self.spans, durations):
            out[s.name][s.step] += 1000.0 * d
        return out


def median_over(steps: list, by_step: dict) -> float:
    """Median of a per-step total over ``steps``; a step without it is 0."""
    if not steps:
        return 0.0
    return statistics.median(by_step.get(step, 0.0) for step in steps)
