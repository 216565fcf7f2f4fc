"""In-memory span tracer that works by rebinding attributes from outside.

The benchmark measures each layer of ``repro`` without editing it: for a
traced round it replaces public functions and methods, in the namespace
the caller looks them up in (a module global or a class attribute), with
a wrapper that records a span around the original call.  Spans are kept
in memory as ``Span`` objects and written out when the run ends.
:meth:`Tracer.restore` puts every original object back.
"""

from __future__ import annotations

import functools
import json
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

_MISSING = object()


@dataclass
class Span:
    """One traced call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# on_call(span_attrs, args, kwargs) and on_result(span_attrs, args, result)
Hook = Callable[[dict, tuple, Any], None]


class Tracer:
    """Records nested spans around rebound callables.

    ``bind(owner, attr, name)`` rebinds ``owner.attr`` (a module or a
    class); a target that no longer exists is skipped and listed in
    :attr:`missing`, so a refactor of ``repro`` degrades the per-layer
    numbers to zero instead of breaking the benchmark.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    # -- rebinding ------------------------------------------------------
    def bind(
        self,
        owner: object,
        attr: str,
        name: str,
        on_call: Hook | None = None,
        on_result: Hook | None = None,
    ) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(owner, type):
            own = owner.__dict__.get(attr, _MISSING)
            original = getattr(owner, attr, _MISSING)
        else:
            own = original = getattr(owner, attr, _MISSING)
        if not isinstance(original, types.FunctionType):
            self.missing.append(label)
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            attrs = tracer.spans[index].attrs
            try:
                if on_call is not None:
                    on_call(attrs, args, kwargs)
                result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(attrs, args, result)
                return result
            finally:
                tracer.close(index)

        self._saved.append((owner, attr, own))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every :meth:`bind`, newest first."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis -------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            **span.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
