"""Spans around sdcap's layer-boundary functions, recorded from outside.

`installed(tracer)` replaces each function in `TRACED` with a wrapper that
records a span (name, start, end, parent, tag), timed in CPU nanoseconds of
the calling thread, and restores the originals on exit. A function imported by name into other modules (`from .ltl import
evaluate`) is replaced in every `sdcap` module that holds it, so calls made
inside the package are seen too.

Only layer boundaries are wrapped, not every public helper: a wrapper costs
about a microsecond per call, and wrapping the per-row helpers of the
capacity sweep would distort the rates measured for their callers.
"""

import functools
import os
import sys
import time
from contextlib import contextmanager
from statistics import median, median_low

# (module, function) pairs; span names are "<module>.<function>".
TRACED = (
    ("simulator", "scenario_from_text"),
    ("simulator", "run_scenario"),
    ("simulator", "link_resolutions"),
    ("simulator", "assign_responsibility"),
    ("simulator", "scenario_summary"),
    ("ltl", "evaluate"),
    ("ltl", "vehicle_safe"),
    ("ltl", "parse_formula"),
    ("ltl", "read_traces_csv"),
    ("ltl", "write_traces_csv"),
    ("kinematics", "safe_longitudinal_distance"),
    ("kinematics", "min_safe_gap_oracle"),
    ("protocol", "corrected_safe_distance"),
    ("capacity", "check_capacity_bound"),
    ("cli", "main"),
)


# Work counters read off a finished call: (args, result) -> {counter: n}.
_COUNTERS = {
    "simulator.run_scenario": lambda args, result: {
        "steps": len(result[0].steps),
        "vsteps": sum(len(t.steps) for t in result),
    },
    "ltl.read_traces_csv": lambda args, result: {"bytes": os.fstat(args[0].fileno()).st_size},
    "ltl.write_traces_csv": lambda args, result: {"bytes": args[1].tell()},
    "capacity.check_capacity_bound": lambda args, result: {"rows": len(result.rows)},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "tag", "counts")

    def __init__(self, name, start, parent, tag):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = tag
        self.counts = {}

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    """In-memory span recorder. `tag` labels the spans opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.tag = ""

    def wrap(self, name, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(name, time.thread_time_ns(), parent, self.tag)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.thread_time_ns()
                self.stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return wrapper

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


@contextmanager
def installed(tracer: Tracer):
    """Wrap every TRACED function in every loaded sdcap module; undo on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "sdcap" or n.startswith("sdcap."))]
    patched = []  # (module, attribute, original)
    try:
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"sdcap.{mod_name}"], fn_name)
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def op_profile(spans: list[Span]) -> dict:
    """Per-name totals for one operation's spans.

    Keys are (name, tag) -> {"calls", "self_s", "total_s", counters...};
    tag "" also sums over every tag.
    """
    profile: dict = {}
    for span, own in zip(spans, self_seconds(spans)):
        for key in {(span.name, ""), (span.name, span.tag)}:
            entry = profile.setdefault(key, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += span.seconds
            for counter, n in span.counts.items():
                entry[counter] = entry.get(counter, 0) + n
    return profile


def median_of(profiles: list[dict], name: str, field: str, tag: str = "") -> float:
    """Median over operations of one field; 0 where the layer was not reached.
    Counts take the lower median, so they stay whole numbers."""
    pick = median if field.endswith("_s") else median_low
    return pick(p.get((name, tag), {}).get(field, 0) for p in profiles)


def median_rate(profiles: list[dict], name: str, num: str, den: str, scale: float) -> float:
    """Median over operations of scale * num / den; 0 where not reached."""
    return median(
        p[(name, "")][num] / p[(name, "")][den] * scale if (name, "") in p else 0.0
        for p in profiles
    )
