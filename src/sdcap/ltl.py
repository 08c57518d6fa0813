"""Bounded temporal-logic monitoring over finite vehicle traces.

Formulas are built from the atoms BER (best-effort reaction engaged: max
braking held until halt), C (collided) and Y (shares responsibility),
boolean connectives, and the bounded operators G[a,b] (at every step offset
in [a, b]) and F[a,b] (at some step offset in [a, b]).

Traces are finite: an offset past the last step reads the final state,
which is absorbing once every vehicle has halted.

A trace is built from and stored as columns (numpy arrays, one value per
step; `Trace.steps` gives them back as VehicleState rows). Formulas read
only the flag columns, which the base class TraceFlags holds; Trace adds
the position and velocity samples. A formula is evaluated bottom-up over
the whole trace: each subformula becomes one boolean array, and G/F
windows are counted from prefix sums, so a formula costs O(|f| * N) time
on an N-step trace whatever its window widths. A G/F root is decided at
the requested step only, from its one window over its child's array.
"""

import csv
import math
import re
import sys
import warnings
from collections import Counter
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import DecodedLines, EvaluationError, FormulaError, InvalidInputError
from .params import require_finite


# ---------------------------------------------------------------------------
# Formula AST


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


def _check_interval(lo: int, hi: int):
    if not (isinstance(lo, int) and isinstance(hi, int)):
        raise FormulaError(f"interval bounds must be integers, got [{lo},{hi}]")
    if lo < 0 or hi < lo:
        raise FormulaError(f"interval must satisfy 0 <= lo <= hi, got [{lo},{hi}]")


@dataclass(frozen=True)
class Globally:
    lo: int
    hi: int
    child: "Formula"

    def __post_init__(self):
        _check_interval(self.lo, self.hi)


@dataclass(frozen=True)
class Finally:
    lo: int
    hi: int
    child: "Formula"

    def __post_init__(self):
        _check_interval(self.lo, self.hi)


Formula = Union[Atom, Not, And, Or, Implies, Globally, Finally]


# ---------------------------------------------------------------------------
# Traces


@dataclass(frozen=True)
class VehicleState:
    """One sampled state of one vehicle."""

    position: float
    velocity: float
    ber_active: bool
    collided: bool
    responsible: bool

    def __post_init__(self):
        require_finite("position", self.position)
        require_finite("velocity", self.velocity)
        if self.velocity < 0:
            raise InvalidInputError(f"velocity must be >= 0, got {self.velocity}")


# Trace columns, in VehicleState field order, with their dtypes; a
# TraceFlags holds the last three, the flags the atoms read.
_COLUMNS = (
    ("position", np.float64),
    ("velocity", np.float64),
    ("ber", np.bool_),
    ("collided", np.bool_),
    ("responsible", np.bool_),
)
_FLAG_COLUMNS = _COLUMNS[2:]


def first_bad_sample(position: np.ndarray, velocity: np.ndarray) -> int | None:
    """The index of the first sample a trace refuses (a position or
    velocity that is not finite, or a negative velocity), or None."""
    bad = np.flatnonzero(~(np.isfinite(position) & np.isfinite(velocity) & (velocity >= 0)))
    return int(bad[0]) if bad.size else None


def bad_sample_error(vehicle_id: str, step: int, position, velocity) -> InvalidInputError:
    """The error that refuses a trace's sample at `step`."""
    return InvalidInputError(
        f"trace {vehicle_id}: step {step}: position and velocity must be finite "
        f"and velocity >= 0, got {position}, {velocity}"
    )


class TraceFlags:
    """The flags of one vehicle's uniformly sampled trace, stored as
    columns: what a formula's atoms read, without the samples.

    Built from its per-step `ber`, `collided` and `responsible` columns,
    given by keyword, each a read-only bool array with one entry per step.
    A column given as a read-only bool ndarray is adopted as it is, not
    copied, so its owner must not write to it through another view; any
    other column is copied once and frozen. Validated once, on
    construction: non-empty, a collided flag that never turns off again,
    and a finite positive dt.
    """

    __slots__ = ("vehicle_id", "dt") + tuple(name for name, _ in _FLAG_COLUMNS)
    _COLUMNS = _FLAG_COLUMNS

    def __init__(self, vehicle_id: str, dt: float, *, ber, collided, responsible):
        self._adopt(vehicle_id, dt, (ber, collided, responsible))

    def _adopt(self, vehicle_id: str, dt: float, columns: tuple):
        """Set the columns, given in _COLUMNS order, and validate the trace."""
        self.vehicle_id = vehicle_id
        self.dt = dt
        for (name, dtype), values in zip(self._COLUMNS, columns):
            if not (type(values) is np.ndarray and values.dtype == dtype
                    and not values.flags.writeable):
                values = np.array(values, dtype=dtype)
                values.setflags(write=False)
            setattr(self, name, values)
        first = getattr(self, self._COLUMNS[0][0])
        if first.ndim != 1 or any(
            getattr(self, name).shape != first.shape for name, _ in self._COLUMNS
        ):
            raise InvalidInputError(f"trace {vehicle_id}: columns must be 1-D and equally long")
        if not len(first):
            raise InvalidInputError(f"trace {vehicle_id}: columns must be non-empty")
        # Compared, not converted, so an int past the largest double is refused;
        # one too long to print under any int-to-text limit is named by its size.
        if isinstance(dt, bool) or not (isinstance(dt, (int, float))
                                        and 0 < dt <= sys.float_info.max):
            if isinstance(dt, int) and abs(dt) >= 10 ** sys.int_info.str_digits_check_threshold:
                dt = f"an int of {dt.bit_length()} bits"
            raise InvalidInputError(f"trace {vehicle_id}: dt must be finite and > 0, got {dt}")
        self._check_samples()
        # A collision is permanent within the horizon.
        if np.any(self.collided[:-1] & ~self.collided[1:]):
            raise InvalidInputError(f"trace {vehicle_id}: collided flag must be monotone")

    def _check_samples(self):
        """Refuse a bad sample; flags alone hold none."""

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name, _ in self._COLUMNS)

    def __len__(self) -> int:
        return len(self.ber)

    @property
    def last_index(self) -> int:
        return len(self) - 1

    def __eq__(self, other):
        if not isinstance(other, TraceFlags):
            return NotImplemented
        mine, theirs = self._columns(), other._columns()
        return (
            self.vehicle_id == other.vehicle_id
            and self.dt == other.dt
            and len(mine) == len(theirs)
            and all(map(np.array_equal, mine, theirs))
        )

    def __repr__(self) -> str:
        name = "Trace" if isinstance(self, Trace) else "TraceFlags"
        return f"{name}(vehicle_id={self.vehicle_id!r}, steps={len(self)}, dt={self.dt!r})"


class Trace(TraceFlags):
    """A TraceFlags with its samples: uniformly sampled state sequence of
    one vehicle, stored as columns.

    Built from its per-step columns, given by keyword: `position` and
    `velocity` become float64 arrays and the flags bool arrays, adopted or
    copied as TraceFlags does. `steps` is a read-only sequence of
    VehicleState values built on demand. Validated once, on construction,
    as TraceFlags is, and also for finite positions and velocities and
    velocities >= 0.
    """

    __slots__ = ("position", "velocity")
    _COLUMNS = _COLUMNS

    def __init__(
        self, vehicle_id: str, dt: float, *, position, velocity, ber, collided, responsible
    ):
        self._adopt(vehicle_id, dt, (position, velocity, ber, collided, responsible))

    def _check_samples(self):
        k = first_bad_sample(self.position, self.velocity)
        if k is not None:
            raise bad_sample_error(self.vehicle_id, k, self.position[k], self.velocity[k])

    @property
    def steps(self) -> "TraceSteps":
        return TraceSteps(self)


def _states(columns: Iterable[np.ndarray]) -> Iterator[VehicleState]:
    return (VehicleState(*row) for row in zip(*(c.tolist() for c in columns)))


class TraceSteps(SequenceABC):
    """The steps of a Trace as VehicleState values, built on demand.

    `len` costs O(1); an index gives one VehicleState and a slice a tuple
    of them.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, index):
        columns = self._trace._columns()
        if isinstance(index, slice):
            return tuple(_states(c[index] for c in columns))
        k = range(len(self))[index]
        return VehicleState(*(c[k].item() for c in columns))

    def __iter__(self) -> Iterator[VehicleState]:
        return _states(self._trace._columns())


# Atom name -> the TraceFlags column holding its value at each step.
ATOMS: dict[str, str] = {"BER": "ber", "C": "collided", "Y": "responsible"}


def evaluate(trace: TraceFlags, i: int, formula: Formula) -> bool:
    """Evaluate a formula on a trace at step index i.

    A G/F root is decided from its window at step i alone; every
    subformula below it is still evaluated over the whole trace."""
    if not (0 <= i < len(trace)):
        raise EvaluationError(
            f"index {i} outside trace {trace.vehicle_id} of length {len(trace)}"
        )
    if isinstance(formula, (Globally, Finally)):
        x = _truth(trace, formula.child)
        return _window_at(x, i, formula.lo, formula.hi, every=isinstance(formula, Globally))
    return bool(_truth(trace, formula)[i])


def _children(f: Formula) -> tuple:
    if isinstance(f, Atom):
        return ()
    if isinstance(f, (Not, Globally, Finally)):
        return (f.child,)
    if isinstance(f, (And, Or, Implies)):
        return (f.left, f.right)
    raise EvaluationError(f"unknown formula node {f!r}")


def _truth(trace: TraceFlags, formula: Formula) -> np.ndarray:
    """The formula's truth value at every step of the trace.

    Children are evaluated before their parent, left subtree first, from an
    explicit stack, so no formula is too deep to evaluate. Each subformula
    is evaluated once, and dropped once its last parent has combined it: a
    left-deep `&` or `|` chain holds a few arrays at a time.
    """
    parents: dict[int, int] = {}  # parent edges left to combine, by node id
    pending = [formula]
    while pending:
        for child in _children(pending.pop()):
            if id(child) not in parents:  # its first parent: walk it once
                pending.append(child)
            parents[id(child)] = parents.get(id(child), 0) + 1
    values: dict[int, np.ndarray] = {}
    pending = [formula]
    while pending:
        f = pending[-1]
        children = _children(f)
        unevaluated = [c for c in children if id(c) not in values]
        if unevaluated:
            pending.append(unevaluated[0])
            continue
        pending.pop()
        values[id(f)] = _combine(trace, f, [values[id(c)] for c in children])
        for c in children:
            parents[id(c)] -= 1
            if not parents[id(c)]:
                del values[id(c)]
    return values[id(formula)]


def _combine(trace: TraceFlags, f: Formula, args: list) -> np.ndarray:
    if isinstance(f, Atom):
        try:
            return getattr(trace, ATOMS[f.name])
        except KeyError:
            raise EvaluationError(
                f"unknown atom {f.name!r}; registered atoms: {sorted(ATOMS)}"
            ) from None
    if isinstance(f, Not):
        return ~args[0]
    if isinstance(f, And):
        return args[0] & args[1]
    if isinstance(f, Or):
        return args[0] | args[1]
    if isinstance(f, Implies):
        return ~args[0] | args[1]
    return _window(args[0], f.lo, f.hi, every=isinstance(f, Globally))


def _window(x: np.ndarray, lo: int, hi: int, every: bool) -> np.ndarray:
    """G[lo,hi] x (every=True) or F[lo,hi] x at every step, from counts of
    true values over each window of x padded past its end by its last."""
    n = len(x)
    # Offsets at or beyond n all fall past the last step: clipping them
    # keeps the arithmetic small for any window width.
    lo, hi = min(lo, n), min(hi, n)
    counts = np.cumsum(np.concatenate(([False], x, np.full(hi, x[-1]))), dtype=np.intp)
    inside = counts[hi + 1:hi + 1 + n] - counts[lo:lo + n]
    return inside == hi - lo + 1 if every else inside > 0


def _window_at(x: np.ndarray, i: int, lo: int, hi: int, every: bool) -> bool:
    """G[lo,hi] x (every=True) or F[lo,hi] x at step i alone: one window of
    x, clipped to its end, so an offset past the end reads the last step."""
    n = len(x)
    inside = x[min(i + lo, n - 1):min(i + hi + 1, n)]
    return bool(inside.all() if every else inside.any())


def safety_formula(horizon: int) -> Formula:
    """Blame-freedom under best-effort reaction over [0, horizon]."""
    return Globally(0, horizon, Implies(Atom("BER"), Not(Atom("Y"))))


def vehicle_safe(trace: TraceFlags) -> bool:
    """True iff the vehicle is never responsible while holding max brake."""
    return evaluate(trace, 0, safety_formula(trace.last_index))


def _check_common_horizon(traces: Sequence[TraceFlags]):
    if not traces:
        return
    dt = traces[0].dt
    horizon = len(traces[0])
    for trace in traces[1:]:
        if trace.dt != dt or len(trace) != horizon:
            raise InvalidInputError(
                f"trace {trace.vehicle_id}: dt/horizon mismatch "
                f"({trace.dt}, {len(trace)}) vs ({dt}, {horizon})"
            )


def safety_verdicts(traces: Sequence[TraceFlags]) -> list[bool]:
    """vehicle_safe of every trace, once the traces share dt and horizon."""
    _check_common_horizon(traces)
    return [vehicle_safe(t) for t in traces]


def road_safe(traces: Sequence[TraceFlags]) -> bool:
    """True iff every vehicle on the road is in the safe state."""
    return all(safety_verdicts(traces))


def sdt(traces: Sequence[TraceFlags]) -> int:
    """Safe-driving throughput: the number of vehicles in the safe state."""
    return sum(safety_verdicts(traces))


# ---------------------------------------------------------------------------
# Formula text syntax
#
#   formula  := or ('->' formula)?          right-associative implication
#   or       := and ('|' and)*
#   and      := unary ('&' unary)*
#   unary    := '!' unary
#             | ('G' | 'F') '[' int ',' int ']' unary
#             | atom
#             | '(' formula ')'
#
# Each '!', temporal operator, parenthesis and '->' right side nests one
# level; the parser recurses once per level, so it refuses formulas nested
# deeper than MAX_NESTING instead of exhausting the interpreter stack.

MAX_NESTING = 100

def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if text.startswith("->", pos):
            tokens.append(("sym", "->", pos))
            pos += 2
            continue
        if ch in "()[],!&|":
            tokens.append(("sym", ch, pos))
            pos += 1
            continue
        # Bounds are ASCII digits: str.isdigit also takes '²', which int()
        # refuses, and '٣' or '１', which it reads as digits.
        if "0" <= ch <= "9":
            start = pos
            while pos < n and "0" <= text[pos] <= "9":
                pos += 1
            tokens.append(("int", text[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        raise FormulaError(f"unexpected character {ch!r} at position {pos}")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok is None:
            raise FormulaError(f"unexpected end of formula {self.text!r}")
        if kind is not None and tok[0] != kind:
            raise FormulaError(
                f"expected {kind} at position {tok[2]}, got {tok[1]!r}"
            )
        if value is not None and tok[1] != value:
            raise FormulaError(
                f"expected {value!r} at position {tok[2]}, got {tok[1]!r}"
            )
        self.pos += 1
        return tok

    def nested(self, parse) -> Formula:
        """Run parse() one nesting level deeper."""
        if self.depth == MAX_NESTING:
            tok = self.peek()
            where = f"position {tok[2]}" if tok else "the end"
            raise FormulaError(
                f"formula nests deeper than {MAX_NESTING} levels at {where}"
            )
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def bound(self) -> int:
        _, digits, pos = self.take("int")
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise FormulaError(
                f"interval bound at position {pos} has too many digits ({len(digits)})"
            ) from None

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok is not None:
            raise FormulaError(f"trailing input at position {tok[2]}: {tok[1]!r}")
        return f

    def formula(self) -> Formula:
        left = self.disjunction()
        tok = self.peek()
        if tok and tok[:2] == ("sym", "->"):
            self.take()
            return Implies(left, self.nested(self.formula))
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while True:
            tok = self.peek()
            if tok and tok[:2] == ("sym", "|"):
                self.take()
                left = Or(left, self.conjunction())
            else:
                return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while True:
            tok = self.peek()
            if tok and tok[:2] == ("sym", "&"):
                self.take()
                left = And(left, self.unary())
            else:
                return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaError(f"unexpected end of formula {self.text!r}")
        if tok[:2] == ("sym", "!"):
            self.take()
            return Not(self.nested(self.unary))
        if tok[0] == "name" and tok[1] in ("G", "F"):
            op = self.take()[1]
            self.take("sym", "[")
            lo = self.bound()
            self.take("sym", ",")
            hi = self.bound()
            self.take("sym", "]")
            child = self.nested(self.unary)
            return Globally(lo, hi, child) if op == "G" else Finally(lo, hi, child)
        if tok[0] == "name":
            return Atom(self.take()[1])
        if tok[:2] == ("sym", "("):
            self.take()
            inner = self.nested(self.formula)
            self.take("sym", ")")
            return inner
        raise FormulaError(f"unexpected token {tok[1]!r} at position {tok[2]}")


def parse_formula(text: str) -> Formula:
    """Parse the textual formula syntax; raises FormulaError with positions."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Trace CSV
#
# Columns: t, vehicle_id, position_m, velocity_mps, ber, collided,
# responsible, plus an optional trailing info_source column recording where
# a cooperative follower got its front-car information from. Floats are
# written with repr() so identical runs produce byte-identical files.

TRACE_CSV_COLUMNS = (
    "t",
    "vehicle_id",
    "position_m",
    "velocity_mps",
    "ber",
    "collided",
    "responsible",
)

# One parsed CSV row, fields in TRACE_CSV_COLUMNS order.
_ROW_DTYPE = np.dtype(
    [
        ("t", np.float64),
        ("vehicle_id", object),
        ("position", np.float64),
        ("velocity", np.float64),
        ("ber", np.int64),
        ("collided", np.int64),
        ("responsible", np.int64),
    ]
)


# Rows parsed by one np.loadtxt call, and rows formatted by one write.
# Only one chunk's row table and its strings are alive at a time.
_CHUNK_ROWS = 2048


def _csv_field(text: str) -> str:
    """A CSV field: quoted, inner quotes doubled, if it holds ',', '"' or a
    line break, as RFC 4180 asks."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# Each (ber, collided, responsible) triple as text, indexed by
# ber << 2 | collided << 1 | responsible.
_FLAG_FIELDS = tuple(f"{c >> 2},{c >> 1 & 1},{c & 1}" for c in range(8))

# The flag columns, by their bit in a packed flags byte.
_FLAG_BITS = (("ber", 4), ("collided", 2), ("responsible", 1))


def _pack_flags(ber: np.ndarray, collided: np.ndarray, responsible: np.ndarray) -> np.ndarray:
    """Each row's three bool flags as one byte: ber << 2 | collided << 1 |
    responsible."""
    return ber.view(np.uint8) << 2 | collided.view(np.uint8) << 1 | responsible.view(np.uint8)


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal consecutive values."""
    changed = np.empty(len(values), dtype=bool)
    changed[:1] = True
    np.not_equal(values[1:], values[:-1], out=changed[1:])
    starts = np.flatnonzero(changed)
    return starts, np.diff(starts, append=len(values))


def _float_fields(column: np.ndarray) -> np.ndarray:
    """Each value's repr() plus ',', as an object array. A run of equal
    values is formatted once; runs are split on the bits, so -0.0 and 0.0
    keep their own text."""
    starts, lengths = _runs(column.view(np.int64))
    fields = np.array([f"{x!r}," for x in column[starts].tolist()], dtype=object)
    return np.repeat(fields, lengths)


def _time_key(trace: Trace) -> tuple:
    # An int dt writes int times, so 1 and 1.0 need their own entries.
    return len(trace), trace.dt, type(trace.dt)


def write_traces_csv(
    traces: Sequence[Trace],
    stream,
    info_sources: dict[str, str] | None = None,
) -> None:
    """Write the traces as CSV, reading each trace's columns once and
    writing its rows _CHUNK_ROWS at a time.

    Each piece of rows is assembled from per-column strings: a position or
    velocity is formatted once per run of equal values, and the flags come
    from an 8-entry table, so the Python work grows with the distinct
    values rather than the rows. The times of a (length, dt) that several
    traces share are formatted once, kept as one string per piece, and
    dropped once the last of those traces is written. So the writer holds
    one piece of text at a time, not a table of a whole trace's rows. A
    trace whose times overflow is refused before anything is written.
    """
    for trace in traces:
        dt, last = trace.dt, len(trace) - 1
        if isinstance(dt, int):  # int64 times, which numpy wraps or refuses
            fits = max(dt, last * dt) <= np.iinfo(np.int64).max
        else:  # float64 times; a Python float overflows to inf without a warning
            fits = math.isfinite(last * float(dt))
        if not fits:
            raise InvalidInputError(
                f"trace {trace.vehicle_id}: times overflow: dt = {dt} over {len(trace)} steps"
            )
    columns = list(TRACE_CSV_COLUMNS)
    if info_sources:
        columns.append("info_source")
    stream.write(",".join(columns) + "\n")
    uses = Counter(map(_time_key, traces))
    times: dict[tuple, list[str]] = {}
    for trace in traces:
        n, dt = len(trace), trace.dt
        key = _time_key(trace)
        uses[key] -= 1
        cached = times.get(key) if uses[key] else times.pop(key, None)
        # The first of several traces of one (length, dt) keeps its times.
        kept = times.setdefault(key, []) if cached is None and uses[key] else None
        source = info_sources.get(trace.vehicle_id, "") if info_sources else None
        end = "\n" if source is None else f",{_csv_field(source)}\n"
        ends = np.array([f + end for f in _FLAG_FIELDS], dtype=object)
        vid = f",{_csv_field(trace.vehicle_id)},"
        position, velocity, ber, collided, responsible = trace._columns()
        for piece, lo in enumerate(range(0, n, _CHUNK_ROWS)):
            hi = min(lo + _CHUNK_ROWS, n)
            if cached is None:
                # Time reprs hold no ',', so one joined string keeps them.
                text = ",".join(map(repr, (np.arange(lo, hi) * dt).tolist()))
                if kept is not None:
                    kept.append(text)
            else:
                text = cached[piece]
            flags = _pack_flags(ber[lo:hi], collided[lo:hi], responsible[lo:hi])
            fields = np.empty((hi - lo, 5), dtype=object)
            fields[:, 0] = text.split(",")
            fields[:, 1] = vid
            fields[:, 2] = _float_fields(position[lo:hi])
            fields[:, 3] = _float_fields(velocity[lo:hi])
            fields[:, 4] = ends[flags]
            stream.write("".join(fields.ravel().tolist()))


# numpy's message for a row with fewer fields than a column it reads.
_SHORT_ROW = re.compile(r"invalid column index \d+ at row \d+ with (\d+) columns")

def _load_rows(lines, usecols, max_rows) -> np.ndarray:
    with warnings.catch_warnings():
        # No data rows (or blank lines not counted towards max_rows).
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(
            lines,
            dtype=_ROW_DTYPE,
            delimiter=",",
            quotechar='"',
            comments=None,
            usecols=usecols,
            ndmin=1,
            max_rows=max_rows,
        )


def _locate(stream, row: int | None = None) -> int:
    """Read the stream again from its start, one decoded line at a time
    (DecodedLines), and parse it as the fast pass does: the header, then the
    data rows in _CHUNK_ROWS chunks, keeping none. Given a data row index
    (0-based), return that row's file line number. Otherwise refuse what
    comes first in the file: a bad header, a row that fails to parse, or a
    line that fails to decode."""
    lines = DecodedLines(stream)
    header = next(iter(lines), None)  # None: the header does not decode
    if header is not None:
        usecols = _usecols(header)
        rows = math.inf if row is None else row + 1
        try:
            while rows > 0:
                size = min(rows, _CHUNK_ROWS)
                if len(_load_rows(lines, usecols, size)) < size:
                    break
                rows -= size
        except ValueError as exc:
            raise InvalidInputError(
                f"trace CSV line {lines.count}: {_parse_failure(exc, usecols)}"
            ) from None
        if rows == 0:
            return lines.count
    # The lines stopped before one that fails to decode.
    raise InvalidInputError(f"trace CSV {lines.undecodable()}") from None


def _parse_failure(exc: ValueError, usecols) -> str:
    """numpy's reason a row fails to parse, a short row's missing fields
    named."""
    short = _SHORT_ROW.match(str(exc))
    if short is None:
        return str(exc).split(" at row ")[0]
    fields = int(short[1])
    missing = [name for name, col in zip(TRACE_CSV_COLUMNS, usecols) if col >= fields]
    return f"missing field{'s' * (len(missing) > 1)} {', '.join(map(repr, missing))}"


def _usecols(header: str) -> list[int]:
    """Each TRACE_CSV_COLUMNS column's index in the header line; a missing
    or repeated one is refused."""
    fieldnames = next(csv.reader([header]))
    missing = [c for c in TRACE_CSV_COLUMNS if c not in fieldnames]
    if missing:
        raise InvalidInputError(f"trace CSV missing columns: {missing}")
    repeated = [c for c in TRACE_CSV_COLUMNS if fieldnames.count(c) > 1]
    if repeated:
        raise InvalidInputError(f"trace CSV repeats columns: {repeated}")
    return [fieldnames.index(c) for c in TRACE_CSV_COLUMNS]


def _read_chunks(stream, usecols) -> tuple[dict[str, int], list[tuple]]:
    """Parse the data rows chunk by chunk, regroup a chunk stably by vehicle
    if one comes in several runs, and append its rows to each vehicle's own
    buffers: a bytearray of t float64s and one of packed flag bytes.
    Returns each vehicle's code (its index in order of first appearance) by
    id, and the buffers by code. A row that fails to parse raises at once;
    a non-finite value or negative velocity is refused only once every row
    has parsed, so a malformed row anywhere wins."""
    ids: dict[str, int] = {}
    buffers: list[tuple[bytearray, bytearray]] = []
    first_bad = None  # (row, t, position, velocity)
    lines = iter(stream)
    parsed = 0
    while True:
        rows = _load_rows(lines, usecols, _CHUNK_ROWS)
        n = len(rows)
        if not n:
            break
        if first_bad is None:
            t, position, velocity = rows["t"], rows["position"], rows["velocity"]
            bad = np.flatnonzero(~(
                np.isfinite(t) & np.isfinite(position) & np.isfinite(velocity) & (velocity >= 0)
            ))
            if bad.size:
                k = bad[0]
                first_bad = (parsed + k, t[k], position[k], velocity[k])
            del t, position, velocity  # views that would keep the row table
        # One dict lookup per run of rows with the same id.
        vehicle_ids = rows["vehicle_id"]
        starts, lengths = _runs(vehicle_ids)
        codes = np.fromiter((ids.setdefault(vid, len(ids)) for vid in vehicle_ids[starts]),
                            dtype=np.intp, count=len(starts))
        buffers += [(bytearray(), bytearray()) for _ in range(len(ids) - len(buffers))]
        distinct = np.sort(codes)
        if np.any(distinct[1:] == distinct[:-1]):  # a vehicle in several runs
            row_codes = np.repeat(codes, lengths)
            order = np.argsort(row_codes, kind="stable")
            rows, row_codes = rows[order], row_codes[order]
            starts, lengths = _runs(row_codes)
            codes = row_codes[starts]
        # The chunk's t and packed flags as bytes, the t copied contiguous.
        t = memoryview(rows["t"].copy()).cast("B")
        flags = memoryview(_pack_flags(*(rows[name] != 0 for name, _ in _FLAG_BITS))).cast("B")
        del rows, vehicle_ids
        for v, lo, hi in zip(codes.tolist(), starts.tolist(), (starts + lengths).tolist()):
            times, packed = buffers[v]
            times += t[8 * lo:8 * hi]
            packed += flags[lo:hi]
        parsed += n
        if n < _CHUNK_ROWS:
            break

    if first_bad is not None:
        del buffers  # not needed to find the line
        k, t_k, position_k, velocity_k = first_bad
        raise InvalidInputError(
            f"trace CSV line {_locate(stream, k)}: t, position_m and "
            f"velocity_mps must be finite and velocity_mps >= 0, got "
            f"{t_k}, {position_k}, {velocity_k}"
        )
    return ids, buffers


def _sampling(vid: str, times: np.ndarray) -> tuple[float, np.ndarray | None]:
    """A vehicle's sampling step, which must be uniform, from its finite
    times, and the stable order that sorts them (None if they are sorted)."""
    order = None
    with np.errstate(over="ignore"):  # two finite times may be an inf step apart
        steps = times[1:] - times[:-1]
        if (steps < 0).any():  # t falls somewhere
            order = np.argsort(times, kind="stable")
            times = times[order]
            steps = times[1:] - times[:-1]
    if not len(steps):
        raise InvalidInputError(f"trace {vid}: need at least two samples")
    dt = float(steps[0])
    if dt <= 0:
        raise InvalidInputError(f"trace {vid}: non-increasing timestamps")
    if dt == math.inf:
        raise InvalidInputError(f"trace {vid}: sampling step overflows to inf")
    steps -= dt
    np.abs(steps, out=steps)
    if (steps > 1e-9 * max(1.0, abs(dt))).any():
        raise InvalidInputError(f"trace {vid}: non-uniform sampling step")
    return dt, order


def _build_traces(ids: dict[str, int], buffers: list[tuple]) -> list[TraceFlags]:
    """One TraceFlags per vehicle, in order of first appearance, each built
    from np.frombuffer views of its own buffers, which are released once it
    is built. Only a vehicle whose rows are out of order is sorted, stably
    by t."""
    traces = []
    for v, vid in enumerate(ids):
        times, packed = buffers[v]
        buffers[v] = None
        dt, order = _sampling(vid, np.frombuffer(times))
        flags = np.frombuffer(packed, dtype=np.uint8)
        if order is not None:
            flags = flags[order]
        columns = {name: (flags & bit) != 0 for name, bit in _FLAG_BITS}
        del times, packed, flags
        for column in columns.values():
            column.setflags(write=False)  # so the trace adopts it, not a copy
        traces.append(TraceFlags(vid, dt, **columns))
    return traces


def read_traces_csv(stream) -> list[TraceFlags]:
    """Parse a trace CSV from a seekable text stream (a file opened with
    newline="", which keeps a quoted line break as written, or a StringIO)
    into one TraceFlags per vehicle, in order of first appearance: the
    flags a formula's atoms read. Every field is parsed and checked,
    positions and velocities too, though they are not kept.

    Columns are found by header name; extra columns are ignored, and a
    required column named twice is refused. Each vehicle's rows are sorted
    by t (stably) and must be uniformly sampled. Numbers are decimal
    literals, flags integers (0 is false). Raises InvalidInputError naming
    the line of a malformed row or the file and line of a byte that does
    not decode, whichever comes first, else that of the first bad value,
    or the vehicle whose times are bad; only a refused read finds its
    line, reading the stream again one decoded line at a time (_locate).

    Rows are parsed _CHUNK_ROWS at a time, and each chunk's rows are
    appended to their vehicle's own buffers (_read_chunks): t as float64
    and the three flags packed in one byte, 9 bytes per row, never a string
    per row or a whole-file column. Each vehicle is built from its buffers,
    which are then released (_build_traces), and its trace keeps 3 bytes
    per row.
    """
    try:
        header = stream.readline()
        if not header:
            raise InvalidInputError("empty trace CSV")
        read = _read_chunks(stream, _usecols(header))
    except InvalidInputError:  # refused already, saying where
        raise
    except ValueError:  # a row that fails to parse, or a byte that fails to decode
        read = None
    if read is None:  # out of the except clause, whose traceback keeps the buffers
        _locate(stream)  # raises, naming the line
    return _build_traces(*read)
