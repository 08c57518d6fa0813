"""Bounded temporal-logic monitoring over finite vehicle traces.

Formulas are built from the atoms BER (best-effort reaction engaged: max
braking held until halt), C (collided) and Y (shares responsibility),
boolean connectives, and the bounded operators G[a,b] (at every step offset
in [a, b]) and F[a,b] (at some step offset in [a, b]).

Traces are finite. By default an offset past the last step reads the final
state, which is absorbing once every vehicle has halted; strict mode
instead drops out-of-range offsets (making G vacuous and F unwitnessable
there).

A trace is stored as columns (numpy arrays, one value per step), and a
formula is evaluated bottom-up over the whole trace: each subformula
becomes one boolean array, and G/F windows are counted from prefix sums,
so a formula costs O(|f| * N) on an N-step trace whatever its window
widths. A G/F root is decided at the requested step only, from its one
window over its child's array.
"""

import csv
import io
import math
import re
import warnings
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from enum import Enum
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


# Trace columns, in VehicleState field order, with their dtypes.
_COLUMNS = (
    ("position", np.float64),
    ("velocity", np.float64),
    ("ber", np.bool_),
    ("collided", np.bool_),
    ("responsible", np.bool_),
)


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


class Trace:
    """Uniformly sampled state sequence of one vehicle, stored as columns.

    `position` and `velocity` are float64 arrays, `ber`, `collided` and
    `responsible` bool arrays; all are read-only and have one entry per
    step. A column given as a read-only ndarray of its dtype is adopted as
    it is, not copied, so its owner must not write to it through another
    view; any other column is copied once and frozen. `steps` is a
    read-only sequence of VehicleState values built on demand. The trace is
    validated once, on construction: non-empty, finite positions and
    velocities, velocities >= 0, a collided flag that never turns off
    again, and a finite positive dt.
    """

    __slots__ = ("vehicle_id", "dt") + tuple(name for name, _ in _COLUMNS)

    def __init__(self, vehicle_id: str, steps: Iterable[VehicleState], dt: float):
        states = tuple(steps)
        self._set(
            vehicle_id,
            dt,
            [s.position for s in states],
            [s.velocity for s in states],
            [s.ber_active for s in states],
            [s.collided for s in states],
            [s.responsible for s in states],
        )

    @classmethod
    def from_columns(
        cls, vehicle_id: str, dt: float, *, position, velocity, ber, collided, responsible
    ) -> "Trace":
        """Build a trace from per-step columns (adopted when read-only
        ndarrays of the column's dtype, copied otherwise)."""
        trace = cls.__new__(cls)
        trace._set(vehicle_id, dt, position, velocity, ber, collided, responsible)
        return trace

    def _set(self, vehicle_id, dt, *columns):
        self.vehicle_id = vehicle_id
        self.dt = dt
        for (name, dtype), values in zip(_COLUMNS, columns):
            if not (type(values) is np.ndarray and values.dtype == dtype
                    and not values.flags.writeable):
                values = np.array(values, dtype=dtype)
                values.setflags(write=False)
            setattr(self, name, values)
        if self.position.ndim != 1 or any(
            getattr(self, name).shape != self.position.shape for name, _ in _COLUMNS
        ):
            raise InvalidInputError(f"trace {vehicle_id}: columns must be 1-D and equally long")
        if not len(self.position):
            raise InvalidInputError("Trace.steps must be non-empty")
        if not (isinstance(dt, (int, float)) and dt > 0 and math.isfinite(dt)):
            raise InvalidInputError(f"Trace.dt must be a finite positive number, got {dt}")
        k = first_bad_sample(self.position, self.velocity)
        if k is not None:
            raise bad_sample_error(vehicle_id, k, self.position[k], self.velocity[k])
        # A collision is permanent within the horizon.
        if np.any(self.collided[:-1] & ~self.collided[1:]):
            raise InvalidInputError(f"trace {vehicle_id}: collided flag must be monotone")

    def _columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name, _ in _COLUMNS)

    @property
    def steps(self) -> "TraceSteps":
        return TraceSteps(self)

    def __len__(self) -> int:
        return len(self.position)

    @property
    def last_index(self) -> int:
        return len(self) - 1

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.vehicle_id == other.vehicle_id
            and self.dt == other.dt
            and all(map(np.array_equal, self._columns(), other._columns()))
        )

    def __repr__(self) -> str:
        return f"Trace(vehicle_id={self.vehicle_id!r}, steps={len(self)}, dt={self.dt!r})"


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


# Atom name -> the Trace column holding its value at each step.
ATOMS: dict[str, str] = {"BER": "ber", "C": "collided", "Y": "responsible"}


class BoundaryMode(Enum):
    ABSORBING = "absorbing"  # offsets past the end read the final state
    STRICT = "strict"        # offsets past the end are dropped


def evaluate(
    trace: Trace,
    i: int,
    formula: Formula,
    boundary: BoundaryMode = BoundaryMode.ABSORBING,
) -> bool:
    """Evaluate a formula on a trace at step index i.

    A G/F root is decided from its window at step i alone; every
    subformula below it is still evaluated over the whole trace."""
    if not (0 <= i < len(trace)):
        raise EvaluationError(
            f"index {i} outside trace {trace.vehicle_id} of length {len(trace)}"
        )
    if isinstance(formula, (Globally, Finally)):
        x = _truth(trace, formula.child, boundary)
        return _window_at(x, i, formula.lo, formula.hi, boundary,
                          every=isinstance(formula, Globally))
    return bool(_truth(trace, formula, boundary)[i])


def _children(f: Formula) -> tuple:
    if isinstance(f, Atom):
        return ()
    if isinstance(f, (Not, Globally, Finally)):
        return (f.child,)
    if isinstance(f, (And, Or, Implies)):
        return (f.left, f.right)
    raise EvaluationError(f"unknown formula node {f!r}")


def _truth(trace: Trace, formula: Formula, boundary: BoundaryMode) -> np.ndarray:
    """The formula's truth value at every step of the trace.

    Children are evaluated before their parent from an explicit stack, so
    no formula is too deep to evaluate; a subformula shared by several
    parents is evaluated once.
    """
    values: dict[int, np.ndarray] = {}
    pending = [formula]
    while pending:
        f = pending[-1]
        if id(f) in values:
            pending.pop()
            continue
        children = _children(f)
        unevaluated = [c for c in children if id(c) not in values]
        if unevaluated:
            pending.extend(unevaluated)
            continue
        pending.pop()
        values[id(f)] = _combine(trace, f, [values[id(c)] for c in children], boundary)
    return values[id(formula)]


def _combine(trace: Trace, f: Formula, args: list, boundary: BoundaryMode) -> np.ndarray:
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
    return _window(args[0], f.lo, f.hi, boundary, every=isinstance(f, Globally))


def _window(x: np.ndarray, lo: int, hi: int, boundary: BoundaryMode, every: bool) -> np.ndarray:
    """G[lo,hi] x (every=True) or F[lo,hi] x at every step, from counts of
    true values over each window of x padded past its end."""
    n = len(x)
    # Offsets at or beyond n all fall past the last step: clipping them
    # keeps the arithmetic small for any window width.
    lo, hi = min(lo, n), min(hi, n)
    counts = np.cumsum(
        np.concatenate(([False], x, np.full(hi, _pad(x, boundary, every)))), dtype=np.intp
    )
    inside = counts[hi + 1:hi + 1 + n] - counts[lo:lo + n]
    return inside == hi - lo + 1 if every else inside > 0


def _window_at(x: np.ndarray, i: int, lo: int, hi: int, boundary: BoundaryMode,
               every: bool) -> bool:
    """G[lo,hi] x (every=True) or F[lo,hi] x at step i alone: one window of
    x, clipped to its end, plus the pad if the window reaches past it."""
    n = len(x)
    inside = x[min(i + lo, n):min(i + hi + 1, n)]
    held = inside.all() if every else inside.any()
    if i + hi >= n:
        past = _pad(x, boundary, every)
        held = (held and past) if every else (held or past)
    return bool(held)


def _pad(x: np.ndarray, boundary: BoundaryMode, every: bool):
    """What a G (every=True) or F window of x reads past the end: the final
    state if absorbing; if strict, a value that decides nothing (true for
    G, false for F)."""
    return x[-1] if boundary is BoundaryMode.ABSORBING else every


def safety_formula(horizon: int) -> Formula:
    """Blame-freedom under best-effort reaction over [0, horizon]."""
    return Globally(0, horizon, Implies(Atom("BER"), Not(Atom("Y"))))


def vehicle_safe(trace: Trace) -> bool:
    """True iff the vehicle is never responsible while holding max brake."""
    return evaluate(trace, 0, safety_formula(trace.last_index))


def _check_common_horizon(traces: Sequence[Trace]):
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


def safety_verdicts(traces: Sequence[Trace]) -> list[bool]:
    """vehicle_safe of every trace, once the traces share dt and horizon."""
    _check_common_horizon(traces)
    return [vehicle_safe(t) for t in traces]


def road_safe(traces: Sequence[Trace]) -> bool:
    """True iff every vehicle on the road is in the safe state."""
    return all(safety_verdicts(traces))


def sdt(traces: Sequence[Trace]) -> int:
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


def _csv_field(text: str) -> str:
    """A CSV field: quoted, inner quotes doubled, if it holds ',', '"' or a
    line break, as RFC 4180 asks."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# Each (ber, collided, responsible) triple as text, indexed by
# ber << 2 | collided << 1 | responsible.
_FLAG_FIELDS = tuple(f"{c >> 2},{c >> 1 & 1},{c & 1}" for c in range(8))


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


def write_traces_csv(
    traces: Sequence[Trace],
    stream,
    info_sources: dict[str, str] | None = None,
) -> None:
    """Write the traces as CSV, one write per trace, reading each trace's
    columns once.

    Each row is assembled from per-column strings: a time value is
    formatted once per (length, dt), a position or velocity once per run of
    equal values, and the flags come from an 8-entry table, so the Python
    work grows with the distinct values rather than the rows.
    """
    columns = list(TRACE_CSV_COLUMNS)
    if info_sources:
        columns.append("info_source")
    stream.write(",".join(columns) + "\n")
    times: dict[tuple, np.ndarray] = {}
    for trace in traces:
        n = len(trace)
        # An int dt writes int times, so 1 and 1.0 need their own entries.
        key = (n, trace.dt, type(trace.dt))
        if key not in times:
            times[key] = np.array(
                [f"{t!r}," for t in (np.arange(n) * trace.dt).tolist()], dtype=object
            )
        source = info_sources.get(trace.vehicle_id, "") if info_sources else None
        end = "\n" if source is None else f",{_csv_field(source)}\n"
        position, velocity, ber, collided, responsible = trace._columns()
        flags = ber.view(np.uint8) << 2 | collided.view(np.uint8) << 1 | responsible.view(np.uint8)
        fields = np.empty((n, 5), dtype=object)
        fields[:, 0] = times[key]
        fields[:, 1] = _csv_field(trace.vehicle_id) + ","
        fields[:, 2] = _float_fields(position)
        fields[:, 3] = _float_fields(velocity)
        fields[:, 4] = np.array([f + end for f in _FLAG_FIELDS], dtype=object)[flags]
        stream.write("".join(fields.ravel().tolist()))


def traces_to_csv(traces: Sequence[Trace], info_sources=None) -> str:
    buffer = io.StringIO()
    write_traces_csv(traces, buffer, info_sources)
    return buffer.getvalue()


# Rows parsed by one np.loadtxt call. Only one chunk's row table and its
# vehicle_id strings are alive at a time; what a chunk leaves behind is
# compact columns.
_CHUNK_ROWS = 16_384

# numpy's message for a row with fewer fields than a column it reads.
_SHORT_ROW = re.compile(r"invalid column index \d+ at row \d+ with (\d+) columns")

# The columns a read keeps, by _ROW_DTYPE field; vehicle_id is kept as runs.
_KEPT_FIELDS = ("t", "position", "velocity", "ber", "collided", "responsible")


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


def _read_columns(stream, usecols):
    """Parse the data rows chunk by chunk into the _KEPT_FIELDS columns, the
    vehicle ids in order of first appearance, and each run of rows of one
    vehicle as its code and length. A row that fails to parse raises at
    once; a non-finite value or negative velocity is refused only once
    every row has parsed, so a malformed row anywhere wins."""
    parts: dict[str, list] = {name: [] for name in _KEPT_FIELDS}
    run_codes, run_lengths = [], []
    ids: dict[str, int] = {}
    first_bad = None  # (row, t, position, velocity)
    lines = iter(stream)
    parsed = 0
    while True:
        rows = _load_rows(lines, usecols, _CHUNK_ROWS)
        t, position, velocity = (np.array(rows[name]) for name in _KEPT_FIELDS[:3])
        if first_bad is None:
            bad = np.flatnonzero(~(
                np.isfinite(t) & np.isfinite(position) & np.isfinite(velocity) & (velocity >= 0)
            ))
            if bad.size:
                k = bad[0]
                first_bad = (parsed + k, t[k], position[k], velocity[k])
        for name, column in zip(_KEPT_FIELDS, (t, position, velocity)):
            parts[name].append(column)
        for name in _KEPT_FIELDS[3:]:
            parts[name].append(rows[name] != 0)
        # One dict lookup per run of rows with the same id.
        vehicle_ids = rows["vehicle_id"]
        starts, lengths = _runs(vehicle_ids)
        run_codes.append(np.array(
            [ids.setdefault(vid, len(ids)) for vid in vehicle_ids[starts].tolist()],
            dtype=np.intp,
        ))
        run_lengths.append(lengths)
        n = len(rows)
        del rows, vehicle_ids
        parsed += n
        if n < _CHUNK_ROWS:
            break

    if first_bad is not None:
        k, t_k, position_k, velocity_k = first_bad
        raise InvalidInputError(
            f"trace CSV line {_locate(stream, k)}: t, position_m and "
            f"velocity_mps must be finite and velocity_mps >= 0, got "
            f"{t_k}, {position_k}, {velocity_k}"
        )
    # One column at a time, so only one column is held twice.
    columns = {name: np.concatenate(parts.pop(name)) for name in _KEPT_FIELDS}
    return columns, ids, np.concatenate(run_codes), np.concatenate(run_lengths)


def _grouped(t: np.ndarray, run_codes: np.ndarray, run_lengths: np.ndarray) -> bool:
    """Whether rows are already in np.lexsort((t, codes)) order, as the writer
    lays them out: each vehicle's rows together, vehicles in order of first
    appearance, and t non-decreasing within a vehicle."""
    if np.any(run_codes[1:] < run_codes[:-1]):
        return False
    ascending = t[1:] >= t[:-1]
    # t may fall from one vehicle's last row to the next one's first.
    ascending[np.cumsum(run_lengths)[:-1][run_codes[1:] != run_codes[:-1]] - 1] = True
    return bool(ascending.all())


def read_traces_csv(stream) -> list[Trace]:
    """Parse a trace CSV from a seekable text stream (a file opened with
    newline="", which keeps a quoted line break as written, or a StringIO)
    into one trace per vehicle, in order of first appearance.

    Columns are found by header name; extra columns are ignored, and a
    required column named twice is refused. Each vehicle's rows are sorted
    by t (stably) and must be uniformly sampled. Numbers are decimal
    literals, flags integers (0 is false). Raises InvalidInputError naming
    the line of a malformed row or the file and line of a byte that does
    not decode, whichever comes first, else that of the first bad value,
    or the vehicle whose samples are bad; only a refused read finds its
    line, reading the stream again one decoded line at a time (_locate).

    Rows are parsed _CHUNK_ROWS at a time, and a chunk keeps only compact
    columns: t, position and velocity as float64, the flags as bool, and
    vehicle ids as runs. So a read holds about 35 bytes per row plus one
    chunk. Rows are re-sorted only when they are not already grouped by
    vehicle in increasing t.
    """
    try:
        header = stream.readline()
        if not header:
            raise InvalidInputError("empty trace CSV")
        columns, ids, run_codes, run_lengths = _read_columns(stream, _usecols(header))
    except InvalidInputError:  # refused already, saying where
        raise
    except ValueError:  # a row that fails to parse, or a byte that fails to decode
        _locate(stream)  # raises, naming the line

    t = columns.pop("t")
    if not _grouped(t, run_codes, run_lengths):
        order = np.lexsort((t, np.repeat(run_codes, run_lengths)))
        t = t[order]
        for name, column in columns.items():
            columns[name] = column[order]
    # Frozen, so each trace adopts its slices as views instead of copies.
    for column in columns.values():
        column.setflags(write=False)
    counts = np.zeros(len(ids), dtype=np.intp)
    np.add.at(counts, run_codes, run_lengths)

    traces = []
    start = 0
    for vid, end in zip(ids, np.cumsum(counts).tolist()):
        times = t[start:end]
        if len(times) < 2:
            raise InvalidInputError(f"trace {vid}: need at least two samples")
        dt = float(times[1] - times[0])
        if dt <= 0:
            raise InvalidInputError(f"trace {vid}: non-increasing timestamps")
        if np.any(np.abs(np.diff(times) - dt) > 1e-9 * max(1.0, abs(dt))):
            raise InvalidInputError(f"trace {vid}: non-uniform sampling step")
        traces.append(
            Trace.from_columns(
                vid, dt, **{name: c[start:end] for name, c in columns.items()}
            )
        )
        start = end
    return traces
