"""Bounded temporal-logic evaluation, safety predicates, parsing, trace CSV."""

import csv
import gc
import io
import random
import re
import time
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdcap import (
    And,
    Atom,
    EvaluationError,
    Finally,
    FormulaError,
    Globally,
    Implies,
    InvalidInputError,
    Not,
    Or,
    ScenarioConfig,
    Trace,
    TraceFlags,
    VehicleState,
    evaluate,
    parse_formula,
    read_traces_csv,
    road_safe,
    run_scenario,
    sdt,
    vehicle_safe,
    write_traces_csv,
)
import sdcap.ltl
from sdcap.ltl import MAX_NESTING, TRACE_CSV_COLUMNS, _truth
from conftest import (
    random_formula,
    random_trace,
    reference_evaluate,
    reference_read_traces_csv,
    reference_write_traces_csv,
    scenarios,
    trace_from_states,
    traces_to_csv,
)


def make_trace(flags, vehicle_id="t", dt=0.1):
    """flags: list of (ber, collided, responsible) triples."""
    steps = [
        VehicleState(float(k), 1.0, ber, col, resp)
        for k, (ber, col, resp) in enumerate(flags)
    ]
    return trace_from_states(vehicle_id, steps, dt)


def _flags_of(traces) -> list[tuple]:
    """What a read keeps of each trace: its id, dt and flags."""
    return [(t.vehicle_id, t.dt, t.ber.tolist(), t.collided.tolist(), t.responsible.tolist())
            for t in traces]


def assert_reads_back(text, traces):
    """The trace CSV text reads back as the traces: their flags through
    read_traces_csv, which returns TraceFlags, and all their columns through
    the reference reader."""
    read = read_traces_csv(io.StringIO(text, newline=""))
    assert all(type(trace) is TraceFlags for trace in read)
    assert _flags_of(read) == _flags_of(traces)
    assert reference_read_traces_csv(io.StringIO(text, newline="")) == traces


def test_vacuous_implication_when_never_braking():
    trace = make_trace([(False, False, True)] * 8)
    horizon = len(trace) - 1
    formula = Globally(0, horizon, Implies(Atom("BER"), Not(Atom("Y"))))
    assert evaluate(trace, 0, formula) is True


def test_finally_witness_at_offset_two():
    trace = make_trace(
        [(False, False, False), (False, False, False), (False, True, False),
         (False, True, False)]
    )
    assert evaluate(trace, 0, Finally(0, 2, Atom("C"))) is True
    assert evaluate(trace, 0, Finally(0, 1, Atom("C"))) is False


def test_offsets_past_the_end_read_the_final_state():
    trace = make_trace([(False, False, False)] * 2 + [(False, True, False)])
    late_witness = Finally(3, 5, Atom("C"))
    assert evaluate(trace, 0, late_witness) is True
    late_all = Globally(3, 5, Not(Atom("C")))
    assert evaluate(trace, 0, late_all) is False


def test_evaluate_rejects_bad_index_and_unknown_atom():
    trace = make_trace([(False, False, False)])
    with pytest.raises(EvaluationError):
        evaluate(trace, 5, Atom("C"))
    with pytest.raises(EvaluationError):
        evaluate(trace, 0, Atom("SPEEDING"))


def test_interval_validation():
    with pytest.raises(FormulaError):
        Globally(3, 1, Atom("C"))
    with pytest.raises(FormulaError):
        Finally(-1, 2, Atom("C"))


def test_random_formulas_match_reference_evaluator():
    rng = random.Random(99)
    for _ in range(2000):
        trace = random_trace(rng)
        formula = random_formula(rng, rng.randrange(0, 5))
        i = rng.randrange(0, len(trace))
        assert evaluate(trace, i, formula) == reference_evaluate(trace, i, formula), (
            trace, i, formula)


def test_globally_finally_duality():
    rng = random.Random(5)
    for _ in range(500):
        trace = random_trace(rng)
        child = random_formula(rng, 2)
        lo = rng.randrange(0, 5)
        hi = lo + rng.randrange(0, 5)
        i = rng.randrange(0, len(trace))
        left = evaluate(trace, i, Not(Finally(lo, hi, child)))
        right = evaluate(trace, i, Globally(lo, hi, Not(child)))
        assert left == right


def test_vehicle_safe_flags():
    assert vehicle_safe(make_trace([(False, False, False)] * 4)) is True
    assert vehicle_safe(make_trace([(True, False, False)] * 4)) is True
    unsafe = make_trace(
        [(False, False, False), (True, True, True), (True, True, True)]
    )
    assert vehicle_safe(unsafe) is False


def test_strict_variant_formula_expressible_and_differs_from_canonical():
    # The stricter "never (braking implies blame)" reading is expressible
    # through evaluate and diverges from the canonical per-step implication
    # on any trace that never brakes: the implication is vacuously true at
    # some step, so its negated-eventually form fails while the canonical
    # safety predicate holds.
    trace = make_trace([(False, False, False)] * 5)
    horizon = len(trace) - 1
    strict = Not(Finally(0, horizon, Implies(Atom("BER"), Atom("Y"))))
    assert vehicle_safe(trace) is True
    assert evaluate(trace, 0, strict) is False


def test_road_safe_empty_is_true():
    assert road_safe([]) is True
    assert sdt([]) == 0


def test_single_unsafe_vehicle_spoils_the_road():
    good = make_trace([(True, False, False)] * 3, "a")
    bad = make_trace([(True, True, True)] * 3, "b")
    assert road_safe([good, bad]) is False
    assert sdt([good, bad]) == 1


def test_all_safe_road_has_full_throughput():
    traces = [make_trace([(True, False, False)] * 3, f"v{k}") for k in range(4)]
    assert road_safe(traces) is True
    assert sdt(traces) == len(traces)


def test_mixed_fixture_counts_three_of_five():
    traces = []
    for k in range(5):
        bad = k in (1, 3)
        traces.append(
            make_trace([(True, bad, bad)] * 4, f"v{k}")
        )
    assert sdt(traces) == 3
    assert road_safe(traces) is False


def test_sdt_never_exceeds_vehicle_count_and_matches_road_safe():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randrange(0, 6)
        traces = [random_trace(rng, max_len=8, vehicle_id=f"v{k}") for k in range(n)]
        # force a common horizon
        horizon = min((len(t) for t in traces), default=0)
        traces = [trace_from_states(t.vehicle_id, t.steps[:horizon], t.dt) for t in traces]
        count = sdt(traces)
        assert 0 <= count <= n
        assert road_safe(traces) == (count == n)


def test_mismatched_horizons_rejected():
    a = make_trace([(False, False, False)] * 3, "a")
    b = make_trace([(False, False, False)] * 4, "b")
    with pytest.raises(InvalidInputError):
        road_safe([a, b])
    c = make_trace([(False, False, False)] * 3, "c", dt=0.2)
    with pytest.raises(InvalidInputError):
        sdt([a, c])


def test_collision_flag_must_be_monotone():
    with pytest.raises(InvalidInputError):
        make_trace([(False, True, False), (False, False, False)])


def test_trace_csv_round_trip():
    rng = random.Random(13)
    traces = [random_trace(rng, vehicle_id=f"v{k}") for k in range(3)]
    text = io.StringIO()
    write_traces_csv(traces, text)
    assert_reads_back(text.getvalue(), traces)


def test_trace_csv_with_provenance_column_round_trips():
    rng = random.Random(14)
    traces = [random_trace(rng, vehicle_id=f"v{k}") for k in range(2)]
    text = io.StringIO()
    write_traces_csv(traces, text, info_sources={"v0": "response", "v1": "none"})
    header = text.getvalue().splitlines()[0]
    assert header.endswith("info_source")
    assert_reads_back(text.getvalue(), traces)


def test_trace_csv_quotes_fields_holding_commas_or_quotes():
    rng = random.Random(15)
    traces = [random_trace(rng, vehicle_id=vid) for vid in ("car,1", 'a"b', "plain")]
    sources = {"car,1": "x,y", 'a"b': 'say "hi"', "plain": "none"}
    text = traces_to_csv(traces, sources)
    assert '\n0.0,"car,1",' in text and '\n0.0,"a""b",' in text
    assert "\n0.0,plain," in text
    assert_reads_back(text, traces)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert {row["vehicle_id"]: row["info_source"] for row in rows} == sources
    # A line break is quoted too, and reads back from a stream that keeps
    # line ends as they are (newline="").
    ids = ("l\nv0", "l\rv1", "l\r\nv2")
    traces = [columnar(5, k, vehicle_id=vid) for k, vid in enumerate(ids)]
    sources = {vid: vid.replace("l", "res", 1) for vid in ids}
    text = traces_to_csv(traces, sources)
    assert '\n0.0,"l\nv0",' in text and ',"res\r\nv2"\n' in text
    assert_reads_back(text, traces)
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    assert {row["vehicle_id"]: row["info_source"] for row in rows} == sources


def test_trace_csv_missing_column_rejected():
    with pytest.raises(InvalidInputError):
        read_traces_csv(io.StringIO("t,vehicle_id,position_m\n0.0,a,1.0\n"))


# ---------------------------------------------------------------------------
# Formula text syntax


def test_parse_simple_atoms_and_connectives():
    assert parse_formula("BER") == Atom("BER")
    assert parse_formula("!BER") == Not(Atom("BER"))
    assert parse_formula("BER -> !Y") == Implies(Atom("BER"), Not(Atom("Y")))


def test_parse_temporal_operators():
    f = parse_formula("G[0,10](BER -> !Y)")
    assert f == Globally(0, 10, Implies(Atom("BER"), Not(Atom("Y"))))
    g = parse_formula("F[2,4] C")
    assert g == Finally(2, 4, Atom("C"))


def test_parse_precedence_and_associativity():
    f = parse_formula("!BER & C | Y -> F[0,2] C")
    # ((!BER & C) | Y) -> F[0,2] C
    assert isinstance(f, Implies)
    assert f.right == Finally(0, 2, Atom("C"))
    # implication is right-associative
    g = parse_formula("BER -> C -> Y")
    assert g == Implies(Atom("BER"), Implies(Atom("C"), Atom("Y")))


def test_parsed_formula_evaluates_like_the_ast():
    trace = make_trace(
        [(True, False, False), (True, True, False), (True, True, True)]
    )
    text = "G[0,2](BER -> !Y) | F[0,1] C"
    built = parse_formula(text)
    assert evaluate(trace, 0, built) == reference_evaluate(trace, 0, built)


@pytest.mark.parametrize(
    "bad",
    ["G[0,", "BER &", "(BER", "G[2,1] BER", "G[a,b] BER", "BER @ C", "", "->", "G BER",
     # Bounds are ASCII decimal integers that int() converts.
     "G[0,²] BER", "G[0,٣] BER", "G[0,１０] BER",
     pytest.param("G[0," + "9" * 5000 + "] BER", id="G[0,<5000 digits>] BER")],
)
def test_malformed_formulas_rejected(bad):
    with pytest.raises(FormulaError):
        parse_formula(bad)


def test_parser_reports_positions():
    with pytest.raises(FormulaError, match="position"):
        parse_formula("BER @@ C")


@pytest.mark.parametrize("bound, named", [
    ("²", "unexpected character '²' at position 4"),
    ("٣", "unexpected character '٣' at position 4"),
    ("１０", "unexpected character '１' at position 4"),
    pytest.param("9" * 5000, "interval bound at position 4 has too many digits (5000)",
                 id="5000 digits"),
])
def test_formula_bounds_are_ascii_integers_refused_with_a_position(bound, named):
    with pytest.raises(FormulaError, match=re.escape(named)):
        parse_formula(f"G[0,{bound}] BER")


def test_deeply_nested_formula_is_refused_by_the_parser():
    for text in ("!" * 3000 + "BER", "(" * 3000 + "BER" + ")" * 3000,
                 "BER -> " * 3000 + "BER", "G[0,1] " * 3000 + "BER"):
        with pytest.raises(FormulaError, match="nests deeper"):
            parse_formula(text)


def test_nesting_limit_is_exact():
    at_limit = "!" * MAX_NESTING + "BER"
    formula = parse_formula(at_limit)
    trace = make_trace([(True, False, False)] * 3)
    assert evaluate(trace, 0, formula) == reference_evaluate(trace, 0, formula)
    with pytest.raises(FormulaError):
        parse_formula("!" + at_limit)


def test_long_flat_chains_parse_and_evaluate():
    # '&' and '|' chains build left-deep trees without nesting the parser;
    # the evaluator walks any depth without recursing.
    trace = make_trace([(True, False, False), (True, False, True)])
    assert evaluate(trace, 0, parse_formula(" & ".join(["BER"] * 5000))) is True
    assert evaluate(trace, 1, parse_formula(" | ".join(["C"] * 5000 + ["Y"]))) is True
    deep = Atom("BER")
    for _ in range(5000):
        deep = Not(Not(deep))
    assert evaluate(trace, 0, deep) is True


def test_unknown_atom_rejected_in_a_short_circuited_branch():
    trace = make_trace([(True, False, False)] * 2)
    with pytest.raises(EvaluationError, match="SPEEDING"):
        evaluate(trace, 0, parse_formula("BER | SPEEDING"))


def test_astronomical_window_is_clipped_to_the_trace():
    trace = make_trace([(k >= 4, k >= 7, False) for k in range(10)])
    texts = ("G[0,99999999999999999999] BER", "F[99999999999999999999,"
             "99999999999999999999] C", "F[3,99999999999999999999] !BER")
    started = time.process_time()
    verdicts = [[evaluate(trace, i, parse_formula(text)) for i in range(10)]
                for text in texts]
    assert time.process_time() - started < 0.5
    clipped = [Globally(0, 20, Atom("BER")), Finally(20, 20, Atom("C")),
               Finally(3, 20, Not(Atom("BER")))]
    assert verdicts == [[reference_evaluate(trace, i, f) for i in range(10)]
                        for f in clipped]


# ---------------------------------------------------------------------------
# Columnar traces


def columnar(n, seed, switch=0.05, vehicle_id="t"):
    """An n-step trace whose flags hold for runs of about 1/switch steps."""
    rng = np.random.default_rng(seed)

    def runs():
        return (np.cumsum(rng.random(n) < switch) + rng.integers(2)) % 2 == 1

    return Trace(
        vehicle_id, 0.1,
        position=rng.uniform(-100.0, 100.0, n),
        velocity=rng.uniform(0.0, 30.0, n),
        ber=runs(),
        collided=np.arange(n) >= rng.integers(0, n + 3),
        responsible=runs(),
    )


def test_steps_view_builds_states_on_demand():
    trace = columnar(50, 1)
    states = list(trace.steps)
    assert len(trace.steps) == len(trace) == 50 and trace.last_index == 49
    assert trace.steps[0] == states[0] and trace.steps[-1] == states[-1]
    assert trace.steps[10:20] == tuple(states[10:20])
    assert trace.steps[::-7] == tuple(states[::-7])
    assert isinstance(trace.steps[3].position, float)
    assert isinstance(trace.steps[3].ber_active, bool)
    assert trace_from_states("t", trace.steps, 0.1) == trace
    assert trace_from_states("t", trace.steps[:49], 0.1) != trace
    with pytest.raises(IndexError):
        trace.steps[50]


def test_trace_columns_are_read_only_copies():
    position = np.zeros(3)
    trace = Trace("t", 0.1, position=position, velocity=[1.0] * 3, ber=[0, 1, 1],
                  collided=[False] * 3, responsible=[False] * 3)
    position[0] = 5.0
    assert trace.position[0] == 0.0
    with pytest.raises(ValueError):
        trace.position[0] = 1.0
    assert trace.ber.dtype == bool and trace.ber.tolist() == [False, True, True]


def test_trace_adopts_read_only_arrays_of_the_column_dtype():
    def frozen(array):
        array.setflags(write=False)
        return array

    position = frozen(np.arange(3.0))
    ber = frozen(np.array([False, True, True]))
    velocity = frozen(np.ones(3, dtype=np.float32))  # read-only, but not float64
    trace = Trace("t", 0.1, position=position, velocity=velocity, ber=ber,
                  collided=[False] * 3, responsible=[False] * 3)
    assert trace.position is position and trace.ber is ber
    assert trace.velocity.dtype == np.float64 and not trace.velocity.flags.writeable
    assert not np.shares_memory(trace.velocity, velocity)
    # An adopted column is validated like a copied one.
    with pytest.raises(InvalidInputError, match="step 1"):
        Trace("t", 0.1, position=frozen(np.array([0.0, np.nan, 0.0])),
              velocity=[1.0] * 3, ber=ber, collided=[False] * 3, responsible=[False] * 3)


@pytest.mark.parametrize(
    "changes",
    [
        {"position": [0.0, float("nan"), 0.0]},
        {"velocity": [1.0, float("inf"), 1.0]},
        {"velocity": [1.0, -0.5, 1.0]},
        {"collided": [True, False, False]},
        {"ber": [False, False]},
        {name: [] for name in ("position", "velocity", "ber", "collided", "responsible")},
        {"dt": float("nan")},
        {"dt": 0.0},
        {"dt": 10**400},  # an int past the largest double
        {"dt": 10**5000},  # too long to print in decimal
        {"dt": True},
    ],
)
def test_trace_rejects_invalid_columns(changes):
    columns = dict(dt=0.1, position=[0.0] * 3, velocity=[1.0] * 3, ber=[False] * 3,
                   collided=[False] * 3, responsible=[False] * 3)
    with pytest.raises(InvalidInputError, match="^trace t: "):
        Trace("t", **dict(columns, **changes))


def _refusal(make, **columns):
    try:
        make("t", **columns)
    except InvalidInputError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "changes",
    [
        {"collided": [True, False, False]},
        {"ber": [False, False]},
        {"responsible": [[False]] * 3},
        {name: [] for name in ("ber", "collided", "responsible")},
        {"dt": float("nan")},
        {"dt": 0.0},
        {"dt": 0.0, "collided": [True, False, False]},
        {"dt": 10**5000},
        {"dt": True},
    ],
)
def test_trace_flags_refuse_what_a_trace_refuses_with_its_message(changes):
    flags = dict(dt=0.1, ber=[False] * 3, collided=[False] * 3, responsible=[False] * 3)
    flags.update(changes)
    n = len(flags["ber"])
    message = _refusal(Trace, position=[0.0] * n, velocity=[1.0] * n, **flags)
    assert message is not None
    assert _refusal(TraceFlags, **flags) == message


def test_trace_flags_are_what_formulas_read():
    trace = columnar(200, 4)
    flags = TraceFlags("t", 0.1, ber=trace.ber, collided=trace.collided,
                       responsible=trace.responsible)
    assert isinstance(trace, TraceFlags) and not isinstance(flags, Trace)
    assert flags.ber is trace.ber  # a read-only bool column is adopted
    assert len(flags) == len(trace) == 200 and flags.last_index == 199
    assert flags != trace and trace != flags
    assert flags == TraceFlags("t", 0.1, ber=list(trace.ber), collided=trace.collided,
                               responsible=trace.responsible)
    assert repr(flags) == "TraceFlags(vehicle_id='t', steps=200, dt=0.1)"
    assert repr(trace) == "Trace(vehicle_id='t', steps=200, dt=0.1)"
    rng = random.Random(4)
    for _ in range(50):
        formula = random_formula(rng, 4)
        at = rng.randrange(200)
        assert evaluate(flags, at, formula) == evaluate(trace, at, formula)
    assert vehicle_safe(flags) == vehicle_safe(trace)
    assert sdt([flags, trace]) == 2 * vehicle_safe(trace)


@st.composite
def rooted_windows(draw, n):
    """A G or F root whose window may start or end before, at or past the
    end of an n-step trace, over a child that may nest windows of its own."""

    def child(depth):
        if depth == 0 or draw(st.booleans()):
            return Atom(draw(st.sampled_from(("BER", "C", "Y"))))
        kind = draw(st.sampled_from(("not", "and", "implies", "G", "F")))
        if kind == "not":
            return Not(child(depth - 1))
        if kind == "and":
            return And(child(depth - 1), child(depth - 1))
        if kind == "implies":
            return Implies(child(depth - 1), child(depth - 1))
        lo = draw(st.integers(0, n + 2))
        hi = lo + draw(st.integers(0, n + 2))
        return (Globally if kind == "G" else Finally)(lo, hi, child(depth - 1))

    lo = draw(st.integers(0, n + 3))
    hi = lo + draw(st.integers(0, n + 3))
    return draw(st.sampled_from((Globally, Finally)))(lo, hi, child(3))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 12))
def test_root_window_at_one_step_matches_the_whole_trace_truth(data, n):
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    ber, responsible = data.draw(flags), data.draw(flags)
    collide_from = data.draw(st.integers(0, n + 1))  # may be past the end
    trace = make_trace([(ber[k], k >= collide_from, responsible[k]) for k in range(n)])
    formula = data.draw(rooted_windows(n))
    whole = _truth(trace, formula)
    for i in range(n):
        verdict = evaluate(trace, i, formula)
        assert verdict == whole[i] == reference_evaluate(trace, i, formula), (
            i, formula)


@st.composite
def wide_formulas(draw, n):
    """Boolean combinations of temporal operators whose windows may start
    past the end and be twice the trace long, over narrow-window children.
    Only the outer operators are wide, so the reference stays affordable."""

    def narrow(depth):
        if depth == 0 or draw(st.booleans()):
            return Atom(draw(st.sampled_from(("BER", "C", "Y"))))
        kind = draw(st.sampled_from(("not", "and", "implies", "G", "F")))
        if kind == "not":
            return Not(narrow(depth - 1))
        if kind == "and":
            return And(narrow(depth - 1), narrow(depth - 1))
        if kind == "implies":
            return Implies(narrow(depth - 1), narrow(depth - 1))
        lo = draw(st.integers(0, 3))
        hi = lo + draw(st.integers(0, 3))
        op = Globally if kind == "G" else Finally
        return op(lo, hi, Atom(draw(st.sampled_from(("BER", "C", "Y")))))

    def wide():
        lo = draw(st.one_of(st.integers(0, 10), st.integers(0, n + 10)))
        hi = lo + draw(st.one_of(st.integers(0, 10), st.integers(n // 2, 2 * n)))
        op = draw(st.sampled_from((Globally, Finally)))
        return op(lo, hi, narrow(1))

    left = wide()
    combine = draw(st.sampled_from(("none", "not", "or", "implies")))
    if combine == "not":
        return Not(left)
    if combine == "or":
        return Or(left, wide())
    if combine == "implies":
        return Implies(narrow(2), left)
    return left


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(100, 2000), seed=st.integers(0, 2**32 - 1),
       switch=st.sampled_from((0.002, 0.02, 0.2)))
def test_long_traces_and_wide_windows_match_reference(data, n, seed, switch):
    trace = columnar(n, seed, switch)
    formula = data.draw(wide_formulas(n))
    # The reference only reads trace.steps; give it a materialised tuple.
    materialised = SimpleNamespace(steps=tuple(trace.steps))
    # Check where some window edge crosses the end of the trace, and at
    # both ends and one random step.
    indices = {0, n - 1, data.draw(st.integers(0, n - 1))}
    pending = [formula]
    while pending:
        f = pending.pop()
        pending.extend(getattr(f, name) for name in ("child", "left", "right") if hasattr(f, name))
        if isinstance(f, (Globally, Finally)):
            indices.update(i for edge in (f.lo, f.hi) for i in (n - edge - 1, n - edge)
                           if 0 <= i < n)
    for i in sorted(indices):
        assert evaluate(trace, i, formula) == reference_evaluate(
            materialised, i, formula
        ), (i, formula)


def test_shared_subformulas_match_reference():
    # Formula DAGs: each node is built from earlier ones, so a node may have
    # several parents, or the same child twice, as in And(x, x). Each node
    # is evaluated once, and its array must outlive its first parent.
    rng = random.Random(21)
    for _ in range(300):
        trace = random_trace(rng)
        pool = [Atom(name) for name in ("BER", "C", "Y")]
        for _ in range(6):
            x, y = rng.choice(pool), rng.choice(pool)
            lo = rng.randrange(0, 4)
            pool.append(rng.choice((
                And(x, x), Or(x, y), Implies(x, Not(x)), And(Not(x), y),
                Globally(lo, lo + rng.randrange(0, 3), x),
                Finally(lo, lo + rng.randrange(0, 3), Or(x, y)),
            )))
        formula = Or(pool[-1], And(pool[-2], pool[-1]))
        for i in range(len(trace)):
            assert evaluate(trace, i, formula) == reference_evaluate(trace, i, formula), (
                trace, i, formula)


@pytest.mark.parametrize("text", [
    " & ".join(["BER"] * 500),
    " | ".join(["(!BER & !Y)"] * 500),
], ids=["and_chain", "or_chain"])
def test_a_long_chain_holds_a_few_arrays_not_one_per_term(text):
    # 500 terms on 20,000 steps. A subformula's array is dropped once its
    # last parent has combined it, and a left subtree is finished before
    # the right one starts, so a left-deep chain holds a few 20 KB arrays
    # at a time. One array per node would take 10 MB, or 30 MB for the
    # second chain.
    trace = columnar(20_000, 4, 0.2)
    formula = parse_formula(text)
    gc.collect()
    tracemalloc.start()
    try:
        verdicts = [evaluate(trace, i, formula) for i in (0, 19_999)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts == [reference_evaluate(trace, i, formula) for i in (0, 19_999)]
    assert peak <= 1_000_000, peak


# ---------------------------------------------------------------------------
# Trace CSV writer against the reference writer

# Few distinct values, so that runs form and -0.0 meets 0.0.
_POSITIONS = st.sampled_from((0.0, -0.0, -2.5, 0.1 + 0.2, 5e-324, 27.78, 1e22))
_VELOCITIES = st.sampled_from((0.0, -0.0, 0.1 + 0.2, 5e-324, 27.78))
_NAMES = st.sampled_from(("v", "car,1", 'a"b', '"', ",", "l\nv", "l\r\nv", "\r"))


def _columns(position, velocity, ber=None, collided=None, responsible=None):
    """Trace column keywords; flags not given are all false."""
    false = [False] * len(position)
    return dict(position=position, velocity=velocity, ber=ber or false,
                collided=collided or false, responsible=responsible or false)


@st.composite
def hand_built_traces(draw):
    """(traces, info_sources): 1-3 traces, each with its own length and dt
    (an int dt among them), of few distinct values and a repeated tail, as
    a halted car has; ids and sources may hold ',', '"' or a line break,
    and the sources may leave a vehicle out, or be empty or absent."""
    traces = []
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.one_of(st.sampled_from((2, 40)), st.integers(1, 60)))
        moving = draw(st.integers(1, n))

        def with_tail(values):
            head = draw(st.lists(values, min_size=moving, max_size=moving))
            return head + head[-1:] * (n - moving)

        hit = draw(st.integers(0, n))
        columns = _columns(
            with_tail(_POSITIONS),
            with_tail(_VELOCITIES),
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            [j >= hit for j in range(n)],
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        )
        dt = draw(st.sampled_from((0.1, 0.001, 1, 1.0)))
        traces.append(Trace(draw(_NAMES) + str(k), dt, **columns))
    ids = st.sampled_from([t.vehicle_id for t in traces])
    return traces, draw(st.one_of(st.none(), st.dictionaries(ids, _NAMES)))


def _written(writer, traces, info_sources) -> str:
    out = io.StringIO()
    writer(traces, out, info_sources)
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(scenarios(), st.booleans()), hand_built_traces()))
@example(([Trace("z", 0.5, **_columns([0.0, -0.0, -0.0, 0.0], [-0.0, 0.0, 0.0, 0.0]))],
          None))
@example(([Trace(f"same-n{k}", dt, **_columns([1.0] * 3, [0.0] * 3))
           for k, dt in enumerate((0.1, 0.2, 1, 1.0))]
          + [Trace("other-n", 0.1, **_columns([1.0] * 5, [0.0] * 5))],
          {"same-n0": "x,y", "same-n1": 'say "hi"'}))
def test_writer_matches_reference_writer(case):
    traces, info_sources = case
    if isinstance(traces, ScenarioConfig):  # a run, with its info sources or without
        run = run_scenario(traces)
        traces, info_sources = run, run.info_sources if info_sources else None
    assert _written(write_traces_csv, traces, info_sources) == _written(
        reference_write_traces_csv, traces, info_sources
    )


@settings(max_examples=150, deadline=None)
@given(hand_built_traces(), st.integers(1, 3))
def test_writer_matches_reference_writer_in_pieces_of_1_to_3_rows(case, chunk_rows):
    # Piece edges then split runs of equal values, and the traces written a
    # second time, in reverse, share their times with the first.
    traces, info_sources = case
    traces = traces + traces[::-1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdcap.ltl, "_CHUNK_ROWS", chunk_rows)
        got = _written(write_traces_csv, traces, info_sources)
    assert got == _written(reference_write_traces_csv, traces, info_sources)


@pytest.mark.parametrize("dt", [1e308, 2**62, 2**70],
                         ids=["float_overflows", "int64_wraps", "int_past_int64"])
def test_writer_refuses_times_it_cannot_write(dt):
    # The last of three times, 2 * dt, is past the largest double or int64,
    # where numpy would warn and write inf, wrap silently, or raise a bare
    # OverflowError. The writer refuses the trace by name before it writes
    # anything, with no numpy warning.
    traces = [Trace("near", 0.1, **_columns([0.0] * 3, [1.0] * 3)),
              Trace("far", dt, **_columns([0.0] * 3, [1.0] * 3))]
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = "^" + re.escape(f"trace far: times overflow: dt = {dt} over 3 steps")
        with pytest.raises(InvalidInputError, match=message):
            write_traces_csv(traces, out)
    assert out.getvalue() == ""


# ---------------------------------------------------------------------------
# Trace CSV reader against the reference reader


@st.composite
def trace_csvs(draw):
    """(CSV text, is_valid): 1-3 vehicles written in a shuffled column order
    with extra columns, randomly quoted fields, interleaved vehicles and
    unsorted timestamps; invalid texts carry one malformation."""
    extras = draw(st.lists(st.sampled_from(("info_source", "lane", "note")),
                           unique=True, max_size=2))
    header = draw(st.permutations(list(TRACE_CSV_COLUMNS) + extras))
    floats = st.floats(-1e3, 1e3, allow_nan=False)
    rows = []
    for v in range(draw(st.integers(1, 3))):
        vid = draw(st.sampled_from((f"v{v}", f"car,{v}", f"l{v}v0")))
        n = draw(st.integers(2, 12))
        dt = draw(st.sampled_from((0.1, 0.001, 0.5, 2.0)))
        t0 = draw(st.sampled_from((0.0, 1.0, 123.456)))
        hit = draw(st.integers(0, n + 1))
        for k in range(n):
            rows.append({
                "t": repr(t0 + k * dt),
                "vehicle_id": vid,
                "position_m": repr(draw(floats)),
                "velocity_mps": repr(draw(st.floats(0.0, 40.0))),
                "ber": draw(st.sampled_from(("0", "1"))),
                "collided": "1" if k >= hit else "0",
                "responsible": draw(st.sampled_from(("0", "1", " 1", "2"))),
                "info_source": "response",
                "lane": str(v),
                "note": "x",
                "dt": dt,
            })
    rows = draw(st.permutations(rows))

    valid = draw(st.booleans())
    if not valid:
        kind = draw(st.sampled_from((
            "flag", "nonfinite", "negative", "short", "nonuniform",
            "duplicate_t", "single", "missing_column", "collided",
        )))
        row = rows[draw(st.integers(0, len(rows) - 1))]
        same = sorted((r for r in rows if r["vehicle_id"] == row["vehicle_id"]),
                      key=lambda r: float(r["t"]))
        if kind == "flag":
            row[draw(st.sampled_from(("ber", "collided", "responsible")))] = \
                draw(st.sampled_from(("1.0", "x", "", "nan")))
        elif kind == "nonfinite":
            row[draw(st.sampled_from(("t", "position_m", "velocity_mps")))] = \
                draw(st.sampled_from(("nan", "inf", "-inf", "1e999")))
        elif kind == "negative":
            row["velocity_mps"] = "-0.5"
        elif kind == "short":
            row["short"] = True
        elif kind == "nonuniform":
            late = float(same[-1]["t"]) + 1.5 * row["dt"]
            rows.append(dict(same[-1], t=repr(late)))
        elif kind == "duplicate_t":
            rows.append(dict(row))
        elif kind == "single":
            rows.append(dict(row, vehicle_id="lonely"))
        elif kind == "missing_column":
            header.remove(draw(st.sampled_from(TRACE_CSV_COLUMNS)))
        elif kind == "collided":
            same[0]["collided"] = "1"
            same[-1]["collided"] = "0"

    def field(value):
        if "," in value or draw(st.booleans()):
            return '"' + value.replace('"', '""') + '"'
        return value

    lines = [",".join(header)]
    for row in rows:
        values = [field(row[name]) for name in header]
        if row.get("short"):
            # Cut at least the last required field, and keep at least one.
            last_required = max(header.index(c) for c in TRACE_CSV_COLUMNS)
            values = values[:draw(st.integers(1, last_required))]
        lines.append(",".join(values))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    return newline.join(lines) + newline, valid


def _read_outcome(reader, text):
    """The ids, dt and flags (_flags_of) of the traces a read returns, or
    "invalid" if it refuses the text."""
    try:
        return _flags_of(reader(io.StringIO(text, newline="")))
    except InvalidInputError:
        return "invalid"


@settings(max_examples=200, deadline=None)
@given(trace_csvs())
def test_reader_matches_reference_reader(case):
    text, valid = case
    got = _read_outcome(read_traces_csv, text)
    assert got == _read_outcome(reference_read_traces_csv, text)
    assert (got != "invalid") == valid, text


@settings(max_examples=200, deadline=None)
@given(trace_csvs(), st.integers(1, 3))
def test_reader_matches_reference_reader_in_tiny_chunks(case, chunk_rows):
    # Chunk edges then fall on blank lines, CRLF endings, quoted fields and
    # interleaved vehicles.
    text, valid = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sdcap.ltl, "_CHUNK_ROWS", chunk_rows)
        got = _read_outcome(read_traces_csv, text)
    assert got == _read_outcome(reference_read_traces_csv, text)
    assert (got != "invalid") == valid, text


def test_reader_names_the_bad_line():
    header = ",".join(TRACE_CSV_COLUMNS) + "\n"
    rows = [f"{k * 0.1!r},a,{k}.0,1.0,0,0,0\n" for k in range(5)]
    # Line 1 is the header, line 4 a blank line the reader skips.
    for bad_row in ("0.5,a,1.0,1.0,x,0,0\n", "0.5,a,nan,1.0,0,0,0\n",
                    "0.5,a,1.0,-1.0,0,0,0\n", "0.5,a,1.0\n"):
        text = header + "".join(rows[:2]) + "\n" + bad_row + "".join(rows[2:])
        with pytest.raises(InvalidInputError, match="line 5"):
            read_traces_csv(io.StringIO(text))


@pytest.mark.parametrize("position, ber, message", [
    ("1.0", "x", "could not convert"),  # a parse error
    ("nan", "0", "must be finite"),     # a value error
])
def test_reader_names_the_bad_line_of_a_long_crlf_file(position, ber, message):
    # 120k rows with CRLF endings and a blank line after every 1000th, far
    # past any chunk loadtxt reads at once; the last row is malformed.
    lines = [",".join(TRACE_CSV_COLUMNS)]
    for k in range(120_000):
        lines.append(f"{k * 0.1!r},a,{k}.0,1.0,0,0,0")
        if k % 1000 == 999:
            lines.append("")
    lines.append(f"12000.0,a,{position},1.0,{ber},0,0")
    text = "\r\n".join(lines) + "\r\n"
    with pytest.raises(InvalidInputError, match=f"^trace CSV line {len(lines)}: .*{message}"):
        read_traces_csv(io.StringIO(text, newline=""))


def test_a_malformed_row_in_a_later_chunk_beats_a_bad_value_in_the_first(monkeypatch):
    monkeypatch.setattr(sdcap.ltl, "_CHUNK_ROWS", 2)
    header = ",".join(TRACE_CSV_COLUMNS) + "\n"
    rows = [f"{k * 0.1!r},a,{k}.0,1.0,0,0,0\n" for k in range(8)]
    rows[0] = "0.0,a,nan,1.0,0,0,0\n"  # chunk 1, line 2
    rows[6] = "0.6,a,1.0,1.0,x,0,0\n"  # chunk 4, line 8
    with pytest.raises(InvalidInputError, match="^trace CSV line 8: could not convert"):
        read_traces_csv(io.StringIO(header + "".join(rows)))
    rows[6] = "0.6,a,6.0,1.0,0,0,0\n"
    with pytest.raises(InvalidInputError, match="^trace CSV line 2: .*must be finite"):
        read_traces_csv(io.StringIO(header + "".join(rows)))


def test_reader_refuses_a_required_column_named_twice():
    # With the last copy winning, the extra t column (5, 6) would give dt = 1.
    text = (",".join(TRACE_CSV_COLUMNS) + ",t\n"
            "0.0,a,0.0,1.0,0,0,0,5\n0.1,a,0.1,1.0,0,0,0,6\n")
    with pytest.raises(InvalidInputError, match=r"repeats columns: \['t'\]"):
        read_traces_csv(io.StringIO(text))
    # An extra column named twice is ignored, as any extra column is.
    text = ",".join(TRACE_CSV_COLUMNS) + ",x,x\n0.0,a,0.0,1.0,0,0,0,,\n0.1,a,0.1,1.0,0,0,0,,\n"
    assert len(read_traces_csv(io.StringIO(text))[0]) == 2


@pytest.mark.parametrize("times, message", [
    (("-1e308", "1e308"), "sampling step overflows to inf"),
    (("1e308", "-1e308"), "sampling step overflows to inf"),  # sorted first
    (("-1.7e308", "-1e308", "1e308"), "non-uniform sampling step"),  # a later step is inf
], ids=["first_step", "unsorted", "later_step"])
def test_reader_names_a_vehicle_whose_time_step_overflows(times, message):
    # Every time is finite, but two neighbours are more than the largest
    # double apart. The read refuses the vehicle by name, with no numpy
    # overflow warning on the way.
    text = ",".join(TRACE_CSV_COLUMNS) + "\n" + "".join(
        f"{t},a,0.0,1.0,0,0,0\n" for t in times)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"^trace a: {message}$"):
            read_traces_csv(io.StringIO(text))


@pytest.mark.parametrize("row, message", [
    ("0.1,a,0.1,1.0,0,0", "missing field 'responsible'"),
    ("0.1,a,0.1", "missing fields 'velocity_mps', 'ber', 'collided', 'responsible'"),
])
def test_reader_names_the_missing_fields_of_a_short_row(row, message):
    text = ",".join(TRACE_CSV_COLUMNS) + f"\n0.0,a,0.0,1.0,0,0,0\n{row}\n"
    with pytest.raises(InvalidInputError, match=f"^trace CSV line 3: {message}$"):
        read_traces_csv(io.StringIO(text))


def write_latin_csv(path, newline=b"\n", bad_byte_line=1501, bad_flag_line=None):
    """A 2,001-line trace CSV with a 0xff byte on one line and, optionally,
    a flag 'x' on another."""
    lines = [",".join(TRACE_CSV_COLUMNS).encode()]
    lines += [f"{k * 0.1!r},a,{k}.0,1.0,0,0,0".encode() for k in range(2000)]
    lines[bad_byte_line - 1] = lines[bad_byte_line - 1].replace(b",a,", b",\xff,")
    if bad_flag_line is not None:
        lines[bad_flag_line - 1] = lines[bad_flag_line - 1][:-5] + b"x,0,0"
    path.write_bytes(newline.join(lines) + newline)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_reader_names_the_file_and_line_of_a_byte_that_is_not_utf8(tmp_path, newline):
    # Far enough in that the stream decodes it ahead of the row being read.
    path = tmp_path / "bad.csv"
    write_latin_csv(path, newline)
    with open(path, encoding="utf-8", newline="") as handle:
        with pytest.raises(InvalidInputError, match=(
            f"^trace CSV {re.escape(str(path))} line 1501: byte 0xff is not utf-8 text"
        )):
            read_traces_csv(handle)


@pytest.mark.parametrize("newline", [b"\n", b"\r"])
@pytest.mark.parametrize("byte_line, flag_line", [
    (1501, 1301), (1501, 1481), (1501, 1496), (1501, 1500), (50, 10), (1501, 1502),
])
def test_reader_names_whichever_of_a_bad_row_and_a_bad_byte_comes_first(
    tmp_path, newline, byte_line, flag_line
):
    # The stream decodes about 8 KB ahead of the row being read, so a bad
    # byte can fail the read before an earlier malformed row is parsed.
    path = tmp_path / "bad.csv"
    write_latin_csv(path, newline, byte_line, flag_line)
    if flag_line < byte_line:
        expected = f"^trace CSV line {flag_line}: could not convert string 'x'"
    else:
        expected = f"^trace CSV {re.escape(str(path))} line {byte_line}: byte 0xff"
    with open(path, encoding="utf-8", newline="") as handle:
        with pytest.raises(InvalidInputError, match=expected):
            read_traces_csv(handle)


def test_reader_names_a_bad_header_before_a_bad_byte(tmp_path):
    # The byte is in the stream's first decoded block, so even the header
    # read fails on it.
    path = tmp_path / "bad.csv"
    write_latin_csv(path, bad_byte_line=50)
    path.write_bytes(path.read_bytes().replace(b"velocity_mps", b"speed", 1))
    with open(path, encoding="utf-8", newline="") as handle:
        with pytest.raises(InvalidInputError, match=r"missing columns: \['velocity_mps'\]"):
            read_traces_csv(handle)


_BAD_BYTE = (1, b"\xff", "{path} line {line}: byte 0xff is not utf-8 text")
_BAD_VALUE = (2, b"nan", "line {line}: t, position_m and velocity_mps must be finite")
_BAD_FLAG = (4, b"x", "line {line}: could not convert string 'x'")


@pytest.mark.parametrize("field, fault, message, end", [
    (*_BAD_BYTE, b"\n"), (*_BAD_VALUE, b"\n"), (*_BAD_FLAG, b"\n"),
    (*_BAD_BYTE, b"\r"), (*_BAD_VALUE, b"\r\n"), (*_BAD_FLAG, b"\r"),
])
def test_a_refused_read_holds_at_most_64_bytes_per_row(tmp_path, field, fault, message, end):
    # 20 vehicles x 8,000 steps with one bad byte, value or flag on the last
    # line but one, lines ending in LF, CR or CRLF. The read keeps compact
    # columns up to the fault, and the re-read that finds its line holds one
    # chunk of rows at a time.
    path = tmp_path / "traces.csv"
    traces = [columnar(8_000, k, vehicle_id=f"l{k % 2}v{k // 2}") for k in range(20)]
    lines = traces_to_csv(traces).encode().split(b"\n")
    del traces
    line = len(lines) - 2  # the last line but one; the split's last item is empty
    fields = lines[line - 1].split(b",")
    fields[field] = fault
    lines[line - 1] = b",".join(fields)
    path.write_bytes(end.join(lines))
    del lines, fields
    gc.collect()
    expected = "^trace CSV " + re.escape(message.format(path=path, line=line))
    with open(path, encoding="utf-8", newline="") as handle:
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match=expected):
                read_traces_csv(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert line == 160_000
    assert peak <= 64 * 160_000, peak / 160_000


def _traced_read(path):
    """The flags (_flags_of) of a read of the file at path, the
    tracemalloc peak of the read, and the memory its traces keep: what
    dropping them frees."""
    gc.collect()
    with open(path, encoding="utf-8", newline="") as handle:
        tracemalloc.start()
        try:
            read = read_traces_csv(handle)
            peak = tracemalloc.get_traced_memory()[1]
            flags = _flags_of(read)  # before `held`, so it cancels out of `kept`
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            del read
            gc.collect()
            kept = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    return flags, peak, kept


def test_reader_holds_at_most_16_bytes_per_row_and_keeps_3(tmp_path):
    # 20 vehicles x 8,000 steps. Each chunk's rows are appended to their
    # vehicle's own buffers, t as float64 and the packed flags byte, and
    # the chunk is dropped; each vehicle is built from views of its
    # buffers, which go once it is built, so no whole-file column,
    # concatenation copy or sort permutation is ever held. The buffers'
    # 9 B per row and their growth slack, with one chunk's row table and
    # its strings, make the peak: 11.1 B per row was measured. The traces
    # keep one byte per flag and, per trace, three array headers, the trace
    # object, its id and dt: about 420 B (8.4 KB for the 20 was measured),
    # held to 1 KB.
    path = tmp_path / "traces.csv"
    traces = [columnar(8_000, k, vehicle_id=f"l{k % 2}v{k // 2}") for k in range(20)]
    path.write_text(traces_to_csv(traces), encoding="utf-8", newline="")
    flags, peak, kept = _traced_read(path)
    assert flags == _flags_of(traces)
    assert peak <= 16 * 160_000, peak / 160_000
    assert kept <= 3 * 160_000 + 20 * 1_024, kept - 3 * 160_000


def test_reader_of_interleaved_rows_holds_at_most_20_bytes_per_row(tmp_path):
    # The same 20 vehicles x 8,000 steps, one row per vehicle in turn and
    # the vehicles in a different order at each step, so every chunk is
    # regrouped by vehicle before its rows are appended to the vehicles'
    # buffers. Every buffer grows to its vehicle's full length before the
    # first vehicle is built, so the buffers' 9 B per row and their growth
    # slack are held with the regrouped copy of one chunk's row table:
    # 12.6 B per row was measured, so the bound leaves over a third of
    # headroom.
    path = tmp_path / "traces.csv"
    traces = [columnar(8_000, k, vehicle_id=f"l{k % 2}v{k // 2}") for k in range(20)]
    header, *rows = traces_to_csv(traces).splitlines(keepends=True)
    turns = np.random.default_rng(0).permuted(np.tile(np.arange(20), (8_000, 1)), axis=1)
    path.write_text(header + "".join(rows[k * 8_000 + step]
                                     for step, turn in enumerate(turns.tolist()) for k in turn),
                    encoding="utf-8", newline="")
    first = turns[0].tolist()
    del rows, turns
    flags, peak, _ = _traced_read(path)
    assert flags == _flags_of([traces[k] for k in first])
    assert peak <= 20 * 160_000, peak / 160_000


def test_reader_of_many_short_vehicles_holds_at_most_32_bytes_per_row(tmp_path):
    # 5,000 vehicles x 64 steps, one row per vehicle in turn, so every row
    # is a run of its own and each chunk holds 2,048 vehicles. Each vehicle
    # costs its two buffers (their objects and growth slack) while the file
    # is read, and its trace (its object, id and three array headers) once
    # built: 15.1 B per row was measured. Per-chunk tables of every
    # vehicle's rows, sorted across the file, took about 99.
    path = tmp_path / "traces.csv"
    traces = [columnar(64, k, vehicle_id=f"v{k}") for k in range(5_000)]
    header, *rows = traces_to_csv(traces).splitlines(keepends=True)
    path.write_text(header + "".join(rows[k * 64 + step]
                                     for step in range(64) for k in range(5_000)),
                    encoding="utf-8", newline="")
    del rows
    flags, peak, _ = _traced_read(path)
    assert flags == _flags_of(traces)
    assert peak <= 32 * 320_000, peak / 320_000


def test_reader_traces_equal_those_written_and_keep_only_their_columns():
    a, b = columnar(4_000, 1, vehicle_id="a"), columnar(3_000, 2, vehicle_id="b")
    text = traces_to_csv([a, b])
    gc.collect()
    tracemalloc.start()
    try:
        traces = read_traces_csv(io.StringIO(text))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _flags_of(traces) == _flags_of([a, b])
    for trace in traces:
        assert not any(column.flags.writeable for column in trace._columns())
    # The columns take 3 B per row, one byte per flag: each trace adopts
    # the frozen columns the reader built for it, with no copy and no
    # array they view.
    assert kept <= 3 * 7_000 + 8_192, kept
    for trace in traces:
        assert all(column.base is None for column in trace._columns())


def test_writer_holds_one_piece_of_text_whatever_the_trace_length():
    # A lone trace's rows are formatted and written a piece at a time, and
    # its times are not kept, as no other trace shares them. Holding a
    # whole trace's rows would take well over 200 B per row.
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    peaks = []
    for n in (50_000, 200_000):
        trace = columnar(n, 3, vehicle_id="a")
        sink = Sink()
        gc.collect()
        tracemalloc.start()
        try:
            write_traces_csv([trace], sink)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sink.size > 40 * n
    assert peaks[1] <= 2_000_000, peaks
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_reader_rejects_empty_input_and_returns_no_traces_for_a_bare_header():
    with pytest.raises(InvalidInputError, match="empty"):
        read_traces_csv(io.StringIO(""))
    assert read_traces_csv(io.StringIO(",".join(TRACE_CSV_COLUMNS) + "\n")) == []
