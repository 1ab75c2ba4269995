"""Engine registry, fueled evaluation driver, and cross-engine comparison.

Every engine is driven the same way: load, reduce, classify the halt,
read back a term; only the reduce differs, a step loop or one big-step
call.  The registry is one table of `Engine` rows, each naming its own
rules; the plumbing they share is written once here.  There is one
readback driver, `_machine_readback`: it applies a machine's readback
step until that says ("done", term), and it refuses a term that still
holds a projection or an index.  It hands each state it passes to an
`emit`, and `evaluate` prints every event, load, reduce and readback,
with the row's `render`.  Untraced, the projection machine's and the
index form's readbacks skip the steps for their one-pass forms, which
build the same term.  `compare` checks a group by one alpha-key per
result, and the control rows share the state of the last term loaded.

Fuel is counted in beta contractions for every engine, because that is
the one cost unit all of them share; the non-beta transitions between
two contractions are always finitely bounded.  Every run counts on one
`FuelMeter`, whose work cap additionally abandons runs whose states or
cumulative effort explode; any run a guard cuts short reports fuel
exhaustion, the same outcome plain divergence gets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Optional, Union

from . import control, envmachine, headsimple, projection, weakhead
from .fuel import FuelMeter, OutOfFuel
from .pretty import print_state, print_term
from .syntax import IllegalStateError, Node, Term, _nameless, alpha_eq, is_pure, term_metrics

__all__ = [
    "Normal",
    "FuelExhausted",
    "Stuck",
    "Outcome",
    "TraceEvent",
    "Trace",
    "Engine",
    "UnknownEngineError",
    "InvalidFuelError",
    "ENGINES",
    "WH_ENGINE_NAMES",
    "HEAD_ENGINE_NAMES",
    "CONTROL_ENGINE_NAMES",
    "engine_names",
    "get_engine",
    "resolve_fuel",
    "evaluate",
    "EngineResult",
    "CompareReport",
    "compare",
    "DEFAULT_FUEL",
]

DEFAULT_FUEL = 100000

# Growth guards.  After every beta the driver asks the engine for the size
# and depth of its state (Engine.metrics) and ends the run when either
# passes its cap; work, one per transition plus that size per beta, is
# charged to the run's FuelMeter, which ends the run past MAX_TOTAL_WORK.
# Both turn runaway term growth and quadratic lookup storms into
# FuelExhausted("work budget") instead of an out-of-memory or a very long
# sit.  Desk-scale runs that reach a normal form stay far below all three.
# Every state carries its own `size` and `height`, read by term_metrics in
# O(1): see the state classes and the "Fuel and guards" section of
# README.md for what each engine measures.
MAX_STATE_NODES = 60_000
MAX_STATE_DEPTH = 1_200
MAX_TOTAL_WORK = 500_000


class Normal(Node):
    __slots__ = __match_args__ = ("result", "steps", "betas")
    result: Term
    steps: int
    betas: int


class FuelExhausted(Node):
    __slots__ = __match_args__ = ("last_state", "betas", "reason")

    def __init__(self, last_state: str, betas: int, reason: str = "beta budget") -> None:
        super().__init__(last_state, betas, reason)


class Stuck(Node):
    __slots__ = __match_args__ = ("reason", "last_state")
    reason: str
    last_state: str


Outcome = Union[Normal, FuelExhausted, Stuck]


class TraceEvent(Node):
    __slots__ = __match_args__ = ("step", "phase", "rule", "state")
    step: int
    phase: str  # "load" | "reduce" | "readback"
    rule: str
    state: str


class Trace(Node):
    """The events of one run.  The record is immutable; its list of events
    is not, and `add` appends to it."""

    __slots__ = __match_args__ = ("engine", "events")
    engine: str
    events: list[TraceEvent]

    def add(self, phase: str, rule: str, state: str) -> None:
        self.events.append(TraceEvent(len(self.events), phase, rule, state))


Emit = Callable[[str, object], None]  # emit(rule, state); evaluate renders the state
Readback = Callable[[object, Optional[Emit], Optional[int]], Term]


def _identity(t: Term) -> Term:
    return t


def _always_normal(state) -> tuple[str, str]:
    return "normal", ""


def _done(t: Term) -> tuple[str, Term]:
    # A small-step or big-step engine halts on a term, its own readback.
    return "done", t


def _machine_readback(step_fn, state, emit: Optional[Emit], budget: Optional[int], whole=None) -> Term:
    """The one readback driver: apply `step_fn` until it says ("done", term).

    The term must be pure: a Proj or Index left in it means the run reached
    an illegal state, and that raises IllegalStateError.  Every state after
    a step, and the term at "done", goes to `emit` when there is one.
    Untraced, a step with a one-pass form `whole`, which returns the term
    the steps end in and whether it is pure, is not stepped.  A row binds
    its step (and `whole`) with `partial`; `budget` is unused here, and is
    in the signature because the environment rows' readback forces under it.
    """
    if emit is None and whole is not None:
        term, pure = whole(state)
    else:
        while True:
            rule, term = step_fn(state)
            if rule == "done":
                break
            state = term
            if emit is not None:
                emit(rule, state)
        pure = is_pure(term)
    if not pure:
        raise IllegalStateError(f"projection or index survived readback: {print_term(term)}")
    if emit is not None:
        emit("done", term)
    return term


_proj_readback = partial(_machine_readback, projection.proj_readback_step, whole=projection.proj_readback)


@dataclass(frozen=True, kw_only=True)
class Engine:
    """One registry row: exactly one of `step` and `bigstep`, plus whichever
    of load, halt, readback, render and metrics differ from the defaults
    (a big-step row needs none).  `render` prints every traced state, a
    readback's included; untraced, `readback` gets emit=None.  Unlike the
    other records it is a dataclass: the registry, bench/layers.py and the
    tests derive rows from others with `dataclasses.replace`."""

    name: str
    strategy: str  # "weak-head" | "head" | "control"
    description: str
    load: Callable[[Term], object] = _identity
    step: Optional[Callable[[object], Optional[tuple[str, object]]]] = None
    halt: Callable[[object], tuple[str, str]] = _always_normal
    readback: Readback = partial(_machine_readback, _done)
    render: Callable[[object], str] = print_state
    metrics: Callable[[object], tuple[int, int]] = term_metrics
    bigstep: Optional[Callable[[Term, FuelMeter, Optional[list]], Term]] = None

    # The rules that count against the fuel; only the env rows emit "bind",
    # and they never emit "beta".  Not a field: bench/layers.py reads it.
    beta_rules = frozenset(("beta", "bind"))


class UnknownEngineError(ValueError):
    pass


class InvalidFuelError(ValueError):
    pass


# --- halting and stepping -----------------------------------------------------


def _halt_unless(terminal: Callable[[object], bool]) -> Callable[[object], tuple[str, str]]:
    """A halt that calls a state normal when `terminal` accepts it, else stuck."""

    def halt(state) -> tuple[str, str]:
        if terminal(state):
            return "normal", ""
        return "stuck", "no transition applies"

    return halt


def _beta_step(fn: Callable[[Term], Optional[Term]]) -> Callable[[Term], Optional[tuple[str, Term]]]:
    """A step for a small-step relation whose every step is a beta."""

    def step(t: Term) -> Optional[tuple[str, Term]]:
        nxt = fn(t)
        return None if nxt is None else ("beta", nxt)

    return step


# --- environment and control engines ------------------------------------------


def _env_readback(c: envmachine.ECommand, emit: Optional[Emit], budget: Optional[int]) -> Term:
    """Readback of either environment machine.  Forcing the focus and every
    stacked closure turns the state into a projection-machine state, whose
    readback folds any leftover arguments back on (only open programs
    leave any)."""
    return _proj_readback(envmachine.as_forced_command(c, budget), emit, budget)


# The last term a control row loaded and its state, one tuple so that a
# thread reads both or neither: the two control rows of one `compare` load
# one term object, so the second reuses the first's embedding and the
# free-name memos its run filled.
_control_loaded: tuple = (None, None)


def _control_load(t: Term) -> control.CCommand:
    global _control_loaded
    term, state = _control_loaded
    if term is not t:
        state = control.control_load(control.embed_term(t))
        _control_loaded = t, state
    return state


def _control_readback(c: control.CCommand, emit: Optional[Emit], budget: Optional[int]) -> Term:
    """Readback of either control machine: its state, read as a state of
    the substitution machine it simulates, reads back by the projection
    machine's step.  A control-krivine state never holds a projection, so
    for it that step only pops, as krivine's readback does."""
    return _proj_readback(control.as_projection_command(c), emit, budget)


# --- registry -----------------------------------------------------------------

# Coalescing is a rendering: head-coalesced and head-debruijn are the rows
# of head-proj and head-os-derived with a new name and `render`, which
# prints the same states with counts (pick/drop offsets, a \^n. binder
# prefix); env-head prints so too.
_coalesced = partial(print_state, coalesced=True)

# Fields left out take the Engine defaults: identity load, a halt that
# calls every state normal, the term readback, the measure every state
# carries (term_metrics), and print_state, which prints a bare term with
# print_term, coalesced or not.  No row sets `metrics`; bench/layers.py
# swaps it for a timed copy.
_ROWS = (
    Engine(
        name="wh-os",
        strategy="weak-head",
        description="contextual small-step weak-head reduction",
        step=_beta_step(weakhead.step_wh_os),
    ),
    Engine(
        name="krivine",
        strategy="weak-head",
        description="Krivine machine, substitution-based call stack",
        load=weakhead.krivine_load,
        step=weakhead.krivine_step,
        halt=_halt_unless(weakhead.krivine_terminal),
        readback=partial(_machine_readback, weakhead.krivine_readback_step),
    ),
    Engine(
        name="wh-bigstep",
        strategy="weak-head",
        description="big-step weak-head evaluator",
        bigstep=weakhead.bigstep_wh,
    ),
    Engine(
        name="env-krivine",
        strategy="weak-head",
        description="Krivine machine with persistent environments and closures",
        load=envmachine.env_krivine_load,
        step=envmachine.env_krivine_step,
        halt=envmachine.env_krivine_halt,
        readback=_env_readback,
    ),
    Engine(
        name="head-os",
        strategy="head",
        description="small-step head reduction contracting the head redex in place",
        step=_beta_step(headsimple.step_head_os),
    ),
    Engine(
        name="head-abs",
        strategy="head",
        description="head machine that walks under binders, remembering them in the co-term",
        load=headsimple.abs_load,
        step=headsimple.abs_machine_step,
        halt=_halt_unless(headsimple.abs_terminal),
        readback=partial(_machine_readback, headsimple.abs_readback_step),
    ),
    _head_proj := Engine(
        name="head-proj",
        strategy="head",
        description="projection-based head machine over stuck co-terms",
        load=weakhead.krivine_load,
        step=projection.proj_step,
        halt=_halt_unless(projection.proj_terminal),
        readback=_proj_readback,
    ),
    _head_os_derived := Engine(
        name="head-os-derived",
        strategy="head",
        description="index-form small-step head reduction with an anonymous binder prefix",
        load=partial(projection.TopTerm, 0),
        step=projection.derived_step,
        readback=partial(_machine_readback, projection.derived_readback_step, whole=projection.derived_readback),
    ),
    replace(
        _head_proj,
        name="head-coalesced",
        description="head machine with projection chains coalesced into numeric offsets",
        render=_coalesced,
    ),
    replace(
        _head_os_derived,
        name="head-debruijn",
        description="small-step head reduction with a counted top-level binder prefix",
        render=_coalesced,
    ),
    Engine(
        name="head-bigstep",
        strategy="head",
        description="big-step head evaluator layered on weak-head evaluation",
        bigstep=headsimple.bigstep_h,
    ),
    Engine(
        name="sestoft",
        strategy="head",
        description="Sestoft-style big-step head evaluator",
        bigstep=headsimple.bigstep_sestoft,
    ),
    Engine(
        name="env-head",
        strategy="head",
        description="coalesced head machine with persistent environments and closures",
        load=envmachine.env_krivine_load,
        step=envmachine.env_head_step,
        halt=envmachine.env_head_halt,
        readback=_env_readback,
        render=_coalesced,
    ),
    Engine(
        name="control-krivine",
        strategy="control",
        description="stack machine with context naming and pattern-matching functions",
        load=_control_load,
        step=control.control_step,
        halt=partial(control.control_halt, projective=False),
        readback=_control_readback,
    ),
    Engine(
        name="control-proj",
        strategy="control",
        description="control machine that splits stuck co-terms into projections",
        load=_control_load,
        step=control.control_proj_step,
        halt=partial(control.control_halt, projective=True),
        readback=_control_readback,
    ),
)
ENGINES: dict[str, Engine] = {engine.name: engine for engine in _ROWS}

WH_ENGINE_NAMES = tuple(n for n, e in ENGINES.items() if e.strategy == "weak-head")
HEAD_ENGINE_NAMES = tuple(n for n, e in ENGINES.items() if e.strategy == "head")
CONTROL_ENGINE_NAMES = tuple(n for n, e in ENGINES.items() if e.strategy == "control")


def engine_names() -> tuple[str, ...]:
    return tuple(ENGINES)


def get_engine(name: str) -> Engine:
    try:
        return ENGINES[name]
    except KeyError:
        raise UnknownEngineError(f"unknown engine {name!r}") from None


def resolve_fuel(fuel: Optional[int]) -> int:
    """The beta budget: `fuel`, else $HEADLAB_FUEL, else DEFAULT_FUEL."""
    if fuel is None:
        env = os.environ.get("HEADLAB_FUEL")
        if env is None:
            return DEFAULT_FUEL
        try:
            fuel = int(env)
        except ValueError:
            raise InvalidFuelError(f"HEADLAB_FUEL must be an integer, not {env!r}") from None
    if fuel <= 0:
        raise InvalidFuelError(f"fuel must be positive, not {fuel}")
    return fuel


def _render_capped(engine: Engine, state: object) -> str:
    size, _ = engine.metrics(state)
    if size <= 2_000:
        return engine.render(state)
    return f"<state with ~{size} nodes>"


def evaluate(
    term: Term,
    engine: str = "krivine",
    fuel: Optional[int] = None,
    trace: bool = False,
) -> tuple[Outcome, Optional[Trace]]:
    """Run one engine on a term under a beta budget.

    Returns the outcome and, when requested, the rule-labelled trace of
    load, reduce, and readback events.  Untraced, only the capped
    `last_state` of a stopped run is rendered.  The guards are read from
    MAX_STATE_NODES, MAX_STATE_DEPTH and MAX_TOTAL_WORK at each call.

    Every run counts on one FuelMeter, and any guard stop becomes
    FuelExhausted.  An untraced run of a stepping row, and each big-step
    loop, lets the meter skip whole periods of a run whose state repeats
    (`FuelMeter.watch`); the state after the skip equals the state before
    it.  An environment machine's run may instead grow one renaming chain
    by a fixed template each period: `envmachine.period_template` learns
    it, the meter checks it on two more periods, and the skip stacks the
    template's links on the state.  Untraced, an environment machine also
    takes each lookup chain in one jump (`envmachine.env_lookups`).  The
    outcome is always the one stepping gives.
    """
    eng = get_engine(engine)
    budget = resolve_fuel(fuel)
    tr = Trace(eng.name, []) if trace else None
    state = eng.load(term)
    if tr is not None:
        tr.add("load", "load", eng.render(state))

    meter = FuelMeter(budget, MAX_TOTAL_WORK)
    try:
        if eng.bigstep is not None:
            state = eng.bigstep(state, meter, None)
            steps = meter.betas
        else:
            # A contraction charges its size and the transitions since the
            # last one, so the work cap is met when `steps` passes `cap`.
            steps = charged = 0
            cap = meter.work_limit
            step_fn = eng.step
            beta_rules = eng.beta_rules
            # An environment machine takes each lookup chain in one jump,
            # and its state may grow by renaming links instead of
            # repeating; envmachine learns how.  A traced run steps every
            # transition, since each is an event.
            env = isinstance(state, envmachine.ECommand)
            chain = envmachine.env_lookups if env and tr is None else None
            learn = envmachine.period_template if env else None
            mark = None
            while True:
                if chain is not None:
                    # The limit is the transition that would pass the work cap.
                    n, state = chain(state, cap - steps + 1)
                    steps += n
                    if steps > cap:
                        raise OutOfFuel("work")
                nxt = step_fn(state)
                if nxt is None:
                    break
                rule, state = nxt
                steps += 1
                if tr is not None:
                    tr.add("reduce", rule, eng.render(state))
                if rule in beta_rules:
                    size, depth = eng.metrics(state)
                    meter.contract(steps - charged + size)
                    if size > MAX_STATE_NODES or depth > MAX_STATE_DEPTH:
                        raise OutOfFuel("work")
                    if tr is None:
                        state, mark = meter.watch(state, mark, learn)
                    charged = steps
                    cap = steps + meter.work_limit - meter.work
                elif steps > cap:
                    raise OutOfFuel("work")
    except OutOfFuel as exc:
        last_state = "<abandoned>" if eng.bigstep is not None else _render_capped(eng, state)
        reason = "beta budget" if exc.kind == "beta" else "work budget"
        return FuelExhausted(last_state, min(meter.betas, budget), reason), tr

    # "open" halts (an environment machine meeting an unbound variable)
    # have no transition but still read back to a neutral term.
    kind, reason = eng.halt(state)
    if kind == "stuck":
        return Stuck(reason, _render_capped(eng, state)), tr
    emit = None if tr is None else lambda rule, s: tr.add("readback", rule, eng.render(s))
    try:
        result = eng.readback(state, emit, MAX_STATE_NODES)
    except envmachine.ForceBudgetExceeded:
        return FuelExhausted("<result too large to materialize>", meter.betas, "work budget"), tr
    except (IllegalStateError, ValueError) as exc:
        return Stuck(f"readback failed: {exc}", _render_capped(eng, state)), tr
    return Normal(result, steps, meter.betas), tr


class EngineResult(Node):
    __slots__ = __match_args__ = ("engine", "strategy", "outcome")
    engine: str
    strategy: str
    outcome: Outcome


class CompareReport(Node):
    __slots__ = __match_args__ = ("fuel", "results", "group_agreement", "cross_strategy_difference")
    fuel: int
    results: list[EngineResult]
    group_agreement: dict[str, bool]
    cross_strategy_difference: bool

    @property
    def all_agree(self) -> bool:
        return all(self.group_agreement.values())


def _group_agrees(outcomes: list[Outcome]) -> bool:
    if all(isinstance(o, Normal) for o in outcomes):
        # Alpha-equal results have equal locally nameless keys, so each
        # result is walked once.
        first = outcomes[0]
        key = _nameless(first.result, ())
        return all(o.betas == first.betas and _nameless(o.result, ()) == key for o in outcomes[1:])
    return all(isinstance(o, FuelExhausted) for o in outcomes)


def compare(term: Term, engines: Iterable[str], fuel: Optional[int] = None) -> CompareReport:
    """Run several engines and group their outcomes.

    Engines of one strategy must reach alpha-equivalent results in the
    same number of betas (or agree to run out of fuel); the weak-head and
    head groups may legitimately differ from each other, which is
    reported but is not a disagreement.  A group is checked by one
    alpha-key per result (`syntax._nameless`).
    """
    budget = resolve_fuel(fuel)
    results = []
    for name in engines:
        eng = get_engine(name)
        outcome, _ = evaluate(term, name, budget)
        results.append(EngineResult(name, eng.strategy, outcome))

    agreement: dict[str, bool] = {}
    for strategy in ("weak-head", "head"):
        outcomes = [r.outcome for r in results if r.strategy == strategy]
        if len(outcomes) >= 2:
            agreement[strategy] = _group_agrees(outcomes)

    cross = False
    wh_normals = [r.outcome for r in results if r.strategy == "weak-head" and isinstance(r.outcome, Normal)]
    head_normals = [r.outcome for r in results if r.strategy == "head" and isinstance(r.outcome, Normal)]
    if wh_normals and head_normals:
        cross = not alpha_eq(wh_normals[0].result, head_normals[0].result)

    return CompareReport(budget, results, agreement, cross)
