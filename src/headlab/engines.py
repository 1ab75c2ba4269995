"""Engine registry, fueled evaluation driver, and cross-engine comparison.

Every engine is driven the same way: load, step until no rule applies,
classify the halt, read back a term.  Fuel is counted in beta
contractions for every engine, because that is the one cost unit all of
them share; the non-beta transitions between two contractions are always
finitely bounded.  A coarse work guard additionally abandons runs whose
states or cumulative effort explode; any run it cuts short reports fuel
exhaustion, the same outcome plain divergence gets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from . import coalesced, control, envmachine, headsimple, projection, weakhead
from .fuel import FuelMeter, OutOfFuel
from .pretty import print_state, print_term
from .syntax import IllegalStateError, Term, alpha_eq, term_metrics

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
# passes its cap; work adds one per transition plus that size per beta and
# ends the run past MAX_TOTAL_WORK.  Both turn runaway term growth and
# quadratic lookup storms into FuelExhausted("work budget") instead of an
# out-of-memory or a very long sit.  Desk-scale runs that reach a normal
# form stay far below all three.
#
# Each engine measures its own state, so engines of one strategy can end
# the same diverging run at different betas or for different reasons:
# - wh-os and head-os measure the whole term;
# - the substitution machines measure the term their state plugs back to
#   (focus, stacked arguments and any binders passed), and their non-beta
#   transitions add to work;
# - head-os-derived and head-debruijn measure the body plus its binder
#   prefix;
# - the big-step engines charge only the node count of each contractum to
#   their FuelMeter, with no size or depth cap;
# - the environment machines report (1, 1), so only the work cap stops
#   them;
# - the control machines measure command size and no depth.
# On the corpus krivine ends 36 runs on the beta budget and 21 on work,
# wh-bigstep 49 and 8; head-proj 36 and 23, head-bigstep 50 and 9.  One
# measure shared by every engine is item 4 of ROADMAP.md.
MAX_STATE_NODES = 60_000
MAX_STATE_DEPTH = 1_200
MAX_TOTAL_WORK = 500_000


@dataclass(frozen=True)
class Normal:
    result: Term
    steps: int
    betas: int


@dataclass(frozen=True)
class FuelExhausted:
    last_state: str
    betas: int
    reason: str = "beta budget"


@dataclass(frozen=True)
class Stuck:
    reason: str
    last_state: str


Outcome = Union[Normal, FuelExhausted, Stuck]


@dataclass(frozen=True)
class TraceEvent:
    step: int
    phase: str  # "load" | "reduce" | "readback"
    rule: str
    state: str


@dataclass
class Trace:
    engine: str
    events: list[TraceEvent] = field(default_factory=list)

    def add(self, phase: str, rule: str, state: str) -> None:
        self.events.append(TraceEvent(len(self.events), phase, rule, state))

    def by_phase(self, phase: str) -> list[TraceEvent]:
        return [e for e in self.events if e.phase == phase]


Emit = Callable[[str, str], None]


@dataclass(frozen=True)
class Engine:
    name: str
    strategy: str  # "weak-head" | "head" | "control"
    description: str
    load: Callable[[Term], object]
    step: Callable[[object], Optional[tuple[str, object]]]
    halt: Callable[[object], tuple[str, str]]
    readback: Callable[[object, Emit, Optional[int]], Term]
    render: Callable[[object], str]
    metrics: Callable[[object], tuple[int, int]]
    beta_rules: frozenset[str] = frozenset(("beta",))
    bigstep: Optional[Callable[[Term, FuelMeter, Optional[list]], Term]] = None


class UnknownEngineError(ValueError):
    pass


class InvalidFuelError(ValueError):
    pass


def _plugged_metrics(term: Term, args: Iterable[Term], binders: int) -> tuple[int, int]:
    size, depth = term_metrics(term)
    for arg in args:
        arg_size, arg_depth = term_metrics(arg)
        size += 1 + arg_size
        depth = max(depth, arg_depth) + 1
    return size + binders, depth + binders


def _machine_readback(step_fn, render) -> Callable[[object, Emit, Optional[int]], Term]:
    def readback(state, emit: Emit, budget: Optional[int]) -> Term:
        while True:
            rule, nxt = step_fn(state)
            if rule == "done":
                emit("done", print_term(nxt))
                return nxt
            state = nxt
            emit(rule, render(state))

    return readback


def _smallstep_readback(state, emit: Emit, budget: Optional[int]) -> Term:
    emit("done", print_term(state))
    return state


def _always_normal(state) -> tuple[str, str]:
    return "normal", ""


# --- weak-head engines -----------------------------------------------------


def _wh_os_step(t: Term) -> Optional[tuple[str, Term]]:
    nxt = weakhead.step_wh_os(t)
    return None if nxt is None else ("beta", nxt)


def _krivine_halt(c: weakhead.KCommand) -> tuple[str, str]:
    if weakhead.krivine_terminal(c):
        return "normal", ""
    return "stuck", "no transition applies"


def _k_metrics(c: weakhead.KCommand) -> tuple[int, int]:
    args = []
    stack = c.stack
    while isinstance(stack, weakhead.KPush):
        args.append(stack.arg)
        stack = stack.rest
    return _plugged_metrics(c.term, args, 0)


def _k_readback_driver(c, emit: Emit, budget: Optional[int]) -> Term:
    return _machine_readback(weakhead.krivine_readback_step, print_state)(c, emit, budget)


# --- projection / coalesced engines ----------------------------------------


def _proj_halt(c: projection.PCommand) -> tuple[str, str]:
    if projection.proj_terminal(c):
        return "normal", ""
    return "stuck", "no transition applies"


def _p_metrics(c: projection.PCommand) -> tuple[int, int]:
    args, stuck = projection.split_pcoterm(c.coterm)
    return _plugged_metrics(c.term, args, stuck.depth)


def _derived_step(t: projection.TopTerm):
    return projection.derived_step(t)


def _top_halt(t) -> tuple[str, str]:
    return "normal", ""


def _top_metrics(t: projection.TopTerm) -> tuple[int, int]:
    size, depth = term_metrics(t.body)
    return size + t.binders, depth + t.binders


def _derived_readback(t: projection.TopTerm, emit: Emit, budget: Optional[int]) -> Term:
    while True:
        step = projection.derived_readback_step(t)
        if step is None:
            break
        rule, t = step
        emit(rule, print_state(t))
    if projection.collect_indices(t.body):
        raise IllegalStateError("index survived readback")
    emit("done", print_term(t.body))
    return t.body


def _dtop_metrics(t: coalesced.DTopTerm) -> tuple[int, int]:
    size, depth = term_metrics(t.body)
    return size + t.prefix, depth + t.prefix


def _debruijn_readback(t: coalesced.DTopTerm, emit: Emit, budget: Optional[int]) -> Term:
    while True:
        step = coalesced.debruijn_readback_step(t)
        if step is None:
            break
        rule, t = step
        emit(rule, print_state(t))
    if projection.collect_indices(t.body):
        raise IllegalStateError("index survived readback")
    emit("done", print_term(t.body))
    return t.body


# --- abs-frame head machine -------------------------------------------------


def _abs_halt(c: headsimple.HCommand) -> tuple[str, str]:
    if headsimple.abs_terminal(c):
        return "normal", ""
    return "stuck", "no transition applies"


def _h_metrics(c: headsimple.HCommand) -> tuple[int, int]:
    args = []
    coterm = c.coterm
    while isinstance(coterm, headsimple.HPush):
        args.append(coterm.arg)
        coterm = coterm.rest
    return _plugged_metrics(c.term, args, len(coterm.binders))


# --- environment machines ----------------------------------------------------


def _e_metrics(c: envmachine.ECommand) -> tuple[int, int]:
    # Closures share structure, so states stay small; results are guarded
    # at forcing time instead.
    return 1, 1


def _env_krivine_readback(c: envmachine.ECommand, emit: Emit, budget: Optional[int]) -> Term:
    # Forcing the focus and every stacked closure turns the state into a
    # substitution-machine state, whose readback folds any leftover
    # arguments back on (only open programs leave any).
    forced = envmachine.as_forced_command(c, budget)
    return _machine_readback(projection.proj_readback_step, print_state)(forced, emit, budget)


def _env_head_readback(c: envmachine.ECommand, emit: Emit, budget: Optional[int]) -> Term:
    forced = envmachine.as_forced_command(c, budget)
    state = coalesced.QCommand(forced.term, forced.coterm)
    return _machine_readback(coalesced.coalesced_readback_step, print_state)(state, emit, budget)


def _env_render(c: envmachine.ECommand) -> str:
    return print_state(c)


def _env_head_render(c: envmachine.ECommand) -> str:
    return print_state(c, env_style="pick")


# --- control engines ----------------------------------------------------------


def _control_size(t: control.CTerm) -> int:
    match t:
        case control.CApp(fun, arg):
            return 1 + _control_size(fun) + _control_size(arg)
        case control.Mu(_, body):
            return 1 + _control_command_size(body)
        case control.Case(_, _, body):
            return 1 + _control_command_size(body)
        case _:
            return 1


def _control_coterm_size(e: control.CCoTerm) -> int:
    size = 1
    while isinstance(e, control.CPush):
        size += 1 + _control_size(e.arg)
        e = e.rest
    return size


def _control_command_size(c: control.CCommand) -> int:
    return _control_size(c.term) + _control_coterm_size(c.coterm)


def _c_metrics(c: control.CCommand) -> tuple[int, int]:
    return _control_command_size(c), 1


def _control_load(t: Term) -> control.CCommand:
    return control.control_load(control.embed_term(t))


def _control_plain_halt(c: control.CCommand) -> tuple[str, str]:
    return control.control_halt(c, projective=False)


def _control_proj_halt(c: control.CCommand) -> tuple[str, str]:
    return control.control_halt(c, projective=True)


def _control_krivine_readback(c: control.CCommand, emit: Emit, budget: Optional[int]) -> Term:
    state = control.as_krivine_command(c)
    return _machine_readback(weakhead.krivine_readback_step, print_state)(state, emit, budget)


def _control_proj_readback(c: control.CCommand, emit: Emit, budget: Optional[int]) -> Term:
    state = control.as_projection_command(c)
    return _machine_readback(projection.proj_readback_step, print_state)(state, emit, budget)


# --- registry -----------------------------------------------------------------


def _term_step_engine(name, strategy, description, step_fn) -> Engine:
    return Engine(
        name=name,
        strategy=strategy,
        description=description,
        load=lambda t: t,
        step=step_fn,
        halt=_always_normal,
        readback=_smallstep_readback,
        render=print_term,
        metrics=term_metrics,
    )


def _bigstep_engine(name, strategy, description, fn) -> Engine:
    return Engine(
        name=name,
        strategy=strategy,
        description=description,
        load=lambda t: t,
        step=lambda s: None,
        halt=_always_normal,
        readback=_smallstep_readback,
        render=print_term,
        metrics=term_metrics,
        bigstep=fn,
    )


ENGINES: dict[str, Engine] = {}


def _register(engine: Engine) -> None:
    ENGINES[engine.name] = engine


_register(_term_step_engine(
    "wh-os", "weak-head",
    "contextual small-step weak-head reduction",
    _wh_os_step,
))

_register(Engine(
    name="krivine",
    strategy="weak-head",
    description="Krivine machine, substitution-based call stack",
    load=weakhead.krivine_load,
    step=weakhead.krivine_step,
    halt=_krivine_halt,
    readback=_k_readback_driver,
    render=print_state,
    metrics=_k_metrics,
))

_register(_bigstep_engine(
    "wh-bigstep", "weak-head",
    "big-step weak-head evaluator",
    weakhead.bigstep_wh,
))

_register(Engine(
    name="env-krivine",
    strategy="weak-head",
    description="Krivine machine with persistent environments and closures",
    load=envmachine.env_krivine_load,
    step=envmachine.env_krivine_step,
    halt=envmachine.env_krivine_halt,
    readback=_env_krivine_readback,
    render=_env_render,
    metrics=_e_metrics,
    beta_rules=frozenset(("bind",)),
))

_register(_term_step_engine(
    "head-os", "head",
    "small-step head reduction contracting the head redex in place",
    lambda t: (lambda nxt: None if nxt is None else ("beta", nxt))(headsimple.step_head_os(t)),
))

_register(Engine(
    name="head-abs",
    strategy="head",
    description="head machine that walks under binders, remembering them in the co-term",
    load=headsimple.abs_load,
    step=headsimple.abs_machine_step,
    halt=_abs_halt,
    readback=_machine_readback(headsimple.abs_readback_step, print_state),
    render=print_state,
    metrics=_h_metrics,
))

_register(Engine(
    name="head-proj",
    strategy="head",
    description="projection-based head machine over stuck co-terms",
    load=projection.proj_load,
    step=projection.proj_step,
    halt=_proj_halt,
    readback=_machine_readback(projection.proj_readback_step, print_state),
    render=print_state,
    metrics=_p_metrics,
))

_register(Engine(
    name="head-os-derived",
    strategy="head",
    description="index-form small-step head reduction with an anonymous binder prefix",
    load=lambda t: projection.TopTerm(0, t),
    step=_derived_step,
    halt=_top_halt,
    readback=_derived_readback,
    render=print_state,
    metrics=_top_metrics,
))

_register(Engine(
    name="head-coalesced",
    strategy="head",
    description="head machine with projection chains coalesced into numeric offsets",
    load=coalesced.coalesced_load,
    step=coalesced.coalesced_step,
    halt=lambda c: ("normal", "") if coalesced.coalesced_terminal(c) else ("stuck", "no transition applies"),
    readback=_machine_readback(coalesced.coalesced_readback_step, print_state),
    render=print_state,
    metrics=_p_metrics,
))

_register(Engine(
    name="head-debruijn",
    strategy="head",
    description="small-step head reduction with a counted top-level binder prefix",
    load=coalesced.debruijn_load,
    step=coalesced.debruijn_step,
    halt=_top_halt,
    readback=_debruijn_readback,
    render=print_state,
    metrics=_dtop_metrics,
))

_register(_bigstep_engine(
    "head-bigstep", "head",
    "big-step head evaluator layered on weak-head evaluation",
    headsimple.bigstep_h,
))

_register(_bigstep_engine(
    "sestoft", "head",
    "Sestoft-style big-step head evaluator",
    headsimple.bigstep_sestoft,
))

_register(Engine(
    name="env-head",
    strategy="head",
    description="coalesced head machine with persistent environments and closures",
    load=envmachine.env_head_load,
    step=envmachine.env_head_step,
    halt=envmachine.env_head_halt,
    readback=_env_head_readback,
    render=_env_head_render,
    metrics=_e_metrics,
    beta_rules=frozenset(("bind",)),
))

_register(Engine(
    name="control-krivine",
    strategy="control",
    description="stack machine with context naming and pattern-matching functions",
    load=_control_load,
    step=control.control_step,
    halt=_control_plain_halt,
    readback=_control_krivine_readback,
    render=print_state,
    metrics=_c_metrics,
))

_register(Engine(
    name="control-proj",
    strategy="control",
    description="control machine that splits stuck co-terms into projections",
    load=_control_load,
    step=control.control_proj_step,
    halt=_control_proj_halt,
    readback=_control_proj_readback,
    render=print_state,
    metrics=_c_metrics,
))

WH_ENGINE_NAMES = tuple(n for n, e in ENGINES.items() if e.strategy == "weak-head")
HEAD_ENGINE_NAMES = tuple(n for n, e in ENGINES.items() if e.strategy == "head")


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
    max_state_nodes: int = MAX_STATE_NODES,
    max_state_depth: int = MAX_STATE_DEPTH,
    max_total_work: int = MAX_TOTAL_WORK,
) -> tuple[Outcome, Optional[Trace]]:
    """Run one engine on a term under a beta budget.

    Returns the outcome and, when requested, the rule-labelled trace of
    load, reduce, and readback events.
    """
    eng = get_engine(engine)
    budget = resolve_fuel(fuel)
    tr = Trace(eng.name) if trace else None

    def emit(phase: str, rule: str, state: str) -> None:
        if tr is not None:
            tr.add(phase, rule, state)

    if eng.bigstep is not None:
        meter = FuelMeter(budget, max_total_work)
        emit("load", "load", print_term(term))
        log: Optional[list] = None
        try:
            result = eng.bigstep(term, meter, log)
        except OutOfFuel as exc:
            reason = "beta budget" if exc.kind == "beta" else "work budget"
            return FuelExhausted("<abandoned>", min(meter.betas, budget), reason), tr
        emit("readback", "done", print_term(result))
        return Normal(result, meter.betas, meter.betas), tr

    state = eng.load(term)
    emit("load", "load", eng.render(state))
    betas = 0
    steps = 0
    work = 0
    step_fn = eng.step
    beta_rules = eng.beta_rules
    tracing = tr is not None
    while True:
        nxt = step_fn(state)
        if nxt is None:
            break
        rule, state = nxt
        steps += 1
        work += 1
        if tracing:
            emit("reduce", rule, eng.render(state))
        if rule in beta_rules:
            betas += 1
            if betas > budget:
                return FuelExhausted(_render_capped(eng, state), budget, "beta budget"), tr
            size, depth = eng.metrics(state)
            work += size
            if size > max_state_nodes or depth > max_state_depth:
                return FuelExhausted(_render_capped(eng, state), betas, "work budget"), tr
        if work > max_total_work:
            return FuelExhausted(_render_capped(eng, state), betas, "work budget"), tr

    # "open" halts (an environment machine meeting an unbound variable)
    # have no transition but still read back to a neutral term.
    kind, reason = eng.halt(state)
    if kind == "stuck":
        return Stuck(reason, eng.render(state)), tr

    def emit_readback(rule: str, rendering: str) -> None:
        emit("readback", rule, rendering)

    try:
        result = eng.readback(state, emit_readback, max_state_nodes)
    except envmachine.ForceBudgetExceeded:
        return FuelExhausted("<result too large to materialize>", betas, "work budget"), tr
    except (IllegalStateError, ValueError) as exc:
        return Stuck(f"readback failed: {exc}", _render_capped(eng, state)), tr
    return Normal(result, steps, betas), tr


@dataclass(frozen=True)
class EngineResult:
    engine: str
    strategy: str
    outcome: Outcome


@dataclass
class CompareReport:
    fuel: int
    results: list[EngineResult]
    group_agreement: dict[str, bool]
    cross_strategy_difference: bool

    @property
    def all_agree(self) -> bool:
        return all(self.group_agreement.values())


def _group_agrees(outcomes: list[Outcome]) -> bool:
    if all(isinstance(o, Normal) for o in outcomes):
        first = outcomes[0].result
        return all(alpha_eq(first, o.result) for o in outcomes[1:])
    return all(isinstance(o, FuelExhausted) for o in outcomes)


def compare(term: Term, engines: Iterable[str], fuel: Optional[int] = None) -> CompareReport:
    """Run several engines and group their outcomes.

    Engines of one strategy must agree up to alpha-equivalence (or agree
    to run out of fuel); the weak-head and head groups may legitimately
    differ from each other, which is reported but is not a disagreement.
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
