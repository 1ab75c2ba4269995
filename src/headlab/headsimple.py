"""Head reduction without projections.

The plain small-step relation (contract the head redex under the binder
prefix), a machine that walks under binders by remembering them in the
co-term (on the Krivine machine's state, with `HStuck` at the bottom of
the call stack), a big-step evaluator layered on weak-head evaluation,
and Sestoft's big-step formulation.  The two big-step evaluators are kept
independent so that their agreement, beta step for beta step, is an
actual cross-check and not a tautology: each contracts every redex on
its own, and the periods a diverging run skips without a log are only
counted by the shared meter (`FuelMeter.watch`).
"""

from __future__ import annotations

from typing import Optional, Union

from .fuel import FuelMeter
from .syntax import App, Lam, Node, Term, Var, strip_binders, subst, term_metrics
from .weakhead import EvalContext, PCommand, PPush, bigstep_wh, decompose_wh, plug

__all__ = [
    "HTopDecomp",
    "decompose_head",
    "step_head_os",
    "HStuck",
    "abs_load",
    "abs_machine_step",
    "abs_terminal",
    "abs_readback_step",
    "bigstep_h",
    "bigstep_sestoft",
]


class HTopDecomp(Node):
    """A term split as binder prefix, argument spine, and focus."""

    __slots__ = __match_args__ = ("binders", "context", "focus")
    binders: tuple[str, ...]
    context: EvalContext
    focus: Term

    def rebuild(self) -> Term:
        t = plug(self.context, self.focus)
        for binder in reversed(self.binders):
            t = Lam(binder, t)
        return t


def decompose_head(t: Term) -> HTopDecomp:
    binders, core = strip_binders(t)
    decomposition = decompose_wh(core)
    if decomposition is None:
        return HTopDecomp(binders, (), core)
    ctx, redex = decomposition
    return HTopDecomp(binders, ctx, redex)


def step_head_os(t: Term) -> Optional[Term]:
    """Contract the head redex: under binders x1..xn, the leftmost lambda
    of the application spine applied to its first argument.  None when t
    is a head normal form."""
    binders, core = strip_binders(t)
    decomposition = decompose_wh(core)
    if decomposition is None:
        return None
    ctx, redex = decomposition
    lam = redex.fun
    assert isinstance(lam, Lam)
    result = plug(ctx, subst(lam.body, lam.binder, redex.arg))
    for binder in reversed(binders):
        result = Lam(binder, result)
    return result


class HStuck(Node):
    """Binders the machine has descended under, most recent first.  It
    plugs back to that many lambdas, so each of its measures (see
    `weakhead.PPush`) is their count."""

    __slots__ = __match_args__ = ("binders",)
    size = frames = height = property(lambda self: len(self.binders))


def abs_load(t: Term) -> PCommand:
    return PCommand(t, HStuck(()))


def abs_machine_step(c: PCommand) -> Optional[tuple[str, PCommand]]:
    match c.term:
        case App(fun, arg):
            return "push", PCommand(fun, PPush(arg, c.coterm))
        case Lam(binder, body):
            match c.coterm:
                case PPush(arg, rest):
                    return "beta", PCommand(subst(body, binder, arg), rest)
                case HStuck(binders):
                    return "descend", PCommand(body, HStuck((binder,) + binders))
        case _:
            return None
    return None


def abs_terminal(c: PCommand) -> bool:
    return isinstance(c.term, Var)


def abs_readback_step(c: PCommand) -> tuple[str, Union[PCommand, Term]]:
    match c.coterm:
        case PPush(arg, rest):
            return "pop", PCommand(App(c.term, arg), rest)
        case HStuck(binders) if binders:
            # The stored binder was never substituted away, so it is
            # reattached verbatim.
            return "lambda", PCommand(Lam(binders[0], c.term), HStuck(binders[1:]))
        case _:
            return "done", c.term


def bigstep_h(t: Term, fuel: FuelMeter, log: Optional[list[Term]] = None) -> Term:
    """Head normalization via weak-head evaluation: normalize to weak head,
    then keep normalizing under the lambda that produced."""
    result = bigstep_wh(t, fuel, log)
    if isinstance(result, Lam):
        return Lam(result.binder, bigstep_h(result.body, fuel, log))
    return result


def bigstep_sestoft(t: Term, fuel: FuelMeter, log: Optional[list[Term]] = None) -> Term:
    """Sestoft-style head normalization.

    Application logic is spelled out again instead of delegating to the
    weak-head loop for the whole term: evaluate the function to weak head,
    contract if it is a lambda, otherwise stop with the argument intact;
    a lambda at the focus means descend and continue.  As in
    `bigstep_wh`, without a `log` the meter watches the loop's terms.
    """
    mark = None
    while True:
        match t:
            case Var():
                return t
            case Lam(binder, body):
                return Lam(binder, bigstep_sestoft(body, fuel, log))
            case App(fun, arg):
                fun_wh = bigstep_wh(fun, fuel, log)
                if isinstance(fun_wh, Lam):
                    if log is not None:
                        log.append(App(fun_wh, arg))
                    t = subst(fun_wh.body, fun_wh.binder, arg)
                    fuel.contract(term_metrics(t)[0])
                    if log is None:
                        mark = fuel.watch(t, mark)
                else:
                    return App(fun_wh, arg)
            case _:
                return t
