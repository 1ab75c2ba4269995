"""Weak-head evaluation three ways.

A contextual small-step relation, the Krivine machine with its load and
readback rules, and a big-step evaluator.  The three are written as
independent artifacts on purpose: the harness property-tests that they
agree, which is only meaningful if none is defined in terms of another.

The Krivine machine's state, a term facing a call stack over `TOP`, is
also the state of the projection machine (these rules plus `project`,
which drops frames off `TOP`) and of head-abs (whose call stack ends in
`headsimple.HStuck` instead).
"""

from __future__ import annotations

from typing import Optional, Union

from .fuel import FuelMeter
from .syntax import App, Lam, Node, Term, Var, subst, term_metrics

__all__ = [
    "EvalContext",
    "plug",
    "decompose_wh",
    "step_wh_os",
    "PStuck",
    "PPush",
    "PCoTerm",
    "PCommand",
    "TOP",
    "krivine_load",
    "krivine_step",
    "krivine_terminal",
    "krivine_readback_step",
    "bigstep_wh",
]

# An evaluation context is the argument spine around the hole, stored
# outermost application first; plugging folds them back on from the inside.
EvalContext = tuple[Term, ...]


def plug(ctx: EvalContext, t: Term) -> Term:
    for arg in reversed(ctx):
        t = App(t, arg)
    return t


def decompose_wh(t: Term) -> Optional[tuple[EvalContext, App]]:
    """Split t into context and weak-head redex, or None when it has none.

    The decomposition is unique: walk the application spine to its head;
    a lambda head applied to at least one argument forms the redex with
    its innermost argument.
    """
    outermost_first: list[Term] = []
    head = t
    while isinstance(head, App):
        outermost_first.append(head.arg)
        head = head.fun
    if isinstance(head, Lam) and outermost_first:
        redex = App(head, outermost_first[-1])
        return tuple(outermost_first[:-1]), redex
    return None


def step_wh_os(t: Term) -> Optional[Term]:
    """One weak-head beta step, or None when t is a weak-head normal form."""
    decomposition = decompose_wh(t)
    if decomposition is None:
        return None
    ctx, redex = decomposition
    lam = redex.fun
    assert isinstance(lam, Lam)
    return plug(ctx, subst(lam.body, lam.binder, redex.arg))


class PStuck(Node):
    """A stuck co-term: the top level with `depth` frames dropped.  It
    plugs back to `depth` lambdas, so each of its measures is `depth`."""

    __slots__ = __match_args__ = ("depth",)
    size = frames = height = property(lambda self: self.depth)


class PPush(Node):
    """An argument on the call stack.  A co-term measures the term it plugs
    around an empty hole: its `size`, the `frames` (pushes and binders) on
    the path to the hole, and its `height`.  A command adds its focus, so
    the growth guard reads the measures of the term a state plugs back to
    in O(1).  `_derived` sets them when the push is built."""

    __match_args__ = ("arg", "rest")
    __slots__ = ("arg", "rest", "size", "frames", "height")
    _derived = {
        "size": "rest.size + arg.size + 1",
        "frames": "rest.frames + 1",
        "height": "arg.height + frames if arg.height + frames > rest.height else rest.height",
    }


PCoTerm = Union[PStuck, PPush]


class PCommand(Node):
    __slots__ = __match_args__ = ("term", "coterm")
    size = property(lambda self: self.term.size + self.coterm.size)
    height = property(lambda self: max(self.term.height + self.coterm.frames, self.coterm.height))


TOP = PStuck(0)


def krivine_load(t: Term) -> PCommand:
    return PCommand(t, TOP)


def krivine_step(c: PCommand) -> Optional[tuple[str, PCommand]]:
    """Apply the one rule that matches, or None when the machine halts."""
    match c.term:
        case App(fun, arg):
            return "push", PCommand(fun, PPush(arg, c.coterm))
        case Lam(binder, body) if isinstance(c.coterm, PPush):
            return "beta", PCommand(subst(body, binder, c.coterm.arg), c.coterm.rest)
        case _:
            return None


def krivine_terminal(c: PCommand) -> bool:
    """Halting states: a variable under any stack, or a lambda on the
    empty stack.  Distinct from merely `krivine_step returned None` so the
    harness can tell a finished run from a wedged one."""
    if isinstance(c.term, Var):
        return True
    return isinstance(c.term, Lam) and c.coterm == TOP


def krivine_readback_step(c: PCommand) -> tuple[str, Union[PCommand, Term]]:
    match c.coterm:
        case PPush(arg, rest):
            return "pop", PCommand(App(c.term, arg), rest)
        case _:
            return "done", c.term


def bigstep_wh(t: Term, fuel: FuelMeter, log: Optional[list[Term]] = None) -> Term:
    """Big-step weak-head evaluation.

    Variables and lambdas evaluate to themselves.  An application first
    evaluates its function: a lambda result contracts and evaluation
    continues on the contractum; anything else leaves the argument in
    place untouched.  The continuation premise is run as a loop so the
    Python stack only grows with spine nesting, never with beta count.
    Without a `log` the meter watches the loop's terms, and counts the
    periods of a repeating run that the loop then skips (`FuelMeter.watch`).
    """
    mark = None
    while True:
        if not isinstance(t, App):
            return t
        fun = bigstep_wh(t.fun, fuel, log)
        if isinstance(fun, Lam):
            if log is not None:
                log.append(App(fun, t.arg))
            t = subst(fun.body, fun.binder, t.arg)
            fuel.contract(term_metrics(t)[0])
            if log is None:
                t, mark = fuel.watch(t, mark)
        else:
            return App(fun, t.arg)
