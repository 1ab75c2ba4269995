"""Printing for terms and machine states.

Term output is ASCII and re-parseable; parsing a printed term gives back
the identical structure.  Machine states render in the notation of their
engine: projection chains as car/cdr around tp, coalesced offsets as
pick/drop, binder frames as Abs(x, S), environments as binding lists.
"""

from __future__ import annotations

from typing import Union

from . import coalesced, control, envmachine, headsimple, projection, weakhead
from .syntax import App, Index, Lam, Proj, Term, Var, split_stack

__all__ = ["print_term", "print_state"]

# Printing positions, by how tightly the surrounding syntax binds.
_TOP, _FUN, _ARG = 0, 1, 2


def _cdr_chain(depth: int) -> str:
    text = "tp"
    for _ in range(depth):
        text = f"cdr({text})"
    return text


def _term(t: Term, pos: int, proj_style: str) -> str:
    match t:
        case Var(name):
            return name
        case Index(value):
            return f"#{value}"
        case Proj(depth):
            if proj_style == "pick":
                text = f"pick {depth} tp"
                return f"({text})" if pos > _TOP else text
            return f"car({_cdr_chain(depth)})"
        case Lam():
            binders = []
            body = t
            while isinstance(body, Lam):
                binders.append(body.binder)
                body = body.body
            text = f"\\{' '.join(binders)}.{_term(body, _TOP, proj_style)}"
            return f"({text})" if pos > _TOP else text
        case App(fun, arg):
            text = f"{_term(fun, _FUN, proj_style)} {_term(arg, _ARG, proj_style)}"
            return f"({text})" if pos > _FUN else text
    raise TypeError(f"not a term: {t!r}")


def print_term(t: Term, proj_style: str = "car") -> str:
    return _term(t, _TOP, proj_style)


def _k_coterm(e: weakhead.KCoTerm) -> str:
    args, _ = split_stack(e, weakhead.KPush)
    return " . ".join([*(_term(arg, _ARG, "car") for arg in args), "tp"])


def _p_coterm(e: projection.PCoTerm, style: str) -> str:
    args, stuck = split_stack(e, projection.PPush)
    tail = f"drop {stuck.depth} tp" if style == "pick" else _cdr_chain(stuck.depth)
    return " . ".join([*(_term(arg, _ARG, style) for arg in args), tail])


def _h_coterm(e: headsimple.HCoTerm) -> str:
    args, stuck = split_stack(e, headsimple.HPush)
    tail = "tp"
    for name in reversed(stuck.binders):
        tail = f"Abs({name}, {tail})"
    return " . ".join([*(_term(arg, _ARG, "car") for arg in args), tail])


def _c_term(t: control.CTerm, pos: int) -> str:
    match t:
        case control.CVar(name):
            return name
        case control.CarS(depth):
            return f"car({_cdr_chain(depth)})"
        case control.Mu(covar, body):
            text = f"mu {covar}.{_c_command(body)}"
            return f"({text})" if pos > _TOP else text
        case control.Case(binder, cobinder, body):
            return f"case[({binder} . {cobinder}).{_c_command(body)}]"
        case control.CApp(fun, arg):
            text = f"{_c_term(fun, _FUN)} {_c_term(arg, _ARG)}"
            return f"({text})" if pos > _FUN else text
    raise TypeError(f"not a control term: {t!r}")


def _c_coterm(e: control.CCoTerm) -> str:
    args, tail = split_stack(e, control.CPush)
    text = tail.name if isinstance(tail, control.CoVar) else _cdr_chain(tail.depth)
    return " . ".join([*(_c_term(arg, _ARG) for arg in args), text])


def _c_command(c: control.CCommand) -> str:
    return f"<{_c_term(c.term, _TOP)} || {_c_coterm(c.coterm)}>"


def _env(env: envmachine.Env, depth: int, style: str) -> str:
    if env is None:
        return "[]"
    if depth <= 0:
        return "[..]"
    parts = []
    while env is not None:
        parts.append(f"{env.name} -> {_closure(env.value, depth - 1, style)}")
        env = env.rest
    return "[" + ", ".join(parts) + "]"


def _closure(c: envmachine.Closure, depth: int, style: str) -> str:
    return f"({_term(c.term, _TOP, style)}, {_env(c.env, depth, style)})"


def _e_coterm(e: envmachine.ECoTerm, style: str) -> str:
    args, stuck = split_stack(e, envmachine.EPush)
    tail = f"drop {stuck.depth} tp" if style == "pick" else _cdr_chain(stuck.depth)
    return " . ".join([*(_closure(arg, 1, style) for arg in args), tail])


State = Union[
    Term,
    weakhead.KCommand,
    projection.PCommand,
    headsimple.HCommand,
    control.CCommand,
    envmachine.ECommand,
    projection.TopTerm,
    coalesced.DTopTerm,
]


def print_state(state: State, env_style: str = "car") -> str:
    """Engine-tagged rendering of any machine state or small-step form."""
    match state:
        case coalesced.QCommand():
            return f"<{_term(state.term, _TOP, 'pick')} || {_p_coterm(state.coterm, 'pick')}>"
        case projection.PCommand():
            return f"<{_term(state.term, _TOP, 'car')} || {_p_coterm(state.coterm, 'car')}>"
        case weakhead.KCommand():
            return f"<{print_term(state.term)} || {_k_coterm(state.stack)}>"
        case headsimple.HCommand():
            return f"<{print_term(state.term)} || {_h_coterm(state.coterm)}>"
        case control.CCommand():
            return _c_command(state)
        case envmachine.ECommand():
            style = "pick" if env_style == "pick" else "car"
            term = _term(state.term, _TOP, style)
            return f"<{term} || {_env(state.env, 2, style)} || {_e_coterm(state.coterm, style)}>"
        case projection.TopTerm():
            return "\\." * state.binders + print_term(state.body)
        case coalesced.DTopTerm():
            return f"\\^{state.prefix}.{print_term(state.body)}"
        case _:
            return print_term(state)
