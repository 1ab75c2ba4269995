"""Named lambda terms and the operations every evaluation engine shares.

Terms are immutable values and all operations here are pure, so they are
safe to use from any number of threads.  Besides the pure constructors
(Var, App, Lam) two engine-internal token kinds live here: call-stack
projections (Proj) and top-level binder indices (Index).  Substitution,
alpha comparison and printing treat them as inert atoms; the parser never
builds them, so user-supplied terms stay pure.

Every node carries its node count and height (`size`, `height`), set when
it is built, so `term_metrics` reads two fields instead of walking the
tree.  App and Lam also keep a free-variable memo that `free_vars` fills
on first use; it is an idempotent cache, so two threads that fill it at
once only race to write equal values.  None of these cached fields takes
part in `==`, `hash`, `repr` or pattern matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Optional, Union

__all__ = [
    "Var",
    "App",
    "Lam",
    "Proj",
    "Index",
    "Term",
    "RESERVED_NAMES",
    "IllegalStateError",
    "NormalFormClass",
    "canonical_binder",
    "free_vars",
    "all_names",
    "fresh",
    "subst",
    "alpha_eq",
    "spine",
    "strip_binders",
    "split_stack",
    "classify",
    "is_pure",
    "replace_atom",
    "atoms",
    "term_metrics",
]


def _cached():
    """A field derived from the others: set by __init__, outside ==, hash and repr."""
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    size: ClassVar[int] = 1
    height: ClassVar[int] = 1


@dataclass(frozen=True, slots=True, init=False)
class App:
    fun: "Term"
    arg: "Term"
    size: int = _cached()
    height: int = _cached()
    _fv: Optional[frozenset[str]] = _cached()

    def __init__(self, fun: "Term", arg: "Term") -> None:
        _app_fun(self, fun)
        _app_arg(self, arg)
        _app_size(self, fun.size + arg.size + 1)
        fun_height, arg_height = fun.height, arg.height
        _app_height(self, (fun_height if fun_height > arg_height else arg_height) + 1)
        _app_fv(self, None)


@dataclass(frozen=True, slots=True, init=False)
class Lam:
    binder: str
    body: "Term"
    size: int = _cached()
    height: int = _cached()
    _fv: Optional[frozenset[str]] = _cached()

    def __init__(self, binder: str, body: "Term") -> None:
        _lam_binder(self, binder)
        _lam_body(self, body)
        _lam_size(self, body.size + 1)
        _lam_height(self, body.height + 1)
        _lam_fv(self, None)


# The slot setters of App and Lam.  Frozen dataclasses refuse attribute
# assignment; the __init__ methods above write through the slot
# descriptors instead, which is also cheaper than object.__setattr__.
_app_fun, _app_arg, _app_size, _app_height, _app_fv = (
    getattr(App, name).__set__ for name in ("fun", "arg", "size", "height", "_fv")
)
_lam_binder, _lam_body, _lam_size, _lam_height, _lam_fv = (
    getattr(Lam, name).__set__ for name in ("binder", "body", "size", "height", "_fv")
)


@dataclass(frozen=True, slots=True)
class Proj:
    """The argument sitting `depth` frames above the top of the call stack.

    Engine-internal: stands for projecting the head argument out of the
    stuck co-term obtained by dropping `depth` frames from the top level.
    """

    depth: int
    size: ClassVar[int] = 1
    height: ClassVar[int] = 1


@dataclass(frozen=True, slots=True)
class Index:
    """Positional reference to an anonymous top-level binder.

    Index(0) names the outermost absorbed binder; under a prefix of n
    anonymous binders the innermost one is Index(n - 1).
    """

    value: int
    size: ClassVar[int] = 1
    height: ClassVar[int] = 1


Term = Union[Var, App, Lam, Proj, Index]

# Concrete-syntax keywords for engine-internal tokens.  The parser refuses
# them as identifiers so printed machine states can never round-trip back
# in as ordinary user terms.
RESERVED_NAMES = frozenset({"tp", "car", "cdr", "pick", "drop"})


class IllegalStateError(Exception):
    """A readback found leftover engine-internal tokens in its result."""


# Binder names handed out by the term generator and by readback, indexed
# by binder depth.  Starting at "x" keeps small examples looking natural.
_POOL = "xyzwvutsrqponmlkjihgfedcba"


def canonical_binder(k: int) -> str:
    """Default binder name for nesting depth k: x, y, z, ... then x1, y1, ..."""
    rnd, stem = divmod(k, len(_POOL))
    return _POOL[stem] if rnd == 0 else f"{_POOL[stem]}{rnd}"


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case App(fun, arg):
            fv = t._fv
            if fv is None:
                fv = free_vars(fun) | free_vars(arg)
                _app_fv(t, fv)
            return fv
        case Lam(binder, body):
            fv = t._fv
            if fv is None:
                fv = free_vars(body) - {binder}
                _lam_fv(t, fv)
            return fv
        case _:
            return frozenset()


def all_names(t: Term) -> frozenset[str]:
    """Every variable name occurring in t, free or bound, binder or use."""
    match t:
        case Var(name):
            return frozenset((name,))
        case App(fun, arg):
            return all_names(fun) | all_names(arg)
        case Lam(binder, body):
            return all_names(body) | {binder}
        case _:
            return frozenset()


def fresh(avoid: frozenset[str] | set[str], hint: str = "x") -> str:
    """Pick a name not in `avoid`, deterministically from (avoid, hint)."""
    if hint not in avoid:
        return hint
    i = 1
    while f"{hint}{i}" in avoid:
        i += 1
    return f"{hint}{i}"


def subst(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding substitution of s for the free occurrences of x in t.

    Bound variables are renamed only when an actual capture would occur,
    which keeps evaluation traces close to the input's own spelling.
    Subterms in which x is not free are shared with t, not copied.
    """
    return _subst(t, x, s, free_vars(s))


def _subst(t: Term, x: str, s: Term, s_free: frozenset[str]) -> Term:
    match t:
        case Var(name):
            return s if name == x else t
        case App(fun, arg):
            if x not in free_vars(t):
                return t
            return App(_subst(fun, x, s, s_free), _subst(arg, x, s, s_free))
        case Lam(binder, body):
            if x not in free_vars(t):
                return t
            # x is free in t, so binder != x and x is free in body.
            if binder in s_free:
                avoid = s_free | free_vars(body) | {x, binder}
                renamed = fresh(avoid, binder)
                body = _subst(body, binder, Var(renamed), frozenset((renamed,)))
                return Lam(renamed, _subst(body, x, s, s_free))
            return Lam(binder, _subst(body, x, s, s_free))
        case _:
            return t


def _nameless(t: Term, env: tuple[str, ...]):
    """Locally nameless skeleton: bound uses become distances, frees stay names."""
    match t:
        case Var(name):
            for i, bound in enumerate(reversed(env)):
                if bound == name:
                    return ("b", i)
            return ("f", name)
        case App(fun, arg):
            return ("a", _nameless(fun, env), _nameless(arg, env))
        case Lam(binder, body):
            return ("l", _nameless(body, env + (binder,)))
        case Proj(depth):
            return ("p", depth)
        case Index(value):
            return ("i", value)
    raise TypeError(f"not a term: {t!r}")


def alpha_eq(a: Term, b: Term) -> bool:
    """True iff a and b are equal up to renaming of bound variables."""
    return _nameless(a, ()) == _nameless(b, ())


class NormalFormClass(Enum):
    NEUTRAL = "Neutral"
    WHNF = "Whnf"
    HNF = "Hnf"
    WHNF_AND_HNF = "WhnfAndHnf"
    REDUCIBLE = "Reducible"


def spine(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Split t into its application head and arguments in application order."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, tuple(args)


def strip_binders(t: Term) -> tuple[tuple[str, ...], Term]:
    """Peel the leading lambda prefix off t."""
    binders: list[str] = []
    while isinstance(t, Lam):
        binders.append(t.binder)
        t = t.body
    return tuple(binders), t


def split_stack(coterm, push: type) -> tuple[list, object]:
    """Peel the pushed arguments off a machine's co-term, top of stack first.

    `push` is that machine's push frame, a class with `arg` and `rest`.
    Returns the arguments and what is left under the last push.
    """
    args = []
    while isinstance(coterm, push):
        args.append(coterm.arg)
        coterm = coterm.rest
    return args, coterm


def classify(t: Term) -> NormalFormClass:
    """Total, mutually exclusive normal-form classification.

    Neutral terms (a variable applied to arguments) count as both weak-head
    and head normal; a lambda is always weak-head normal and is also head
    normal exactly when stripping its binder prefix exposes a neutral core.
    Index and Proj atoms are treated like variables so engine outputs that
    still carry them classify sensibly.
    """
    head, args = spine(t)
    if not isinstance(head, Lam):
        return NormalFormClass.NEUTRAL
    if args:
        return NormalFormClass.REDUCIBLE
    _, core = strip_binders(t)
    core_head, _ = spine(core)
    if isinstance(core_head, Lam):
        return NormalFormClass.WHNF
    return NormalFormClass.WHNF_AND_HNF


def is_pure(t: Term) -> bool:
    """True when t uses only the Var/App/Lam constructors.  A loop over an
    explicit stack of arguments still to visit, so no depth overflows it."""
    todo = [t]
    while todo:
        t = todo.pop()
        while not isinstance(t, Var):
            if isinstance(t, App):
                todo.append(t.arg)
                t = t.fun
            elif isinstance(t, Lam):
                t = t.body
            else:
                return False
    return True


def replace_atom(t: Term, atom: Union[Proj, Index], x: str) -> Term:
    """Turn every occurrence of `atom` in t into Var(x); other atoms stay.

    Proj(n) and Index(n) are different atoms.  Plain structural
    replacement: the caller guarantees x is fresh for t, including its
    binders, so no capture checks are needed.
    """
    match t:
        case App(fun, arg):
            return App(replace_atom(fun, atom, x), replace_atom(arg, atom, x))
        case Lam(binder, body):
            return Lam(binder, replace_atom(body, atom, x))
        case _:
            return Var(x) if t == atom else t


def atoms(t: Term, kind: type) -> frozenset:
    """Every atom of type `kind` (Proj or Index) occurring in t."""
    match t:
        case App(fun, arg):
            return atoms(fun, kind) | atoms(arg, kind)
        case Lam(_, body):
            return atoms(body, kind)
        case _:
            return frozenset((t,)) if isinstance(t, kind) else frozenset()


def term_metrics(t) -> tuple[int, int]:
    """(size, height) of a term or of any engine's state, read off its
    fields: a state reports those of the term it plugs back to, except
    envmachine.ECommand and control.CCommand, which say what they report."""
    return t.size, t.height
