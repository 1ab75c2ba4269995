"""Named lambda terms and the operations every evaluation engine shares.

Terms are immutable values and all operations here are pure, so they are
safe to use from any number of threads.  Besides the pure constructors
(Var, App, Lam) two engine-internal token kinds live here: call-stack
projections (Proj) and top-level binder indices (Index).  Substitution,
alpha comparison and printing treat them as inert atoms; the parser never
builds them, so user-supplied terms stay pure.

Every record in headlab, term nodes and machine states alike, is a `Node`:
a slotted class whose `__match_args__` name its value fields.  Node
derives `==`, `hash`, `repr` and immutability from those fields, as a
frozen dataclass would, and it writes the constructor of every record,
at a fraction of a dataclass's class-building cost at import.

Every term node carries its node count and height (`size`, `height`), set
when it is built, so `term_metrics` reads two fields instead of walking
the tree.  App and Lam also keep a free-variable memo that `free_vars`
fills on first use; it is an idempotent cache, so two threads that fill
it at once only race to write equal values.  These cached fields are
slots outside `__match_args__`, so none of them takes part in `==`,
`hash`, `repr` or pattern matching; each class's `_derived` gives the
formula its constructor sets one with.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from enum import Enum
from typing import Iterator, Union

__all__ = [
    "Node",
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
    "bind_atoms",
    "atoms",
    "nodes",
    "same_tree",
    "term_metrics",
]


class Node:
    """Base of headlab's immutable records.

    A subclass declares `__slots__`, every field it stores (cached ones
    included), and `__match_args__`, its value fields: those alone take
    part in `==`, `hash`, `repr` and pattern matching, as the fields of a
    frozen dataclass do.  Assignment and deletion raise
    FrozenInstanceError, so a constructor writes its fields through the
    slot descriptors (`Cls.field.__set__`).

    `__init_subclass__` writes every subclass's constructor: it takes the
    value fields in order or by keyword.  Each other slot is a cached
    one, and the ordered mapping `_derived` gives the Python expression
    that sets it when the record is built; the expression may read the
    value fields and the cached slots listed before it.  A slot in
    neither raises TypeError when the class is created.  The generic
    `__init__` below is the `super()` target of a record whose fields
    have defaults, which writes its own `__init__`.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...]
    _derived: dict[str, str] = {}

    def __init_subclass__(cls) -> None:
        if "__init__" in vars(cls):
            return
        fields, derived = cls.__match_args__, cls._derived
        if set(cls.__slots__) != {*fields, *derived}:
            raise TypeError(f"{cls.__name__} has a slot outside __match_args__ and _derived")
        # One descriptor write per slot, compiled with exec as
        # collections.namedtuple compiles its __new__: a loop over the
        # setters would cost twice as much per record built.  A cached slot
        # is bound to a local only when a later formula's text names it, so
        # the code is what a hand-written init would be.
        scope = {f"_set_{name}": getattr(cls, name).__set__ for name in cls.__slots__}
        lines = [f"_set_{f}(self, {f})" for f in fields]
        formulas = list(derived.values())
        for i, (name, formula) in enumerate(derived.items()):
            if any(name in later for later in formulas[i + 1 :]):
                lines += f"{name} = {formula}", f"_set_{name}(self, {name})"
            else:
                lines.append(f"_set_{name}(self, {formula})")
        body = "".join(f"\n    {line}" for line in lines)
        exec(f"def __init__(self, {', '.join(fields)}):{body}", scope)
        init = scope["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def __init__(self, *values) -> None:
        fields = self.__match_args__
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} values, not {len(values)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__match_args__
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, f) for f in self.__match_args__]))

    def __repr__(self) -> str:
        shown = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__match_args__])
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Var(Node):
    __slots__ = __match_args__ = ("name",)
    size = height = 1


class App(Node):
    __match_args__ = ("fun", "arg")
    __slots__ = ("fun", "arg", "size", "height", "_fv")
    _derived = {
        "size": "fun.size + arg.size + 1",
        "height": "(fun.height if fun.height > arg.height else arg.height) + 1",
        "_fv": "None",
    }


class Lam(Node):
    __match_args__ = ("binder", "body")
    __slots__ = ("binder", "body", "size", "height", "_fv")
    _derived = {"size": "body.size + 1", "height": "body.height + 1", "_fv": "None"}


class Proj(Node):
    """The argument sitting `depth` frames above the top of the call stack.

    Engine-internal: stands for projecting the head argument out of the
    stuck co-term obtained by dropping `depth` frames from the top level.
    """

    __slots__ = __match_args__ = ("depth",)
    size = height = 1


class Index(Node):
    """Positional reference to an anonymous top-level binder.

    Index(0) names the outermost absorbed binder; under a prefix of n
    anonymous binders the innermost one is Index(n - 1).
    """

    __slots__ = __match_args__ = ("value",)
    size = height = 1


# The writers of the free-variable memos, which free_vars fills after
# construction.
_app_fv, _lam_fv = App._fv.__set__, Lam._fv.__set__


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


def nodes(tree) -> Iterator:
    """Every node of a term or of a machine state, by a loop over an
    explicit stack: App and Lam directly, any other Node through the
    fields its pattern matches (`__match_args__`) that hold nodes."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        cls = type(node)
        if cls is App:
            todo += node.arg, node.fun
        elif cls is Lam:
            todo.append(node.body)
        elif cls is not Var:  # the commonest node, and it holds none
            for name in getattr(cls, "__match_args__", ()):
                child = getattr(node, name)
                if hasattr(type(child), "__match_args__"):
                    todo.append(child)


def same_tree(a, b) -> bool:
    """Structural equality of two terms or machine states, as a loop over
    an explicit stack of pairs: a Node compares the fields its
    pattern matches (`__match_args__`), any other value compares with ==,
    and a shared subtree is equal by `is`.  It never recurses, so it
    compares trees of any depth, which == does not."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        cls = type(a)
        if cls is not type(b):
            return False
        fields = getattr(cls, "__match_args__", None)
        if fields is None:
            if a != b:
                return False
        else:
            todo.extend([(getattr(a, f), getattr(b, f)) for f in fields])
    return True


def all_names(t: Term) -> frozenset[str]:
    """Every variable name occurring in t, free or bound, binder or use."""
    return frozenset(
        node.binder if type(node) is Lam else node.name for node in nodes(t) if type(node) in (Var, Lam)
    )


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


def split_stack(coterm, push: type | tuple[type, ...]) -> tuple[list, object]:
    """Peel the pushed arguments off a machine's co-term, top of stack first.

    `push` is that machine's push frame, a class with `arg` and `rest`, or
    a tuple of such classes.  Returns the arguments and what is left under
    the last push.
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
    """True when t uses only the Var/App/Lam constructors.  A loop over
    `nodes`, so no depth overflows it."""
    return all(type(n) in (Var, App, Lam) for n in nodes(t))


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


def bind_atoms(t: Term, depth: int, kind: type) -> tuple[Term, bool]:
    """Wrap t in `depth` lambdas, the k-th from the outside binding every
    `kind(k)` atom in t: the term that `depth` readback moves of the
    projection machine (kind Proj) or of the index form (Index) build, one
    replace_atom per move, made by one walk.

    Each move names its binder against every name of the term it wraps,
    which is t's names and the binders the deeper moves chose, so depth k
    gets fresh(all_names(t) ∪ {binders of depths > k}, canonical_binder(k)).
    Returns the term and whether it is pure: any other Proj or Index stays.
    At depth 0 nothing is bound and the check is is_pure's loop, which no
    depth overflows.
    """
    if not depth:
        return t, is_pure(t)
    avoid = set(all_names(t))
    names = [""] * depth
    for k in range(depth - 1, -1, -1):
        names[k] = x = fresh(avoid, canonical_binder(k))
        avoid.add(x)
    bound = [Var(x) for x in names]
    field = kind.__match_args__[0]
    pure = True

    def go(t: Term) -> Term:
        nonlocal pure
        cls = type(t)
        if cls is App:
            fun, arg = go(t.fun), go(t.arg)
            return t if fun is t.fun and arg is t.arg else App(fun, arg)
        if cls is Lam:
            body = go(t.body)
            return t if body is t.body else Lam(t.binder, body)
        if cls is kind and getattr(t, field) < depth:
            return bound[getattr(t, field)]
        if cls is not Var:
            pure = False
        return t

    t = go(t)
    for x in reversed(names):
        t = Lam(x, t)
    return t, pure


def atoms(t, kind: type) -> frozenset:
    """Every atom of type `kind` (Proj or Index) in a term or machine state."""
    return frozenset(node for node in nodes(t) if isinstance(node, kind))


def term_metrics(t) -> tuple[int, int]:
    """(size, height) of a term or of any engine's state, read off its
    fields: a state reports those of the term it plugs back to, except
    envmachine.ECommand and control.CCommand, which say what they report."""
    return t.size, t.height
