"""Core term operations against an independent nameless-term oracle."""

import dataclasses
import importlib
import inspect
import pkgutil
import random
import sys

import pytest

import headlab
from headlab import engines, headsimple, projection, syntax, weakhead
from headlab.control import CApp, Case, CCommand, CoVar, CPush, CStuckCo, Mu
from headlab.engines import (
    HEAD_ENGINE_NAMES,
    WH_ENGINE_NAMES,
    CompareReport,
    Engine,
    EngineResult,
    FuelExhausted,
    Normal,
    Stuck,
    Trace,
    TraceEvent,
    evaluate,
)
from headlab.envmachine import Binding, Closure, ECommand, EPush
from headlab.gen import GenConfig
from headlab.headsimple import HStuck, HTopDecomp
from headlab.parse import SourceSpan, parse_term
from headlab.projection import TopTerm
from headlab.syntax import (
    App,
    Index,
    Lam,
    Node,
    NormalFormClass,
    Proj,
    Var,
    all_names,
    alpha_eq,
    canonical_binder,
    classify,
    free_vars,
    fresh,
    subst,
    term_metrics,
)
from headlab.weakhead import PCommand, PPush, PStuck
from helpers import db_free_names, db_subst, gen_top_term, peel, ref_measures, to_db


def T(src):
    return parse_term(src)


class TestFreeVars:
    def test_single_variable(self):
        assert free_vars(Var("x")) == {"x"}

    def test_fully_bound(self):
        assert free_vars(T(r"\x.x")) == set()

    def test_partially_bound(self):
        # Oracle: names that stay "free" after nameless conversion.
        term = T(r"\x.x y")
        assert free_vars(term) == {"y"}
        assert free_vars(term) == db_free_names(to_db(term))

    def test_matches_oracle_on_corpus(self, corpus300):
        rng = random.Random(7)
        for closed in corpus300:
            term, _ = peel(closed, rng)
            assert free_vars(term) == db_free_names(to_db(term))


class TestSubst:
    def test_substitute_at_variable(self):
        assert subst(Var("x"), "x", T(r"\z.z")) == T(r"\z.z")

    def test_other_variable_untouched(self):
        assert subst(Var("y"), "x", T(r"\z.z")) == Var("y")

    def test_capture_forces_rename(self):
        # (\y.x y)[y/x] must not capture: the binder y gets renamed.
        result = subst(T(r"\y.x y"), "x", Var("y"))
        assert isinstance(result, Lam)
        assert result.binder != "y"
        assert result == Lam(result.binder, App(Var("y"), Var(result.binder)))
        # Oracle: perform the substitution on nameless skeletons.
        expected = db_subst(to_db(T(r"\y.x y")), "x", to_db(Var("y")))
        assert to_db(result) == expected

    def test_shadowed_binder_blocks_substitution(self):
        term = T(r"\x.x z")
        assert subst(term, "x", Var("w")) == term

    def test_rename_cascades_past_colliding_inner_binder(self):
        # (\y.\y1.y)[y := something free in y's rename target]: the fresh
        # name chosen for y collides with the inner binder, which must in
        # turn step aside rather than capture.
        term = T(r"\y.\y1.y y2")
        result = subst(term, "y2", T("y y1"))
        expected = db_subst(to_db(term), "y2", to_db(T("y y1")))
        assert to_db(result) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_nameless_oracle(self, corpus300, seed):
        rng = random.Random(seed)
        names = ["x", "y", "z", "w"]
        checked = 0
        for i in range(0, len(corpus300) - 1, 2):
            target, frees = peel(corpus300[i], rng)
            replacement, _ = peel(corpus300[i + 1], rng)
            name = rng.choice(frees) if frees and rng.random() < 0.8 else rng.choice(names)
            got = subst(target, name, replacement)
            want = db_subst(to_db(target), name, to_db(replacement))
            assert to_db(got) == want
            checked += 1
        assert checked >= 100


def _cached_measure_mismatches(t):
    """Nodes of t whose cached size, height or free variables differ from
    the reference walker's."""
    nodes = []
    ref_measures(t, nodes)
    return [
        (node, size, height, free)
        for node, size, height, free in nodes
        if term_metrics(node) != (size, height) or free_vars(node) != free
    ]


class TestCachedMeasures:
    def test_match_reference_on_corpus(self, corpus1000):
        for term in corpus1000:
            assert _cached_measure_mismatches(term) == []

    def test_match_reference_on_engine_substitutions(self, corpus120, monkeypatch):
        # Every subst an engine makes on corpus120, run as given and applied
        # to the free variables y and x, which the corpus binder names
        # capture.  A smaller node guard keeps the diverging runs short.
        seen = {"calls": 0, "renamed": 0, "atoms": 0}
        mismatches = []

        def checked_subst(t, x, s):
            result = subst(t, x, s)
            seen["calls"] += 1
            seen["renamed"] += bool(all_names(result) - all_names(t) - all_names(s))
            nodes = []
            ref_measures(result, nodes)
            seen["atoms"] += any(isinstance(node, (Proj, Index)) for node, *_ in nodes)
            mismatches.extend(_cached_measure_mismatches(result))
            return result

        monkeypatch.setattr(engines, "MAX_STATE_NODES", 2_000)
        for module in (weakhead, headsimple, projection):
            assert module.subst is syntax.subst
            monkeypatch.setattr(module, "subst", checked_subst)
        for term in corpus120:
            for start in (term, App(App(term, Var("y")), Var("x"))):
                for name in WH_ENGINE_NAMES + HEAD_ENGINE_NAMES:
                    evaluate(start, name, 100)
        assert mismatches == []
        assert seen["calls"] > 10_000
        assert seen["renamed"] > 0 and seen["atoms"] > 0

    def test_subst_returns_term_when_name_not_free(self, corpus300):
        rng = random.Random(5)
        for closed in corpus300:
            term, frees = peel(closed, rng)
            for name in ("zz", *all_names(term) - set(frees)):
                assert subst(term, name, Var("q")) is term

    def test_subst_shares_untouched_subtrees(self):
        fun, arg = T(r"\z.z w"), T(r"x (\y.y)")
        result = subst(App(fun, arg), "x", Var("v"))
        assert result == App(fun, T(r"v (\y.y)"))
        assert result.fun is fun
        assert result.arg.arg is arg.arg

    def test_values_unchanged_by_cached_fields(self):
        term = App(Var("x"), Lam("y", App(Proj(0), Index(1))))
        assert repr(term) == (
            "App(fun=Var(name='x'), arg=Lam(binder='y', "
            "body=App(fun=Proj(depth=0), arg=Index(value=1))))"
        )
        assert (Var.__match_args__, App.__match_args__, Lam.__match_args__) == (
            ("name",), ("fun", "arg"), ("binder", "body"),
        )
        assert (Proj.__match_args__, Index.__match_args__) == (("depth",), ("value",))
        fresh_copy = App(Var("x"), Lam("y", App(Proj(0), Index(1))))
        free_vars(term)  # fills the memo on term but not on fresh_copy
        assert term == fresh_copy and hash(term) == hash(fresh_copy)
        assert hash(term) == hash((term.fun, term.arg))
        assert hash(term.arg) == hash(("y", term.arg.body))
        assert hash(Var("x")) == hash(("x",))
        assert term != App(Var("x"), Lam("z", App(Proj(0), Index(1))))


class TestIsPure:
    """is_pure walks an explicit stack, so no depth overflows it."""

    DEPTH = 40_000
    WRAP = {
        "nest": lambda t: Lam("x", t),
        "spine": lambda t: App(t, Var("y")),
        "argument chain": lambda t: App(Var("y"), t),
    }

    @pytest.mark.parametrize("shape", WRAP)
    @pytest.mark.parametrize("bottom, pure", [(Var("x"), True), (Proj(0), False), (Index(0), False)])
    def test_deep_terms(self, shape, bottom, pure):
        t = bottom
        for _ in range(self.DEPTH):
            t = self.WRAP[shape](t)
        assert syntax.is_pure(t) is pure


class TestDeepWalks:
    """all_names and atoms walk an explicit stack, so they return on terms
    far deeper than the recursion limit, which these tests lower and
    restore."""

    DEPTH = 100_000

    @pytest.fixture(autouse=True)
    def low_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        yield
        sys.setrecursionlimit(limit)

    def test_lambda_nest(self):
        t = App(Var("y"), Proj(3))
        for i in range(self.DEPTH):
            t = Lam(f"x{i % 3}", t)
        assert all_names(t) == {"x0", "x1", "x2", "y"}
        assert syntax.atoms(t, Proj) == {Proj(3)}
        assert syntax.atoms(t, Index) == frozenset()

    def test_spine(self):
        t = Var("f")
        for i in range(self.DEPTH):
            t = App(t, Proj(i % 3) if i % 2 else Var(f"y{i % 4}"))
        assert all_names(t) == {"f", "y0", "y2"}
        assert syntax.atoms(t, Proj) == {Proj(0), Proj(1), Proj(2)}
        assert syntax.atoms(t, Index) == frozenset()


class TestAlphaEq:
    def test_bound_rename(self):
        assert alpha_eq(T(r"\x.x"), T(r"\y.y"))

    def test_distinct_free_variables(self):
        assert not alpha_eq(Var("x"), Var("y"))

    def test_two_binders(self):
        assert alpha_eq(T(r"\x.\y.x y"), T(r"\a.\b.a b"))

    def test_not_equal_when_structure_differs(self):
        assert not alpha_eq(T(r"\x.\y.x y"), T(r"\a.\b.b a"))

    def test_equivalence_relation_on_samples(self, corpus300):
        rng = random.Random(11)

        def rename_all(t, env, counter):
            if isinstance(t, Var):
                return Var(env.get(t.name, t.name))
            if isinstance(t, App):
                return App(rename_all(t.fun, env, counter), rename_all(t.arg, env, counter))
            if isinstance(t, Lam):
                counter[0] += 1
                fresh_name = f"r{counter[0]}"
                return Lam(fresh_name, rename_all(t.body, {**env, t.binder: fresh_name}, counter))
            return t

        for term in corpus300[:150]:
            variant = rename_all(term, {}, [0])
            other = corpus300[rng.randrange(len(corpus300))]
            # reflexive, symmetric on a known-equal pair, transitive chain
            assert alpha_eq(term, term)
            assert alpha_eq(term, variant) and alpha_eq(variant, term)
            variant2 = rename_all(variant, {}, [1000])
            assert alpha_eq(term, variant2)
            # symmetry also on arbitrary (usually unequal) pairs
            assert alpha_eq(term, other) == alpha_eq(other, term)


class TestClassify:
    def test_whnf_but_not_hnf(self):
        assert classify(T(r"\x.(\z.z) x")) is NormalFormClass.WHNF

    def test_whnf_and_hnf(self):
        assert classify(T(r"\x.x (\z.z) x")) is NormalFormClass.WHNF_AND_HNF

    def test_top_level_redex(self):
        assert classify(T(r"(\x.x) y")) is NormalFormClass.REDUCIBLE

    def test_neutral(self):
        assert classify(T(r"x ((\x.x) y)")) is NormalFormClass.NEUTRAL

    def test_engine_atoms_are_neutral(self):
        assert classify(Proj(0)) is NormalFormClass.NEUTRAL
        assert classify(App(Index(1), Var("x"))) is NormalFormClass.NEUTRAL


class TestCanonicalBinder:
    @pytest.mark.parametrize("k, name", [(0, "x"), (25, "a"), (26, "x1"), (52, "x2")])
    def test_names_by_depth(self, k, name):
        assert canonical_binder(k) == name


class TestFresh:
    def test_no_conflict(self):
        assert fresh(set(), "x") == "x"

    def test_forced_avoidance(self):
        picked = fresh({"x"}, "x")
        assert picked != "x"

    def test_deterministic_and_avoiding(self):
        avoid = {"x", "x1"}
        first = fresh(avoid, "x")
        second = fresh(avoid, "x")
        assert first == second
        assert first not in avoid


class TestAtoms:
    """replace_atom and atoms: the one replacer and the one collector of the
    engine-internal Proj and Index atoms."""

    # The cases the projection-only replacer was tested on, as (term, atom,
    # expected).
    CASES = (
        (Proj(0), Proj(0), Var("x")),
        (Proj(1), Proj(0), Proj(1)),
        (App(Proj(0), Lam("y", Proj(0))), Proj(0), App(Var("x"), Lam("y", Var("x")))),
    )

    @pytest.mark.parametrize("term, atom, expected", CASES)
    def test_replaces_projections(self, term, atom, expected):
        assert syntax.replace_atom(term, atom, "x") == expected

    @pytest.mark.parametrize("term, atom, expected", CASES)
    def test_replaces_indices_the_same_way(self, term, atom, expected):
        def as_index(t):
            if isinstance(t, Proj):
                return Index(t.depth)
            if isinstance(t, App):
                return App(as_index(t.fun), as_index(t.arg))
            if isinstance(t, Lam):
                return Lam(t.binder, as_index(t.body))
            return t

        assert syntax.replace_atom(as_index(term), as_index(atom), "x") == as_index(expected)

    def test_proj_and_index_of_one_number_are_different_atoms(self):
        assert syntax.replace_atom(Index(0), Proj(0), "x") == Index(0)
        assert syntax.replace_atom(Proj(0), Index(0), "x") == Proj(0)
        mixed = App(Proj(0), Lam("y", App(Index(0), Var("z"))))
        assert syntax.replace_atom(mixed, Proj(0), "x") == App(Var("x"), Lam("y", App(Index(0), Var("z"))))
        assert syntax.replace_atom(mixed, Index(0), "x") == App(Proj(0), Lam("y", App(Var("x"), Var("z"))))

    def test_other_atoms_stay_in_place(self):
        term = Lam("y", App(App(Proj(2), Index(1)), App(Proj(1), Lam("w", Index(2)))))
        got = syntax.replace_atom(term, Proj(1), "x")
        assert got == Lam("y", App(App(Proj(2), Index(1)), App(Var("x"), Lam("w", Index(2)))))
        assert syntax.replace_atom(term, Proj(7), "x") == term
        assert syntax.replace_atom(T(r"\y.y z"), Proj(0), "x") == T(r"\y.y z")

    def test_atoms_finds_every_atom_under_lam_and_app(self):
        term = Lam("y", App(App(Proj(2), Index(1)), App(Proj(1), Lam("w", App(Index(2), Proj(2))))))
        assert syntax.atoms(term, Proj) == {Proj(1), Proj(2)}
        assert syntax.atoms(term, Index) == {Index(1), Index(2)}
        assert syntax.atoms(Index(3), Index) == {Index(3)}
        assert syntax.atoms(Index(3), Proj) == frozenset()
        assert syntax.atoms(T(r"\y.y z"), Proj) == frozenset()

    @pytest.mark.parametrize("term, atom, expected", CASES)
    def test_replaced_atom_is_gone(self, term, atom, expected):
        replaced = syntax.replace_atom(term, atom, "x")
        assert syntax.atoms(replaced, Proj) == syntax.atoms(term, Proj) - {atom}

    def test_match_reference_on_random_index_terms(self):
        def reference(t, out):
            if isinstance(t, Index):
                out.append(t)
            elif isinstance(t, App):
                reference(t.fun, out)
                reference(t.arg, out)
            elif isinstance(t, Lam):
                reference(t.body, out)
            return out

        rng = random.Random(5)
        for _ in range(200):
            top = gen_top_term(rng, rng.randrange(4), rng.randrange(1, 25))
            found = reference(top.body, [])
            assert syntax.atoms(top.body, Index) == frozenset(found)
            for atom in set(found):
                replaced = syntax.replace_atom(top.body, atom, "q")
                assert syntax.atoms(replaced, Index) == frozenset(found) - {atom}
                assert replaced.size == top.body.size


def _headlab_classes():
    """Every class headlab's modules define, in module order."""
    modules = sorted(m.name for m in pkgutil.iter_modules(headlab.__path__) if m.name != "__main__")
    return [
        obj
        for module in map(importlib.import_module, (f"headlab.{name}" for name in modules))
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]


NODE_CLASSES = [c for c in _headlab_classes() if issubclass(c, Node) and c is not Node]

# One set of value fields for every Node subclass, in __match_args__ order.
NODE_SAMPLES = {
    Var: ("x",),
    App: (Var("f"), Lam("y", Var("y"))),
    Lam: ("x", App(Var("x"), Proj(0))),
    Proj: (1,),
    Index: (2,),
    PStuck: (3,),
    PPush: (Var("y"), PStuck(1)),
    PCommand: (Var("x"), PPush(Var("y"), PStuck(0))),
    HTopDecomp: (("x",), (Var("y"),), Var("x")),
    HStuck: (("x", "y"),),
    TopTerm: (1, App(Index(0), Var("z"))),
    Closure: (Var("x"), None),
    Binding: ("x", Closure(Var("y"), None), None),
    EPush: (Closure(Proj(0), None), PStuck(1)),
    ECommand: (Var("x"), Binding("x", Closure(Var("y"), None), None), PStuck(0)),
    CApp: (Var("f"), Proj(0)),
    Mu: ("k", CCommand(Var("x"), CoVar("k"))),
    Case: ("x", "k", CCommand(Var("x"), CoVar("k"))),
    CoVar: ("k",),
    CPush: (Var("x"), CStuckCo(0)),
    CStuckCo: (1,),
    CCommand: (CApp(Var("f"), Var("x")), CoVar("k")),
    SourceSpan: (3, 5),
    GenConfig: (12, 7),
    Normal: (Var("x"), 2, 1),
    FuelExhausted: ("<abandoned>", 5, "work budget"),
    Stuck: ("no transition applies", "x"),
    TraceEvent: (0, "load", "load", "x"),
    Trace: ("krivine", [TraceEvent(0, "load", "load", "x")]),
    EngineResult: ("krivine", "weak-head", Normal(Var("x"), 2, 1)),
    CompareReport: (200, [EngineResult("krivine", "weak-head", Normal(Var("x"), 2, 1))], {"weak-head": True}, False),
}


class TestNode:
    """Every record in headlab is a Node: `==`, `hash` and `repr` read its
    `__match_args__` and nothing else, as a frozen dataclass's read its
    compared fields, and no field can be assigned or deleted."""

    @pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
    def test_contract(self, cls):
        values = NODE_SAMPLES[cls]
        fields = cls.__match_args__
        node, twin = cls(*values), cls(*values)
        assert tuple(getattr(node, f) for f in fields) == values
        # Every constructor takes the value fields in order or by keyword.
        assert tuple(inspect.signature(cls).parameters) == fields
        assert cls(**dict(zip(fields, values))) == node
        assert not hasattr(node, "__dict__")
        # Cached slots lie outside the value fields: writing junk into them
        # leaves ==, hash and repr alone.
        for name in cls.__slots__:
            if name not in fields:
                getattr(cls, name).__set__(node, object())
        assert node == twin and not node != twin
        try:
            expected = hash(values)
        except TypeError:  # a record that holds a list or a dict
            with pytest.raises(TypeError):
                hash(node)
        else:
            assert hash(node) == hash(twin) == expected
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(node) == f"{cls.__name__}({shown})"
        # Each value field takes part in ==.
        for f in fields:
            changed = cls(*values)
            getattr(cls, f).__set__(changed, object())
            assert changed != twin
        # Another class with the same fields is never equal.
        imposter = type("Imposter", (Node,), {"__slots__": fields, "__match_args__": fields})(*values)
        assert node.__eq__(imposter) is NotImplemented and node != imposter
        for name in (*cls.__slots__, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)

    def test_every_node_has_a_sample(self):
        assert set(NODE_CLASSES) == set(NODE_SAMPLES)

    def test_engine_is_the_only_dataclass(self):
        # bench/layers.py and the tests derive Engine rows with
        # dataclasses.replace; every other record is a Node.
        assert [c for c in _headlab_classes() if dataclasses.is_dataclass(c)] == [Engine]

    def test_generic_constructor_counts_values(self):
        with pytest.raises(TypeError):
            Normal(Var("x"), 2)

        class Pair(Node):
            __slots__ = __match_args__ = ("first", "second")

            def __init__(self, first, second=None):
                super().__init__(first)

        with pytest.raises(TypeError, match="takes 2 values, not 1"):
            Pair(1)

    def test_node_writes_the_constructor_of_a_value_only_record(self):
        class Triple(Node):
            __slots__ = __match_args__ = ("a", "b", "c")

        t = Triple(1, c=3, b=2)
        assert (t.a, t.b, t.c) == (1, 2, 3) and t == Triple(1, 2, 3)
        assert Triple.__init__.__qualname__.endswith("Triple.__init__")
        for args, kwargs in (((1, 2), {}), ((1, 2, 3, 4), {}), ((1, 2), {"d": 3}), ((1, 2, 3), {"a": 1})):
            with pytest.raises(TypeError):
                Triple(*args, **kwargs)

    def test_node_writes_the_constructor_of_a_record_with_derived_slots(self):
        class Span(Node):
            __match_args__ = ("start", "stop")
            __slots__ = ("start", "stop", "length", "double", "_memo")
            # `double` reads `length`, the derived slot listed before it.
            _derived = {"length": "stop - start", "double": "length * 2", "_memo": "None"}

        span = Span(3, stop=7)
        assert (span.start, span.stop, span.length, span.double, span._memo) == (3, 7, 4, 8, None)
        assert span == Span(3, 7) and repr(span).endswith("Span(start=3, stop=7)")
        assert tuple(inspect.signature(Span).parameters) == ("start", "stop")
        assert Span.__init__.__code__.co_filename == "<string>"

    def test_a_slot_neither_value_nor_derived_is_refused(self):
        # A generated constructor would leave the slot unset.
        with pytest.raises(TypeError, match="outside __match_args__ and _derived"):

            class Cached(Node):
                __match_args__ = ("value",)
                __slots__ = ("value", "_memo")

        with pytest.raises(TypeError, match="outside __match_args__ and _derived"):

            class Misspelt(Node):
                __match_args__ = ("value",)
                __slots__ = ("value", "_memo")
                _derived = {"_mem": "None"}

        # A record that writes its own constructor declares nothing more.
        class Written(Node):
            __match_args__ = ("value",)
            __slots__ = ("value", "_memo")

            def __init__(self, value):
                Written.value.__set__(self, value)
                Written._memo.__set__(self, None)

        assert Written(1) == Written(1) and Written(1)._memo is None

    def test_only_fuel_exhausted_writes_its_constructor(self):
        # Every other record, cached slots or not, has the constructor Node
        # generates, compiled from source text; FuelExhausted gives its
        # `reason` a default.
        written = [c.__name__ for c in NODE_CLASSES if c.__init__.__code__.co_filename != "<string>"]
        assert written == ["FuelExhausted"]
