"""Context-naming machines: rules, legality, and the embedding of plain
lambda terms."""

import dataclasses
import hashlib
import random
import sys

import pytest

from headlab import control
from headlab.control import (
    CApp,
    CCommand,
    CPush,
    CStuckCo,
    Case,
    CoVar,
    Mu,
    as_projection_command,
    control_halt,
    control_load,
    control_proj_step,
    control_step,
    embed_term,
    free_names,
    is_legal_command,
    legality_status,
    subst_command,
    unembed_term,
)
from headlab.engines import evaluate
from headlab.parse import parse_term
from headlab.syntax import App, Lam, Proj, Var, alpha_eq, fresh
from headlab.weakhead import krivine_load, krivine_step
from conftest import CORPUS_FUEL
from helpers import ref_control_measures


def T(src):
    return parse_term(src)


def case_identity(x="x", a="a"):
    # The embedding of \x.x with co-binder a.
    return Case(x, a, CCommand(Var(x), CoVar(a)))


class TestPlainMachineRules:
    def test_mu_captures_context(self):
        command = CCommand(Mu("a", CCommand(Var("x"), CoVar("a"))),
                           CPush(Var("y"), CStuckCo(0)))
        rule, nxt = control_step(command)
        assert rule == "mu"
        assert nxt == CCommand(Var("x"), CPush(Var("y"), CStuckCo(0)))

    def test_case_consumes_stack_frame(self):
        command = CCommand(case_identity(), CPush(Var("y"), CStuckCo(0)))
        rule, nxt = control_step(command)
        assert rule == "beta"
        assert nxt == CCommand(Var("y"), CStuckCo(0))

    def test_case_on_covariable_is_stuck(self):
        command = CCommand(Case("x", "b", CCommand(Var("x"), CoVar("b"))), CoVar("a"))
        assert control_step(command) is None
        kind, reason = control_halt(command, projective=False)
        assert kind == "stuck" and "co-variable" in reason

    def test_case_on_top_is_stuck_in_plain_machine(self):
        command = CCommand(case_identity(), CStuckCo(0))
        assert control_step(command) is None
        kind, _ = control_halt(command, projective=False)
        assert kind == "stuck"


class TestProjectiveMachineRules:
    def test_case_splits_top(self):
        command = CCommand(case_identity(), CStuckCo(0))
        rule, nxt = control_proj_step(command)
        assert rule == "split"
        assert nxt == CCommand(Proj(0), CStuckCo(1))

    def test_eta_shaped_case_splits_stuck_coterm(self):
        # case[(x . a).<v || x . a>] against a stuck co-term steps to
        # <v || car S . cdr S>.
        v = Var("v")
        body = CCommand(v, CPush(Var("x"), CoVar("a")))
        command = CCommand(Case("x", "a", body), CStuckCo(2))
        rule, nxt = control_proj_step(command)
        assert rule == "split"
        assert nxt == CCommand(v, CPush(Proj(2), CStuckCo(3)))

    def test_eta_shaped_case_consumes_push(self):
        v = Var("v")
        body = CCommand(v, CPush(Var("x"), CoVar("a")))
        pushed = CPush(Var("w"), CStuckCo(0))
        command = CCommand(Case("x", "a", body), pushed)
        rule, nxt = control_proj_step(command)
        assert rule == "beta"
        assert nxt == CCommand(v, pushed)

    def test_call_stack_rule_unchanged(self):
        command = CCommand(case_identity(), CPush(Var("y"), CStuckCo(0)))
        assert control_proj_step(command) == control_step(command)

    def test_projection_heads_halt(self):
        command = CCommand(Proj(0), CStuckCo(1))
        assert control_proj_step(command) is None
        assert control_halt(command, projective=True) == ("normal", "")


class TestSubstitution:
    def test_simultaneous_substitution_does_not_chain(self):
        # Substituting x := (a term mentioning y) and y := (another term)
        # in one pass must not rewrite the first payload's y.
        body = CCommand(CApp(Var("x"), Var("y")), CStuckCo(0))
        result = subst_command(body, {"x": Var("y"), "y": Var("z")}, {})
        assert result == CCommand(CApp(Var("y"), Var("z")), CStuckCo(0))

    def test_covariable_capture_avoided(self):
        # Pushing a co-term with a free co-variable under a Mu binding the
        # same name must rename the Mu binder.
        inner = Mu("a", CCommand(Var("x"), CoVar("b")))
        command = CCommand(inner, CoVar("ignored"))
        substituted = subst_command(command, {}, {"b": CoVar("a")})
        mu = substituted.term
        assert isinstance(mu, Mu)
        assert mu.covar != "a"
        assert mu.body.coterm == CoVar("a")

    def test_term_variable_capture_avoided(self):
        case = Case("x", "a", CCommand(CApp(Var("x"), Var("y")), CoVar("a")))
        command = CCommand(case, CoVar("k"))
        substituted = subst_command(command, {"y": Var("x")}, {})
        out = substituted.term
        assert isinstance(out, Case)
        assert out.binder != "x"
        assert out.body.term == CApp(Var(out.binder), Var("x"))

    def test_rename_cascades_past_colliding_inner_binder(self):
        # Renaming the outer binder y must not let an inner binder that
        # already carries the fresh name capture the renamed occurrences.
        inner = Case("y1", "b", CCommand(Var("y"), CoVar("b")))
        cmd = CCommand(Case("y", "a", CCommand(CApp(Var("w"), inner), CoVar("a"))), CoVar("k"))
        out = subst_command(cmd, {"w": Var("y")}, {}).term
        assert isinstance(out, Case)
        inner_out = out.body.term.arg
        assert inner_out.binder != out.binder
        assert inner_out.body.term == Var(out.binder)


class TestRenamingSpelling:
    """Substitution spells its results byte for byte as it always has,
    renamed binders included: an alpha-equivalent respelling fails these
    tests as a capture does.  In each hand-built case a key of the
    substitution is spelled like the first name fresh would pick, and a
    deeper binder like the rename, so both must be stepped around."""

    @pytest.mark.parametrize(
        "seed, vs, cs, expected",
        [
            (5, "xyz", "abk", "30a63a442de27ecffbf42c3dd7c693eb5d329cdfba475f276d6fd6f3779c1131"),
            (
                7, ("x", "y", "x1", "y1"), ("a", "b", "a1", "a2"),
                "1bb4f382a0b8ca23565790f6e9cd565654af676f4d88129f1a2e568d6e9f6127",
            ),
        ],
        ids=["plain-names", "rename-names"],
    )
    def test_random_substitutions_and_runs_keep_their_spelling(self, seed, vs, cs, expected):
        # The second name pool holds the names the renames pick, so deeper
        # binders and keys collide with them.
        assert _spelling_digest(seed, 3_000, vs, cs) == expected

    def test_mu_cobinder_rename(self):
        # <mu a.<mu a2.<x || a> || b> || k> [b := a, a1 := c]
        inner = Mu("a2", CCommand(Var("x"), CoVar("a")))
        command = CCommand(Mu("a", CCommand(inner, CoVar("b"))), CoVar("k"))
        result = subst_command(command, {}, {"b": CoVar("a"), "a1": CoVar("c")})
        # = <mu a2.<mu a21.<x || a2> || a> || k>
        inner = Mu("a21", CCommand(Var("x"), CoVar("a2")))
        assert result == CCommand(Mu("a2", CCommand(inner, CoVar("a"))), CoVar("k"))

    def test_case_binder_rename(self):
        # <case[(y . j).<w (case[(y2 . i).<y || i>]) || j>] || k> [w := y, y1 := u]
        inner = Case("y2", "i", CCommand(Var("y"), CoVar("i")))
        command = CCommand(Case("y", "j", CCommand(CApp(Var("w"), inner), CoVar("j"))), CoVar("k"))
        result = subst_command(command, {"w": Var("y"), "y1": Var("u")}, {})
        # = <case[(y2 . j).<y (case[(y21 . i).<y2 || i>]) || j>] || k>
        inner = Case("y21", "i", CCommand(Var("y2"), CoVar("i")))
        assert result == CCommand(Case("y2", "j", CCommand(CApp(Var("y"), inner), CoVar("j"))), CoVar("k"))

    def test_case_cobinder_rename(self):
        # <case[(x . a).<mu a2.<z || a> || b>] || k> [b := a, a1 := c]
        body = CCommand(Mu("a2", CCommand(Var("z"), CoVar("a"))), CoVar("b"))
        command = CCommand(Case("x", "a", body), CoVar("k"))
        result = subst_command(command, {}, {"b": CoVar("a"), "a1": CoVar("c")})
        # = <case[(x . a2).<mu a21.<z || a2> || a>] || k>
        body = CCommand(Mu("a21", CCommand(Var("z"), CoVar("a2"))), CoVar("a"))
        assert result == CCommand(Case("x", "a2", body), CoVar("k"))


class TestLegality:
    def test_split_result_is_legal(self):
        assert is_legal_command(CCommand(Proj(0), CStuckCo(1)))

    def test_projection_at_top_depth_is_illegal(self):
        assert not is_legal_command(CCommand(Proj(0), CStuckCo(0)))

    def test_stacked_projections_legal(self):
        command = CCommand(Var("x"), CPush(Proj(1), CStuckCo(2)))
        assert is_legal_command(command)

    def test_covariable_ended_commands_not_applicable(self):
        command = CCommand(Proj(5), CoVar("a"))
        assert legality_status(command) == "not-applicable"
        assert is_legal_command(command)

    def test_preserved_by_projective_steps(self, corpus120):
        checked = 0
        for term in corpus120:
            state = control_load(embed_term(term))
            for _ in range(60):
                assert is_legal_command(state)
                nxt = control_proj_step(state)
                if nxt is None:
                    break
                state = nxt[1]
                checked += 1
        assert checked > 200


class TestDeepLegality:
    """The legality check walks an explicit stack, so it returns on commands
    far deeper than the recursion limit, which these tests lower and
    restore."""

    DEPTH = 100_000

    @pytest.fixture(autouse=True)
    def low_recursion_limit(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1_000)
        yield
        sys.setrecursionlimit(limit)

    def test_capp_spine(self):
        t = Var("f")
        for i in range(self.DEPTH):
            t = CApp(t, Proj(i % 2))
        assert is_legal_command(CCommand(t, CStuckCo(2)))
        assert not is_legal_command(CCommand(t, CStuckCo(1)))

    def test_mu_nest(self):
        def nest(bottom):
            command = CCommand(bottom, CStuckCo(1))
            for _ in range(self.DEPTH):
                command = CCommand(Mu("a", command), CPush(Var("x"), CStuckCo(1)))
            return command

        assert is_legal_command(nest(Proj(0)))
        assert not is_legal_command(nest(Proj(1)))


class TestEmbedding:
    def test_lambda_becomes_case(self):
        embedded = embed_term(T(r"\x.x"))
        assert isinstance(embedded, Case)
        assert embedded.body == CCommand(Var("x"), CoVar(embedded.cobinder))

    def test_round_trip(self, corpus120):
        for term in corpus120:
            assert unembed_term(embed_term(term)) == term

    def test_unembed_rejects_mu(self):
        with pytest.raises(ValueError):
            unembed_term(Mu("a", CCommand(Var("x"), CoVar("a"))))

    def test_plain_machine_bisimulates_krivine(self, corpus120):
        # Step the embedded term and the plain Krivine machine side by
        # side: state-for-state the control run projects onto the Krivine
        # run, pushes match pushes, betas match betas, and Mu never fires.
        for term in corpus120:
            control_state = control_load(embed_term(term))
            krivine_state = krivine_load(term)
            for _ in range(80):
                assert as_projection_command(control_state) == krivine_state
                control_next = control_step(control_state)
                krivine_next = krivine_step(krivine_state)
                if control_next is None or krivine_next is None:
                    # The machines stop in matching situations: the control
                    # machine is stuck on tp exactly when the Krivine
                    # machine terminates on a lambda, and halts on a
                    # variable exactly together.
                    assert (control_next is None) == (krivine_next is None)
                    break
                control_rule, control_state = control_next
                krivine_rule, krivine_state = krivine_next
                assert control_rule != "mu"
                assert {"push": "push", "beta": "beta"}[control_rule] == krivine_rule

    def test_projective_run_matches_head_engines(self, corpus120):
        from headlab.engines import evaluate
        for term in corpus120[:60]:
            control_out, _ = evaluate(term, "control-proj", 200)
            head_out, _ = evaluate(term, "head-proj", 200)
            if type(control_out).__name__ == "Normal" and type(head_out).__name__ == "Normal":
                assert alpha_eq(control_out.result, head_out.result)
            else:
                assert type(control_out).__name__ == type(head_out).__name__


def _starts(corpus120):
    """Every corpus120 term as given and applied to the free variables y
    and x, which the corpus binder names capture."""
    for term in corpus120:
        yield term
        yield App(App(term, Var("y")), Var("x"))


def _run(term, step, fuel=100, max_nodes=2_000):
    """Every state a control machine reaches from term, up to `fuel` betas
    or a state of more than `max_nodes` nodes."""
    state = control_load(embed_term(term))
    yield state
    betas = 0
    while betas < fuel and state.size <= max_nodes:
        nxt = step(state)
        if nxt is None:
            return
        rule, state = nxt
        yield state
        betas += rule == "beta"


def _gen_term(rng, depth, vs="xyz", cs="abk"):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return Var(rng.choice(vs)) if roll < 0.2 else Proj(rng.randrange(3))
    if roll < 0.55:
        return CApp(_gen_term(rng, depth - 1, vs, cs), _gen_term(rng, depth - 1, vs, cs))
    if roll < 0.75:
        return Mu(rng.choice(cs), _gen_command(rng, depth - 1, vs, cs))
    return Case(rng.choice(vs), rng.choice(cs), _gen_command(rng, depth - 1, vs, cs))


def _gen_coterm(rng, depth, vs="xyz", cs="abk"):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return CoVar(rng.choice(cs)) if roll < 0.25 else CStuckCo(rng.randrange(3))
    return CPush(_gen_term(rng, depth - 1, vs, cs), _gen_coterm(rng, depth - 1, vs, cs))


def _gen_command(rng, depth, vs="xyz", cs="abk"):
    return CCommand(_gen_term(rng, depth, vs, cs), _gen_coterm(rng, depth, vs, cs))


def _spelling_digest(seed, count, vs, cs):
    """sha256 over the reprs of `count` random substitutions and of the
    control-proj runs from the random commands, up to 20 steps each."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(count):
        command = _gen_command(rng, rng.randrange(1, 6), vs, cs)
        tmap = {name: _gen_term(rng, 2, vs, cs) for name in rng.sample(vs, rng.randrange(len(vs)))}
        cmap = {name: _gen_coterm(rng, 2, vs, cs) for name in rng.sample(cs, rng.randrange(len(cs)))}
        digest.update(repr(subst_command(command, tmap, cmap)).encode())
        for _ in range(20):
            nxt = control_proj_step(command)
            if nxt is None:
                break
            rule, command = nxt
            digest.update(f"{rule} {command!r}".encode())
    return digest.hexdigest()


def _measure_mismatches(memo):
    """The nodes in a ref_control_measures memo whose cached size or free
    names differ from the reference walk."""
    return [node for node, size, fv, fc in memo.values() if (node.size, free_names(node)) != (size, (fv, fc))]


class TestCachedMeasures:
    """The size and free-name memo the control nodes carry agree with a
    plain recursive walk (the size the growth guard used to walk)."""

    def test_match_reference_on_machine_states(self, corpus120, monkeypatch):
        seen = {"states": 0, "substs": 0}
        memo: dict = {}

        def checked_subst(c, tmap, cmap):
            result = subst_command(c, tmap, cmap)
            seen["substs"] += 1
            ref_control_measures(result, memo)
            return result

        monkeypatch.setattr(control, "subst_command", checked_subst)
        mismatches = []
        for term in _starts(corpus120):
            for step in (control_step, control_proj_step):
                for state in _run(term, step):
                    seen["states"] += 1
                    ref_control_measures(state, memo)
                mismatches += _measure_mismatches(memo)
                memo.clear()
        assert mismatches == []
        assert seen["states"] > 5_000 and seen["substs"] > 2_000

    def test_match_reference_on_random_commands(self):
        # Embedded lambda terms never hold a Mu or a co-variable outside a
        # Case body; these random commands do, and leave names free.
        rng = random.Random(3)
        memo: dict = {}
        mismatches = []
        for _ in range(400):
            command = _gen_command(rng, rng.randrange(1, 6))
            tmap = {name: _gen_term(rng, 2) for name in rng.sample("xyz", rng.randrange(3))}
            cmap = {name: _gen_coterm(rng, 2) for name in rng.sample("abk", rng.randrange(3))}
            ref_control_measures(subst_command(command, tmap, cmap), memo)
            for _ in range(20):
                ref_control_measures(command, memo)
                nxt = control_proj_step(command)
                if nxt is None:
                    break
                command = nxt[1]
            mismatches += _measure_mismatches(memo)
            memo.clear()
        assert mismatches == []

    def test_atoms_have_size_one_and_fixed_names(self):
        assert [cls.size for cls in (Var, Proj, CoVar, CStuckCo)] == [1, 1, 1, 1]
        assert free_names(Var("x")) == (frozenset({"x"}), frozenset())
        assert free_names(Proj(2)) == (frozenset(), frozenset())
        assert free_names(CoVar("k")) == (frozenset(), frozenset({"k"}))
        assert free_names(CStuckCo(0)) == (frozenset(), frozenset())

    def test_subst_command_returns_untouched_subterms(self):
        # The machines substitute closed payloads into closed programs, the
        # case in which untouched subterms are shared.
        fun = Case("y", "j", CCommand(Var("y"), CoVar("j")))
        arg = CApp(Var("x"), Var("z"))
        coterm = CPush(Var("w"), CStuckCo(0))
        command = CCommand(CApp(fun, arg), coterm)
        result = subst_command(command, {"x": Proj(0)}, {"k": CStuckCo(1)})
        assert result == CCommand(CApp(fun, CApp(Proj(0), Var("z"))), coterm)
        assert result.term.fun is fun
        assert result.term.arg.arg is arg.arg
        assert result.coterm is coterm
        assert subst_command(command, {"q": Proj(0)}, {"k": CStuckCo(1)}) is command
        assert subst_command(command, {"y": Proj(0)}, {"j": CStuckCo(1)}) is command

    def test_open_payloads_keep_the_binder_renaming(self):
        # A payload with a free name renames a binder of that name even
        # where no key is free below it, as substitution always has, so no
        # state is spelled differently; only closed payloads share.
        inner = Case("y", "j", CCommand(Var("y"), CoVar("j")))
        command = CCommand(CApp(Var("x"), inner), CStuckCo(0))
        result = subst_command(command, {"x": Var("y")}, {})
        assert result == CCommand(
            CApp(Var("y"), Case("y1", "j", CCommand(Var("y1"), CoVar("j")))), CStuckCo(0),
        )
        assert subst_command(command, {"x": Var("u")}, {}).term.arg == inner
        assert subst_command(command, {"x": Proj(0)}, {}).term.arg is inner

    def test_values_unchanged_by_cached_fields(self):
        def build():
            body = CCommand(Case("y", "j", CCommand(Proj(0), CoVar("j"))), CPush(Var("z"), CStuckCo(1)))
            return CCommand(CApp(Var("x"), Mu("k", body)), CoVar("k"))

        command = build()
        assert repr(command) == (
            "CCommand(term=CApp(fun=Var(name='x'), arg=Mu(covar='k', body=CCommand("
            "term=Case(binder='y', cobinder='j', body=CCommand(term=Proj(depth=0), "
            "coterm=CoVar(name='j'))), coterm=CPush(arg=Var(name='z'), rest=CStuckCo(depth=1))))), "
            "coterm=CoVar(name='k'))"
        )
        assert [cls.__match_args__ for cls in (Var, CApp, Mu, Case, Proj, CoVar, CPush, CStuckCo, CCommand)] == [
            ("name",), ("fun", "arg"), ("covar", "body"), ("binder", "cobinder", "body"), ("depth",),
            ("name",), ("arg", "rest"), ("depth",), ("term", "coterm"),
        ]
        fresh_copy = build()
        free_names(command)  # fills the memos of command but not of fresh_copy
        assert command == fresh_copy and hash(command) == hash(fresh_copy)
        mu = command.term.arg
        assert hash(command) == hash((command.term, command.coterm))
        assert hash(mu) == hash(("k", mu.body))
        assert hash(mu.body.term) == hash(("y", "j", mu.body.term.body))
        assert hash(mu.body.coterm) == hash((Var("z"), CStuckCo(1)))
        assert command != CCommand(CApp(Var("x"), Mu("k2", mu.body)), CoVar("k"))
        for node, name in (
            (command, "term"), (command.term, "fun"), (mu, "covar"), (mu.body.term, "binder"),
            (mu.body.coterm, "rest"), (Var("x"), "name"), (Proj(0), "depth"), (CoVar("k"), "name"),
            (CStuckCo(0), "depth"), (command, "size"), (mu, "_fn"),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)


class TestCaptureRenaming:
    """The corpus is closed, so its runs never rename a binder.  Applied to
    the free variables y and x, which its binder names capture, the control
    machines do rename, and must still agree with the substitution machines
    by the benchmark's control check: control-proj agrees with head-proj,
    and control-krivine is stuck exactly when krivine gives a lambda and
    otherwise gives the same neutral term."""

    @staticmethod
    def _same(a, b):
        if type(a).__name__ == type(b).__name__ == "Normal":
            return alpha_eq(a.result, b.result)
        return type(a) is type(b) and type(a).__name__ != "Normal"

    def test_applied_corpus_agrees_with_substitution_machines(self, corpus120, monkeypatch):
        renames = []

        def counting_fresh(avoid, hint="x"):
            renames.append(hint)
            return fresh(avoid, hint)

        monkeypatch.setattr(control, "fresh", counting_fresh)
        problems = []
        for term in corpus120:
            applied = App(App(term, Var("y")), Var("x"))
            out = {
                name: evaluate(applied, name, CORPUS_FUEL)[0]
                for name in ("krivine", "head-proj", "control-krivine", "control-proj")
            }
            if not self._same(out["head-proj"], out["control-proj"]):
                problems.append(("control-proj", term, out["head-proj"], out["control-proj"]))
            krivine = out["krivine"]
            if type(krivine).__name__ == "Normal" and isinstance(krivine.result, Lam):
                if type(out["control-krivine"]).__name__ != "Stuck":
                    problems.append(("control-krivine on a lambda", term, out["control-krivine"]))
            elif not self._same(krivine, out["control-krivine"]):
                problems.append(("control-krivine", term, krivine, out["control-krivine"]))
        assert problems == []
        assert len(renames) > 100
        assert {"x", "y"} <= set(renames)
