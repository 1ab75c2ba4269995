"""Acceptance suite.

One test per criterion, each printing a PASS line when it holds.  Run
with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the corpus-wide engine outcomes are computed once per session and
shared between criteria.
"""

import random

from headlab.cli import main
from headlab.control import control_load, control_proj_step, embed_term, is_legal_command
from headlab.engines import (
    HEAD_ENGINE_NAMES,
    WH_ENGINE_NAMES,
    FuelExhausted,
    Normal,
    Stuck,
    engine_names,
    evaluate,
)
from headlab.fuel import FuelMeter, OutOfFuel
from headlab.headsimple import bigstep_h, bigstep_sestoft
from headlab.parse import parse_term
from headlab.projection import (
    is_legal_proj,
    proj_step,
    translate_hash,
    translate_star,
)
from headlab.syntax import Lam, NormalFormClass, alpha_eq, classify
from headlab.weakhead import krivine_load
from conftest import CORPUS_FUEL, CORPUS_SEED
from helpers import db_subst, gen_top_term, outcome_key, peel, to_db

OMEGA = r"(\y.y y)(\y.y y)"


def T(src):
    return parse_term(src)


def test_criterion_1_projection_machine_golden_trace(tmp_path, capsys):
    src = tmp_path / "t.lam"
    src.write_text(r"\x.(\y.y) x")
    code = main(["eval", "--engine", "head-proj", "--trace", str(src)])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        r"load load <\x.(\y.y) x || tp>",
        r"reduce project <(\y.y) car(tp) || cdr(tp)>",
        r"reduce push <\y.y || car(tp) . cdr(tp)>",
        r"reduce beta <car(tp) || cdr(tp)>",
        r"readback lambda <\x.x || tp>",
        r"readback done \x.x",
        r"\x.x",
    ]
    assert alpha_eq(parse_term(lines[-1]), T(r"\x.x"))
    print("ACCEPTANCE 1 PASS: projection machine reproduces the worked trace exactly")


def test_criterion_2_index_form_golden_trace(tmp_path, capsys):
    src = tmp_path / "t.lam"
    src.write_text(r"\x.(\y.y) x")
    for engine, expected in (
        ("head-os-derived", [r"reduce absorb \.(\y.y) #0", r"reduce beta \.#0"]),
        ("head-debruijn", [r"reduce absorb \^1.(\y.y) #0", r"reduce beta \^1.#0"]),
    ):
        code = main(["eval", "--engine", engine, "--trace", str(src)])
        out, _ = capsys.readouterr()
        assert code == 0
        lines = out.strip().splitlines()
        assert [l for l in lines if l.startswith("reduce")] == expected
        assert lines[-1] == r"\x.x"
    print("ACCEPTANCE 2 PASS: index-form semantics passes through the worked states")


def test_criterion_3_coalesced_golden_trace(tmp_path, capsys):
    src = tmp_path / "t.lam"
    src.write_text(r"\x.(\y.y) x")
    code = main(["eval", "--engine", "head-coalesced", "--trace", str(src)])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert r"reduce project <(\y.y) (pick 0 tp) || drop 1 tp>" in lines
    assert lines[3] == r"reduce beta <pick 0 tp || drop 1 tp>"
    assert lines[4].startswith("readback")
    assert lines[-1] == r"\x.x"
    print("ACCEPTANCE 3 PASS: coalesced machine trace matches the worked offsets")


def test_criterion_4_trilemma():
    omega = T(OMEGA)
    guarded = T(rf"\x.({OMEGA}) x")
    for engine in WH_ENGINE_NAMES:
        outcome, _ = evaluate(guarded, engine, 1000)
        assert isinstance(outcome, Normal) and outcome.betas == 0, engine
    for engine in HEAD_ENGINE_NAMES + ("control-proj",):
        outcome, _ = evaluate(guarded, engine, 1000)
        assert isinstance(outcome, FuelExhausted), engine
    # control-krivine stops at the guarding lambda, as a weak-head machine
    # does, and is stuck there on the empty top-level context.
    outcome, _ = evaluate(guarded, "control-krivine", 1000)
    assert isinstance(outcome, Stuck)
    for engine in engine_names():
        outcome, _ = evaluate(omega, engine, 1000)
        assert isinstance(outcome, FuelExhausted), engine
    print("ACCEPTANCE 4 PASS: weak-head stops at the guarding lambda, head engines never finish")


def _assert_group_agrees(corpus, outcomes_by_engine, names):
    disagreements = 0
    for i in range(len(corpus)):
        outcomes = [outcomes_by_engine[name][i] for name in names]
        if all(isinstance(o, Normal) for o in outcomes):
            first = outcomes[0]
            if not all(o.betas == first.betas and alpha_eq(first.result, o.result) for o in outcomes[1:]):
                disagreements += 1
        elif not all(isinstance(o, FuelExhausted) for o in outcomes):
            disagreements += 1
    assert disagreements == 0


def test_criterion_5_weak_head_engines_agree(corpus1000, wh_outcomes):
    assert len(corpus1000) == 1000
    _assert_group_agrees(corpus1000, wh_outcomes, WH_ENGINE_NAMES)
    print("ACCEPTANCE 5 PASS: all weak-head engines agree on 1000 terms at fuel 10^4")


def test_criterion_6_head_engines_agree(corpus1000, head_outcomes):
    assert set(HEAD_ENGINE_NAMES) == {
        "head-os", "head-abs", "head-proj", "head-os-derived", "head-coalesced",
        "head-debruijn", "head-bigstep", "sestoft", "env-head",
    }
    _assert_group_agrees(corpus1000, head_outcomes, HEAD_ENGINE_NAMES)
    mismatched_logs = 0
    for term in corpus1000:
        log_a, log_b = [], []
        try:
            bigstep_h(term, FuelMeter(CORPUS_FUEL, 500_000), log_a)
        except OutOfFuel:
            pass
        try:
            bigstep_sestoft(term, FuelMeter(CORPUS_FUEL, 500_000), log_b)
        except OutOfFuel:
            pass
        shared = min(len(log_a), len(log_b))
        if log_a[:shared] != log_b[:shared] or (
            len(log_a) != len(log_b) and shared < CORPUS_FUEL
        ):
            mismatched_logs += 1
    assert mismatched_logs == 0
    print("ACCEPTANCE 6 PASS: all nine head engines agree and both big-step "
          "evaluators contract identical redex sequences")


def test_criterion_7_translation_round_trips(corpus1000):
    for term in corpus1000:
        assert translate_star(translate_hash(term)) == term
    rng = random.Random(CORPUS_SEED)
    from headlab.projection import derived_step
    for _ in range(200):
        top = gen_top_term(rng, rng.randrange(4), 8)
        expected = translate_hash(translate_star(top))
        walked = top
        while isinstance(walked.body, Lam):
            rule, walked = derived_step(walked)
            assert rule == "absorb"
        assert walked == expected
    print("ACCEPTANCE 7 PASS: hash-then-star is the identity on 1000 terms; "
          "200 top terms reach their star-then-hash by absorptions")


def test_criterion_8_coalesced_lockstep(head_outcomes, golden_traces):
    # Coalescing is a rendering: head-coalesced and head-debruijn run the
    # rules of head-proj and head-os-derived, so each pair must reach the
    # same outcome on every corpus term and apply the same rules, in the
    # same order, on every traced term.
    for coalesced, chain in (("head-coalesced", "head-proj"), ("head-debruijn", "head-os-derived")):
        assert list(map(outcome_key, head_outcomes[coalesced])) == list(map(outcome_key, head_outcomes[chain]))
        for mine, theirs in zip(golden_traces[coalesced], golden_traces[chain], strict=True):
            assert [(e.phase, e.rule) for e in mine.events] == [(e.phase, e.rule) for e in theirs.events]
    print("ACCEPTANCE 8 PASS: coalesced and chain-style machines run in lockstep "
          "on 1000 outcomes and 40 traces")


def test_criterion_9_normal_form_soundness(corpus1000, wh_outcomes, head_outcomes):
    head_ok = {NormalFormClass.NEUTRAL, NormalFormClass.WHNF_AND_HNF}
    wh_ok = head_ok | {NormalFormClass.WHNF}
    violations = 0
    for name in HEAD_ENGINE_NAMES:
        for outcome in head_outcomes[name]:
            if isinstance(outcome, Normal) and classify(outcome.result) not in head_ok:
                violations += 1
    for name in WH_ENGINE_NAMES:
        for outcome in wh_outcomes[name]:
            if isinstance(outcome, Normal) and classify(outcome.result) not in wh_ok:
                violations += 1
    assert violations == 0
    print("ACCEPTANCE 9 PASS: every normal result lies in its strategy's normal-form grammar")


def test_criterion_10_legality_preservation(corpus1000):
    rng = random.Random(CORPUS_SEED + 1)
    proj_states = []
    control_states = []
    for term in corpus1000:
        if len(proj_states) >= 500 and len(control_states) >= 500:
            break
        state = krivine_load(term)
        for _ in range(rng.randrange(1, 30)):
            nxt = proj_step(state)
            if nxt is None:
                break
            state = nxt[1]
        proj_states.append(state)
        c_state = control_load(embed_term(term))
        for _ in range(rng.randrange(1, 30)):
            nxt = control_proj_step(c_state)
            if nxt is None:
                break
            c_state = nxt[1]
        control_states.append(c_state)

    violations = 0
    for state in proj_states[:500]:
        if not is_legal_proj(state):
            violations += 1
            continue
        nxt = proj_step(state)
        if nxt is not None and not is_legal_proj(nxt[1]):
            violations += 1
    for state in control_states[:500]:
        if not is_legal_command(state):
            violations += 1
            continue
        nxt = control_proj_step(state)
        if nxt is not None and not is_legal_command(nxt[1]):
            violations += 1
    assert violations == 0
    print("ACCEPTANCE 10 PASS: stepping 500 reachable states of each projection "
          "machine preserves legality")


def test_criterion_11_core_syntax_suite(corpus1000):
    rng = random.Random(CORPUS_SEED + 2)
    # Substitution against the nameless oracle, 2000 triples.
    names = ["x", "y", "z", "w"]
    from headlab.syntax import subst
    checked = 0
    while checked < 2000:
        target, frees = peel(corpus1000[rng.randrange(len(corpus1000))], rng)
        replacement, _ = peel(corpus1000[rng.randrange(len(corpus1000))], rng)
        name = rng.choice(frees) if frees and rng.random() < 0.8 else rng.choice(names)
        assert to_db(subst(target, name, replacement)) == db_subst(
            to_db(target), name, to_db(replacement)
        )
        checked += 1

    # Alpha-equivalence is an equivalence relation on sampled triples.
    def rename_all(t, env, counter):
        from headlab.syntax import App, Var
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        if isinstance(t, App):
            return App(rename_all(t.fun, env, counter), rename_all(t.arg, env, counter))
        if isinstance(t, Lam):
            counter[0] += 1
            fresh_name = f"q{counter[0]}"
            return Lam(fresh_name, rename_all(t.body, {**env, t.binder: fresh_name}, counter))
        return t

    for i in range(400):
        a = corpus1000[rng.randrange(len(corpus1000))]
        b = rename_all(a, {}, [i * 100])
        c = rename_all(b, {}, [i * 100 + 50])
        assert alpha_eq(a, a)
        assert alpha_eq(a, b) and alpha_eq(b, a)
        assert alpha_eq(a, b) and alpha_eq(b, c) and alpha_eq(a, c)

    # Parse/print round trip, 2000 terms (the corpus and peeled variants).
    from headlab.pretty import print_term
    round_tripped = 0
    for term in corpus1000:
        assert parse_term(print_term(term)) == term
        opened, _ = peel(term, rng)
        assert parse_term(print_term(opened)) == opened
        round_tripped += 2
    assert round_tripped == 2000
    print("ACCEPTANCE 11 PASS: substitution oracle, alpha-equivalence laws, "
          "and 2000 parse/print round trips all hold")
