"""Command-line interface.

Exit codes: 0 normal result or agreement, 1 usage or parse error,
2 fuel exhausted, 3 stuck, 4 cross-engine disagreement.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .engines import (
    ENGINES,
    HEAD_ENGINE_NAMES,
    WH_ENGINE_NAMES,
    CompareReport,
    FuelExhausted,
    InvalidFuelError,
    Normal,
    Stuck,
    UnknownEngineError,
    compare,
    engine_names,
    evaluate,
    get_engine,
)
from .gen import GenConfig, gen_terms
from .parse import ParseError, parse_term
from .pretty import print_term
from .syntax import Term, classify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FUEL = 2
EXIT_STUCK = 3
EXIT_DISAGREE = 4


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_term(path: str) -> Term:
    return parse_term(_read_source(path))


def _outcome_summary(outcome) -> str:
    match outcome:
        case Normal(result, steps, betas):
            return f"normal {print_term(result)} (steps={steps}, betas={betas})"
        case FuelExhausted(_, betas, reason):
            return f"fuel exhausted after {betas} betas ({reason})"
        case Stuck(reason, _):
            return f"stuck: {reason}"
    return str(outcome)


def _cmd_eval(args) -> int:
    term = _load_term(args.file)
    outcome, trace = evaluate(term, args.engine, args.fuel, trace=args.trace)
    if args.format == "json":
        # Imported here: every other command and format would pay for it
        # at start-up.
        import json

        if trace is not None:
            for event in trace.events:
                print(json.dumps({
                    "step": event.step,
                    "rule": event.rule,
                    "state": event.state,
                    "phase": event.phase,
                }))
        payload = {"engine": args.engine, "outcome": type(outcome).__name__}
        match outcome:
            case Normal(result, steps, betas):
                payload.update(result=print_term(result), steps=steps, betas=betas)
            case FuelExhausted(last_state, betas, reason):
                payload.update(last_state=last_state, betas=betas, reason=reason)
            case Stuck(reason, last_state):
                payload.update(reason=reason, last_state=last_state)
        print(json.dumps(payload))
    else:
        if trace is not None:
            for event in trace.events:
                print(f"{event.phase} {event.rule} {event.state}")
        if isinstance(outcome, Normal):
            print(print_term(outcome.result))
        else:
            print(_outcome_summary(outcome), file=sys.stderr)
    match outcome:
        case Normal():
            return EXIT_OK
        case FuelExhausted():
            return EXIT_FUEL
        case _:
            return EXIT_STUCK


def _select_engines(selector: str) -> list[str]:
    if selector == "all":
        return list(engine_names())
    if selector == "all-head":
        return list(HEAD_ENGINE_NAMES)
    if selector == "all-wh":
        return list(WH_ENGINE_NAMES)
    names = [n.strip() for n in selector.split(",") if n.strip()]
    for i, name in enumerate(names):
        get_engine(name)
        if name in names[:i]:
            raise UnknownEngineError(f"engine {name!r} is listed twice")
    if len(names) < 2:
        raise UnknownEngineError("compare needs at least two engines")
    return names


def _cmd_compare(args) -> int:
    term = _load_term(args.file)
    names = _select_engines(args.engines)
    report: CompareReport = compare(term, names, args.fuel)
    for result in report.results:
        print(f"{result.engine:<16} {_outcome_summary(result.outcome)}")
    for strategy, agree in report.group_agreement.items():
        print(f"{strategy} group: {'agree' if agree else 'DISAGREE'}")
    if report.cross_strategy_difference:
        print("note: weak-head and head results differ (expected for non-head-normal weak-head forms)")
    if not report.all_agree:
        return EXIT_DISAGREE
    outcomes = [r.outcome for r in report.results]
    if outcomes and all(isinstance(o, FuelExhausted) for o in outcomes):
        return EXIT_FUEL
    return EXIT_OK


def _cmd_classify(args) -> int:
    term = _load_term(args.file)
    print(classify(term).value)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.size < 1:
        print(f"error: --size must be at least 1, not {args.size}", file=sys.stderr)
        return EXIT_USAGE
    if args.count < 0:
        print(f"error: --count must not be negative, not {args.count}", file=sys.stderr)
        return EXIT_USAGE
    cfg = GenConfig(max_size=args.size, seed=args.seed)
    for term in gen_terms(cfg, args.count):
        print(print_term(term))
    return EXIT_OK


def _cmd_engines(args) -> int:
    for name, engine in ENGINES.items():
        print(f"{name:<16} {engine.strategy:<10} {engine.description}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="headlab",
        description="Evaluate lambda terms with interchangeable weak-head and head reduction engines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a term with one engine")
    p_eval.add_argument("--engine", required=True)
    p_eval.add_argument("--fuel", type=int, default=None)
    p_eval.add_argument("--trace", action="store_true")
    p_eval.add_argument("--format", choices=("text", "json"), default="text")
    p_eval.add_argument("file", help="path to a .lam file, or - for stdin")
    p_eval.set_defaults(fn=_cmd_eval)

    p_cmp = sub.add_parser("compare", help="run several engines and check agreement")
    p_cmp.add_argument("--engines", default="all")
    p_cmp.add_argument("--fuel", type=int, default=None)
    p_cmp.add_argument("file")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_cls = sub.add_parser("classify", help="print the normal-form class of a term")
    p_cls.add_argument("file")
    p_cls.set_defaults(fn=_cmd_classify)

    p_gen = sub.add_parser("gen", help="emit random closed terms, one per line")
    p_gen.add_argument("--size", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.set_defaults(fn=_cmd_gen)

    p_eng = sub.add_parser("engines", help="list registered engines")
    p_eng.set_defaults(fn=_cmd_engines)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 30_000))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnknownEngineError, InvalidFuelError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: term too deeply nested to process", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
