"""Correctness checks the benchmark applies to every op's outputs."""

from __future__ import annotations


def _same(a, b, hl) -> bool:
    """Two outcomes agree: both normal with alpha-equal results, or both
    out of fuel, or both stuck."""
    if isinstance(a, hl.Normal) and isinstance(b, hl.Normal):
        # syntax's own binding: the traced run wraps the copy in `headlab`.
        return hl.syntax.alpha_eq(a.result, b.result)
    return type(a) is type(b) and not isinstance(a, hl.Normal)


def check_control(wh, head, control_krivine, control_proj, hl) -> list[str]:
    """Check the two control machines against the weak-head and head
    results, which `compare` does not do.

    control-proj must agree with the head group.  control-krivine must be
    Stuck exactly when the weak-head result is a lambda, and otherwise
    return the same neutral term.
    """
    problems = []
    if not _same(head, control_proj, hl):
        problems.append(f"control-proj {type(control_proj).__name__} disagrees with head {type(head).__name__}")
    if isinstance(wh, hl.Normal) and isinstance(wh.result, hl.Lam):
        if not isinstance(control_krivine, hl.Stuck):
            problems.append(f"control-krivine {type(control_krivine).__name__} on a weak-head lambda, expected Stuck")
    elif not _same(wh, control_krivine, hl):
        problems.append(f"control-krivine {type(control_krivine).__name__} disagrees with weak-head {type(wh).__name__}")
    return problems


def check_report(report, hl) -> list[str]:
    """Every reason the cross-check of one term failed; empty if it passed.

    The report must hold all engines, each strategy group must agree, and
    the control machines must pass `check_control`.
    """
    problems = [f"{strategy} group disagrees" for strategy, ok in report.group_agreement.items() if not ok]
    outcomes = {r.engine: r.outcome for r in report.results}
    missing = set(hl.engine_names()) - set(outcomes)
    if missing:
        return problems + [f"no outcome from {', '.join(sorted(missing))}"]
    problems += check_control(
        outcomes[hl.engines.WH_ENGINE_NAMES[0]],
        outcomes[hl.engines.HEAD_ENGINE_NAMES[0]],
        outcomes["control-krivine"],
        outcomes["control-proj"],
        hl,
    )
    return problems
