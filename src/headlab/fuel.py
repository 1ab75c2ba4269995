"""The one fuel meter every engine's reduce phase counts on: betas, work,
and the cycle jump of a run whose state repeats."""

from __future__ import annotations

from .syntax import same_tree

__all__ = ["OutOfFuel", "FuelMeter"]


class OutOfFuel(Exception):
    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind  # "beta" or "work"


class FuelMeter:
    """Counts beta contractions against a budget, and the work charged
    with them (nodes touched) against a cap that stops runaway growth."""

    def __init__(self, betas: int, work: int):
        self.limit = betas
        self.betas = 0
        self.work_limit = work
        self.work = 0

    def contract(self, nodes: int) -> None:
        """Count one contraction and the work it brings: the beta budget is
        checked first, so a contraction that passes both reports "beta"."""
        self.betas += 1
        if self.betas > self.limit:
            raise OutOfFuel("beta")
        self.work += nodes
        if self.work > self.work_limit:
            raise OutOfFuel("work")

    def watch(self, t, mark: tuple | None) -> tuple:
        """Brent's cycle detection for one run of a step or evaluator loop:
        called after each contraction with the state `t` the loop goes on
        with and what this returned last time (None at the first).

        The mark (state, betas, work, power) moves to `t` once the betas
        since it reach `power`, which then doubles.  When `t` equals the
        marked state the loop is periodic, since from `t` on its run,
        nested calls included, depends on `t` alone; so the meter counts as
        many whole periods of betas and work as fit under both limits.
        Both counts only grow, so the run stops where stepping on would.
        """
        if mark is None:
            return t, self.betas, self.work, 1
        m, betas, work, power = mark
        if t.size == m.size and t.height == m.height and same_tree(t, m):
            period, d_work = self.betas - betas, self.work - work
            k = min((self.limit - self.betas) // period, (self.work_limit - self.work) // d_work)
            self.betas += k * period
            self.work += k * d_work
            # Less than a period is left, so a later repeat adds nothing.
            return t, self.betas, self.work, power
        if self.betas - betas >= power:
            return t, self.betas, self.work, 2 * power
        return mark
