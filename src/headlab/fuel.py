"""The one fuel meter every engine's reduce phase counts on: betas, work,
and the jump over whole periods of a run that repeats or grows by a fixed
template."""

from __future__ import annotations

from .syntax import same_tree

__all__ = ["OutOfFuel", "FuelMeter", "repeat"]

# A learner's template walk may visit this many nodes per beta, summed over
# the run: a run that never jumps pays at most that for the search.
WALK_PER_BETA = 2

# The mark after a jump: less than a period is left, so the loop's watch
# has nothing more to find.
_DONE = (None, 0, 0, 0, "done")


class OutOfFuel(Exception):
    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind  # "beta" or "work"


def repeat(state, k: int):
    """The template of a state that recurs unchanged: k periods on it is
    the same state."""
    return state


class FuelMeter:
    """Counts beta contractions against a budget, and the work charged
    with them (nodes touched) against a cap that stops runaway growth.
    `watch` lets a loop skip whole periods of a run that repeats, or that
    grows by a template a learner finds, counting their betas and work."""

    # What a learner's walks have visited in this run, and the allowance
    # the next walk waits for: twice what the last one visited, so a run
    # whose states keep nearly matching does not walk them at every beta.
    walked = 0
    wait = 0

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

    def watch(self, t, mark: tuple | None, learn=None) -> tuple:
        """Brent's cycle detection for one run of a step or evaluator loop,
        widened to runs that grow by a fixed template.  Called after each
        contraction with the state `t` the loop goes on with and the mark
        this returned last time (None at the first); returns the state to
        go on with and the new mark.

        The mark (state, betas, work, power, plan) moves to `t` once the
        betas since it reach `power`, which then doubles.  Until then each
        `t` is held against the marked state, and a period is found when
        `t` is the marked state with a template T applied:

        - An exact repeat is T the identity (`repeat`).  Without `learn`
          the meter looks for one only, by the O(1) size and height and
          then `same_tree`.  From `t` on the run, nested calls included,
          depends on `t` alone, so every period takes the betas and work
          of the one just seen, and the meter jumps at once.
        - `learn(mark, t, nodes)`, consulted only when both states focus
          the same term object, walks at most `nodes` nodes and returns
          (T or None, nodes visited).  The walks share WALK_PER_BETA nodes
          per beta of the run, and each waits until twice what the last
          one visited is free, so a run that never jumps pays a bounded
          share for them.  A T other than `repeat` must first hold for two
          more periods, each ending `same_tree`-equal to T applied to the
          state before it.  The learning period's work is not used, since
          its start need not be an image of T.  The two checked periods
          give the second's work w and the growth D = w - the first's, and
          the j-th period after them takes w + j*D work.

        A jump counts the most whole periods whose betas and work fit under
        both limits and returns the state T^k(t) they reach, built once.
        Both counts only grow, so the run stops where stepping on would,
        and less than a period is left: the mark's watch ends there.
        """
        if mark is None:
            return t, (t, self.betas, self.work, 1, None)
        m, betas, work, power, plan = mark
        if plan is not None:
            return self._verify(t, mark)
        if learn is None:
            if t.size == m.size and t.height == m.height and same_tree(t, m):
                return self._jump(t, repeat, self.betas - betas, self.work - work, 0)
        elif t.term is m.term:
            # The two states focus the same term, a likely period: walk them.
            nodes = WALK_PER_BETA * self.betas - self.walked
            if nodes > self.wait:
                stack, visited = learn(m, t, nodes)
                self.walked += visited
                self.wait = 2 * visited
                if stack is repeat:
                    if same_tree(t, m):
                        return self._jump(t, repeat, self.betas - betas, self.work - work, 0)
                elif stack is not None:
                    return t, (t, self.betas, self.work, power, (stack, self.betas - betas, None))
        if self.betas - betas >= power:
            return t, (t, self.betas, self.work, 2 * power, None)
        return t, mark

    def _verify(self, t, mark: tuple) -> tuple:
        """One step of checking a learned template: at the end of each
        period `t` must equal the template applied to the period's start."""
        if mark is _DONE:
            return t, mark
        prev, betas, work, power, (stack, period, first) = mark
        if self.betas - betas < period:
            return t, mark
        if not same_tree(t, stack(prev, 1)):
            return t, (t, self.betas, self.work, power, None)
        spent = self.work - work
        if first is None:
            return t, (t, self.betas, self.work, power, (stack, period, spent))
        if spent < first:
            return t, (t, self.betas, self.work, power, None)
        return self._jump(t, stack, period, spent, spent - first)

    def _jump(self, t, stack, period: int, spent: int, growth: int) -> tuple:
        """Count the most whole periods that fit under both limits, the j-th
        taking `period` betas and spent + j*growth work, and stack them on
        `t`: a binary search, since both sums grow with the count."""
        room = self.work_limit - self.work
        lo, hi = 0, (self.limit - self.betas) // period
        while lo < hi:
            k = (lo + hi + 1) // 2
            if k * spent + growth * k * (k + 1) // 2 <= room:
                lo = k
            else:
                hi = k - 1
        self.betas += lo * period
        self.work += lo * spent + growth * lo * (lo + 1) // 2
        return stack(t, lo), _DONE
