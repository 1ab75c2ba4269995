"""Deterministic random closed-term generation for the test harness."""

from __future__ import annotations

import random
from typing import Iterator

from .syntax import App, Lam, Node, Term, Var, canonical_binder

__all__ = ["GenConfig", "gen_term", "gen_terms"]


class GenConfig(Node):
    __slots__ = __match_args__ = ("max_size", "seed")
    max_size: int
    seed: int


def gen_term(cfg: GenConfig) -> Term:
    return next(gen_terms(cfg, 1))


def gen_terms(cfg: GenConfig, count: int) -> Iterator[Term]:
    """Yield `count` closed terms from one seeded stream.

    Binders are named by nesting depth, uniquely within a term, so a
    variable occurrence picks uniformly among its enclosing binders and
    the whole term is closed by construction.
    """
    rng = random.Random(cfg.seed)
    ceiling = max(cfg.max_size, 2)
    floor = min(8, ceiling)
    for _ in range(count):
        # Vary the target size across the stream; a corpus pinned at the
        # ceiling is both slower and less diverse than a mixed one.
        term, _ = _gen(rng, (), rng.randint(floor, ceiling))
        yield term


def _gen(rng: random.Random, scope: tuple[str, ...], budget: int) -> tuple[Term, int]:
    k = len(scope)
    if budget <= 1:
        # Scope is never empty here: top-level calls get budget >= 2 and
        # splits below keep empty-scope children at >= 2.
        return Var(scope[rng.randrange(k)]), 1
    w_var = 3 * k
    w_lam = 2
    w_app = 5 if budget >= (5 if k == 0 else 3) else 0
    pick = rng.randrange(w_var + w_lam + w_app)
    if pick < w_var:
        return Var(scope[rng.randrange(k)]), 1
    if pick < w_var + w_lam:
        name = canonical_binder(k)
        body, used = _gen(rng, scope + (name,), budget - 1)
        return Lam(name, body), used + 1
    floor = 2 if k == 0 else 1
    left_budget = rng.randint(floor, budget - 1 - floor)
    fun, used_fun = _gen(rng, scope, left_budget)
    arg, used_arg = _gen(rng, scope, budget - 1 - used_fun)
    return App(fun, arg), used_fun + used_arg + 1
