"""Seeded generator of closed affine lambda terms.

In an affine term every binder is used at most once, so each beta
contraction shrinks the term and every reduction reaches a normal form in
fewer betas than the term has nodes.  The benchmark uses such terms to
exercise the per-run path of the engines without any growth guard firing.

The generator takes the `headlab` package as an argument, so it builds
terms of whichever copy of the package the caller imported.
"""

from __future__ import annotations

import random

MIN_SIZE = 20
MAX_SIZE = 60


def _gen(rng: random.Random, hl, depth: int, avail: list[str], budget: int):
    # `avail` holds the binders in scope that no leaf has used yet; a leaf
    # removes its binder from it, which is what keeps the term affine.
    if avail and (budget <= 1 or rng.random() < 0.45):
        return hl.Var(avail.pop(rng.randrange(len(avail))))
    if budget >= 4 and rng.random() < 0.7:
        left = rng.randint(1, budget - 2)
        fun = _gen(rng, hl, depth, avail, left)
        return hl.App(fun, _gen(rng, hl, depth, avail, budget - 1 - left))
    binder = f"v{depth}"
    avail.append(binder)
    body = _gen(rng, hl, depth + 1, avail, budget - 1)
    if binder in avail:
        avail.remove(binder)
    return hl.Lam(binder, body)


def gen_affine(rng: random.Random, hl):
    """One closed affine term with between MIN_SIZE and MAX_SIZE nodes.

    Binders are named by nesting depth, so no binder shadows another.  A
    draw whose size falls outside the range is discarded and drawn again,
    from the same stream, so the result depends only on the rng state.
    """
    while True:
        avail: list[str] = []
        term = _gen(rng, hl, 0, avail, rng.randint(MIN_SIZE, MAX_SIZE))
        if MIN_SIZE <= hl.syntax.term_metrics(term)[0] <= MAX_SIZE:
            return term

