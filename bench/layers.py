"""Per-layer timing for the traced benchmark run.

`Layers.install` wraps, from outside the package, the functions that one
headlab module calls in another: it rebinds the imported names in each
importing module (and `envmachine.as_forced_command`, which only
`engines` calls, in its own module) and swaps the entries of
`engines.ENGINES` for copies whose load, step, metrics, readback and
bigstep fields are timed.  A module's calls to itself are never wrapped,
so the recursion inside `syntax`, `pretty` and `envmachine` stays untimed
and adds no overhead.  `close` puts every original back.
"""

from __future__ import annotations

import dataclasses
import sys
from time import perf_counter

ENGINE_FIELDS = ("steps", "betas", "step_s", "guard_s", "readback_s", "exhausted_s", "work_budget_runs")

LAYER_METRICS = (
    ("syntax.term_metrics_s", "s"),
    ("syntax.subst_s", "s"),
    ("syntax.subst_calls", "count"),
    ("syntax.alpha_eq_s", "s"),
    ("envmachine.force_s", "s"),
    ("engines.evaluate_s", "s"),
    ("engines.compare_s", "s"),
    ("pretty.print_term_s.untraced", "s"),
    ("pretty.print_term_s.traced", "s"),
    ("pretty.print_state_s.untraced", "s"),
    ("pretty.print_state_s.traced", "s"),
    ("parse.parse_term_s", "s"),
    ("gen.gen_terms_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
)


def metric_units(engine_names) -> dict[str, str]:
    """Every per-layer metric name with its unit, engines first."""
    units = {}
    for name in engine_names:
        for field in ENGINE_FIELDS:
            units[f"engine.{name}.{field}"] = "s" if field.endswith("_s") else "count"
    units.update(LAYER_METRICS)
    return units


class Layers:
    """Accumulates per-layer times and counts while installed."""

    def __init__(self):
        self.totals: dict[str, float] = dict.fromkeys((n for n, _ in LAYER_METRICS), 0)
        self.tracing = False
        self._undo: list[tuple] = []
        self._run_s: dict[str, float] = {}
        self._bigstep: str | None = None
        self._bigstep_done: str | None = None

    # -- installing ---------------------------------------------------------

    def _set(self, owner, name, value) -> None:
        """Set a module attribute, or a dict entry, remembering the old value."""
        get, put = (dict.__getitem__, dict.__setitem__) if isinstance(owner, dict) else (getattr, setattr)
        self._undo.append((put, owner, name, get(owner, name)))
        put(owner, name, value)

    def close(self) -> None:
        """Restore every name and engine entry that install replaced."""
        while self._undo:
            put, owner, name, old = self._undo.pop()
            put(owner, name, old)

    def _timed(self, key, fn, count_key=None):
        totals = self.totals

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[key] += perf_counter() - t0
                if count_key is not None:
                    totals[count_key] += 1

        return wrapper

    def _printer(self, name, fn, engines_side=False):
        totals = self.totals
        traced, untraced = f"pretty.{name}_s.traced", f"pretty.{name}_s.untraced"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                totals[traced if self.tracing else untraced] += dt
                # A big-step run's readback is the print_term of its result
                # that evaluate makes right after the bigstep call returns.
                if engines_side and self._bigstep_done is not None:
                    totals[f"engine.{self._bigstep_done}.readback_s"] += dt
                    self._bigstep_done = None

        return wrapper

    def install(self, hl) -> None:
        """Wrap the cross-module calls of the imported `headlab` package."""
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items() if name.startswith("headlab.")}
        modules["__init__"] = hl
        engines, syntax, pretty = modules["engines"], modules["syntax"], modules["pretty"]
        self._engines = engines
        self.totals.update(dict.fromkeys(metric_units(engines.ENGINES), 0))

        timed = self._timed
        swaps = {}  # original function -> its wrapper, for the engine entries
        for home, name, wrapped in (
            ("syntax", "term_metrics", timed("syntax.term_metrics_s", syntax.term_metrics)),
            ("syntax", "subst", timed("syntax.subst_s", syntax.subst, "syntax.subst_calls")),
            ("syntax", "alpha_eq", timed("syntax.alpha_eq_s", syntax.alpha_eq)),
            ("parse", "parse_term", timed("parse.parse_term_s", modules["parse"].parse_term)),
            ("pretty", "print_term", self._printer("print_term", pretty.print_term)),
            ("pretty", "print_state", self._printer("print_state", pretty.print_state)),
            ("engines", "evaluate", self._evaluate(engines.evaluate)),
            ("engines", "compare", self._compare(timed("engines.compare_s", engines.compare))),
        ):
            original = getattr(modules[home], name)
            swaps[original] = wrapped
            for mod_name, mod in modules.items():
                if mod_name != home and getattr(mod, name, None) is original:
                    self._set(mod, name, wrapped)
        swaps[pretty.print_term] = self._printer("print_term", pretty.print_term, engines_side=True)
        self._set(engines, "print_term", swaps[pretty.print_term])
        # Only engines calls as_forced_command, through the module, so it
        # is rebound in envmachine itself.
        envmachine = modules["envmachine"]
        self._set(envmachine, "as_forced_command", timed("envmachine.force_s", envmachine.as_forced_command))
        # The big-step evaluators charge their growth guard through
        # term_metrics; that time is the engine's guard_s.
        for home in ("weakhead", "headsimple"):
            self._set(modules[home], "term_metrics", self._bigstep_guard(syntax.term_metrics))
        for name, eng in list(engines.ENGINES.items()):
            self._set(engines.ENGINES, name, self._engine(eng, swaps))

    # -- engine entries -----------------------------------------------------

    def _rebuild_readback(self, fn, swaps):
        # engines._machine_readback closes over the printer it was given
        # when the table was built; build the same closure around the
        # wrapped printer so those renders are counted too.
        if getattr(fn, "__qualname__", "") != "_machine_readback.<locals>.readback":
            return fn
        cells = dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))
        return self._engines._machine_readback(cells["step_fn"], swaps.get(cells["render"], cells["render"]))

    def _engine(self, eng, swaps):
        name = eng.name
        totals = self.totals
        run_s = self._run_s
        k_steps, k_betas = f"engine.{name}.steps", f"engine.{name}.betas"
        k_step, k_guard, k_readback = f"engine.{name}.step_s", f"engine.{name}.guard_s", f"engine.{name}.readback_s"
        beta_rules = eng.beta_rules
        load_fn, step_fn = eng.load, eng.step
        metrics_fn = swaps.get(eng.metrics, eng.metrics)
        readback_fn = self._rebuild_readback(eng.readback, swaps)

        def load(term):
            t0 = perf_counter()
            state = load_fn(term)
            dt = perf_counter() - t0
            totals[k_step] += dt
            run_s[name] = dt
            return state

        def step(state):
            t0 = perf_counter()
            nxt = step_fn(state)
            dt = perf_counter() - t0
            totals[k_step] += dt
            run_s[name] += dt
            if nxt is not None:
                totals[k_steps] += 1
                if nxt[0] in beta_rules:
                    totals[k_betas] += 1
            return nxt

        def metrics(state):
            t0 = perf_counter()
            result = metrics_fn(state)
            dt = perf_counter() - t0
            totals[k_guard] += dt
            run_s[name] += dt
            return result

        def readback(state, emit, budget):
            t0 = perf_counter()
            try:
                return readback_fn(state, emit, budget)
            finally:
                dt = perf_counter() - t0
                totals[k_readback] += dt
                run_s[name] += dt

        fields = dict(
            load=load, step=step, metrics=metrics, readback=readback,
            render=swaps.get(eng.render, eng.render),
        )
        if eng.bigstep is not None:
            fields["bigstep"] = self._bigstep_fn(name, eng.bigstep)
        return dataclasses.replace(eng, **fields)

    def _bigstep_fn(self, name, fn):
        totals = self.totals

        def bigstep(term, meter, log):
            self._bigstep, self._bigstep_done = name, None
            t0 = perf_counter()
            try:
                result = fn(term, meter, log)
            finally:
                dt = perf_counter() - t0
                self._bigstep = None
                totals[f"engine.{name}.step_s"] += dt
                self._run_s[name] = dt
                betas = min(meter.betas, meter.limit)
                totals[f"engine.{name}.steps"] += betas
                totals[f"engine.{name}.betas"] += betas
            self._bigstep_done = name
            return result

        return bigstep

    def _bigstep_guard(self, term_metrics):
        totals = self.totals

        def wrapper(t):
            t0 = perf_counter()
            try:
                return term_metrics(t)
            finally:
                dt = perf_counter() - t0
                totals["syntax.term_metrics_s"] += dt
                if self._bigstep is not None:
                    totals[f"engine.{self._bigstep}.guard_s"] += dt

        return wrapper

    # -- outcomes -----------------------------------------------------------

    def _finish_run(self, engine: str, outcome) -> None:
        if isinstance(outcome, self._engines.FuelExhausted):
            self.totals[f"engine.{engine}.exhausted_s"] += self._run_s.get(engine, 0.0)
            if outcome.reason == "work budget":
                self.totals[f"engine.{engine}.work_budget_runs"] += 1

    def _evaluate(self, fn):
        timed = self._timed("engines.evaluate_s", fn)

        def evaluate(term, engine="krivine", fuel=None, trace=False, **limits):
            before, self.tracing = self.tracing, bool(trace)
            try:
                outcome, tr = timed(term, engine, fuel, trace, **limits)
            finally:
                self.tracing = before
            self._finish_run(engine, outcome)
            return outcome, tr

        return evaluate

    def _compare(self, timed):
        def compare(term, engines, fuel=None):
            report = timed(term, engines, fuel)
            for result in report.results:
                self._finish_run(result.engine, result.outcome)
            return report

        return compare
