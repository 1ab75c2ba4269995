"""Seed one-line bugs into a copy of src/ and report which check kills each.

    python tests/mutants.py               # every mutant in MUTANTS
    python tests/mutants.py --only 2 5    # the mutants with those numbers

Each row of MUTANTS is (file under src/headlab, old text, new text, what it
breaks).  The old text must occur exactly once.  For each row the script
copies src/ and tests/ to a temporary directory, applies the row there, and
runs two checks in turn:

- `TIER1`, a selection of the tier-1 tests, with tests/golden_outcomes.json
  removed and the tests that read it deselected, so that only checks that
  read no pinned outcome can kill it;
- `make_golden_outcomes.py --check`, the pin of every engine's outcomes.

It prints the first check that kills the mutant, or "survived", and exits
1 if the old text of a row is not found once.  It is not part of tier-1:
each mutant takes up to a few minutes.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The tier-1 files that exercise the fuel meter, the jumps, the engine
# groups and the readback steps, less the one class that reads the golden
# file.
TIER1 = (
    "tests/test_envmachine.py", "tests/test_engines.py", "tests/test_acceptance.py",
    "tests/test_weakhead.py", "tests/test_headsimple.py", "tests/test_projection.py",
    "--deselect", "tests/test_engines.py::TestGoldenOutcomes",
)

MUTANTS = (
    (
        "fuel.py",
        "        return stack(t, lo), _DONE",
        "        return stack(t, lo + 1), _DONE",
        "a period jump stacks k + 1 periods of links on the state it counts k for",
    ),
    (
        "fuel.py",
        "(stack, self.betas - betas, None))",
        "(stack, self.betas - betas, self.work - work))",
        "the growth D is taken from the learning period, and one period is checked",
    ),
    (
        "fuel.py",
        "            return t, (t, self.betas, self.work, power, (stack, self.betas - betas, None))",
        "            return self._jump(t, stack, self.betas - betas, self.work - work, 0)",
        "a learned template jumps at once, with no period checked and no growth",
    ),
    (
        "envmachine.py",
        "if env.name != c.term.name or env.rest is not None:",
        "if env.name != c.term.name:",
        "a renaming link whose binding has an env record off the hole's path joins a context",
    ),
    (
        "fuel.py",
        "        self.betas += lo * period",
        "        lo += 1\n        self.betas += lo * period",
        "every jump, exact repeats included, counts and stacks one period too many",
    ),
    (
        "envmachine.py",
        "        return 1 + hops, ECommand(end.term, end.env, c.coterm)",
        "        return hops, ECommand(end.term, end.env, c.coterm)",
        "the lookup-chain jump counts one lookup too few",
    ),
    (
        "fuel.py",
        """        if self.betas > self.limit:
            raise OutOfFuel("beta")
        self.work += nodes
        if self.work > self.work_limit:
            raise OutOfFuel("work")""",
        """        self.work += nodes
        if self.work > self.work_limit:
            raise OutOfFuel("work")
        if self.betas > self.limit:
            raise OutOfFuel("beta")""",
        "contract checks the work cap before the beta budget",
    ),
    (
        "engines.py",
        "    if not pure:",
        "    if False:",
        "the readback driver lets a projection or an index through",
    ),
    (
        "engines.py",
        'tr.add("readback", rule, eng.render(s))',
        'tr.add("readback", rule, print_state(s))',
        "readback events print with print_state, not the row's render",
    ),
    (
        "engines.py",
        'beta_rules = frozenset(("beta", "bind"))',
        'beta_rules = frozenset(("beta",))',
        "an environment machine's bind does not count as a beta",
    ),
    (
        "syntax.py",
        "            return bound[getattr(t, field)]",
        "            return bound[0]",
        "one-pass readback binds every projection or index to the outermost binder",
    ),
    (
        "headsimple.py",
        "Lam(binders[0], c.term), HStuck(binders[1:])",
        "Lam(binders[-1], c.term), HStuck(binders[:-1])",
        "abs_readback_step reattaches the binders in reverse order",
    ),
    (
        "envmachine.py",
        "taken[marker] = name = fresh(names, binder)",
        "taken[marker] = name = binder",
        "force keeps the binder's name, which can capture",
    ),
    (
        "syntax.py",
        "        names[k] = x = fresh(avoid, canonical_binder(k))\n        avoid.add(x)",
        "        names[k] = x = fresh(avoid, canonical_binder(k))",
        "one-pass readback names each binder without the names chosen for deeper binders",
    ),
    (
        "syntax.py",
        '            return ("f", name)',
        '            return ("f",)',
        "the alpha-key ignores free names",
    ),
    (
        "engines.py",
        "    if term is not t:",
        "    if term is None:",
        "the control load cache returns its state for any term",
    ),
    (
        "syntax.py",
        "    if not depth:\n        return t, is_pure(t)\n",
        "",
        "one-pass readback walks the term recursively with no binder to name",
    ),
)


def run(args: list[str], cwd: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(args, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def verdict(path: str, old: str, new: str) -> str:
    """Apply one mutant to a copy of the tree and name the first check that
    fails on it."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        source = copy / "src" / "headlab" / path
        text = source.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{path}: the old text occurs {text.count(old)} times, not once")
        source.write_text(text.replace(old, new), encoding="utf-8")
        golden = copy / "tests" / "golden_outcomes.json"
        pinned = golden.read_bytes()
        golden.unlink()
        if run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TIER1], copy):
            return "killed by tier-1"
        golden.write_bytes(pinned)
        if run([sys.executable, "tests/make_golden_outcomes.py", "--check"], copy):
            return "killed by --check"
        return "survived"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", type=int, nargs="+", help="the numbers of the mutants to run, from 1")
    args = parser.parse_args(argv)
    numbers = args.only or range(1, len(MUTANTS) + 1)
    for number in numbers:
        path, old, new, breaks = MUTANTS[number - 1]
        print(f"{number}. {path}: {breaks}: {verdict(path, old, new)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
