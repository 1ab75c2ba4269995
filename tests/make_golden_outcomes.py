"""Write tests/golden_outcomes.json: the outcome fingerprint of every
engine (weak-head, head and control) over the 1000-term acceptance corpus.

    python tests/make_golden_outcomes.py           # rewrite the file
    python tests/make_golden_outcomes.py --check   # compare, write nothing

The file pins which runs hit a guard, which guard, and at which beta
(`counts`, `betas`, `sha256`); every run's whole outcome, printed result
or last state and step count included (`outcomes_sha256`); and every event
of the engine's traces on the first 40 corpus terms at fuel 200
(`trace_sha256`).  A change that only makes the engines cheaper or their
plumbing smaller must leave it as it is, so regenerate it only for a
change that means to move an outcome or a trace.
`--check` recomputes every fingerprint, prints each engine whose
fingerprint differs from the file, and exits 1 if any does.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_outcomes.json"
sys.path.insert(0, str(HERE))

from conftest import CORPUS_FUEL, CORPUS_SEED  # noqa: E402  (also puts src/ on sys.path)
from helpers import TRACE_FUEL, TRACE_TERMS, golden_entry  # noqa: E402

from headlab.engines import engine_names, evaluate  # noqa: E402
from headlab.gen import GenConfig, gen_terms  # noqa: E402


def fingerprints() -> dict:
    corpus = list(gen_terms(GenConfig(max_size=30, seed=CORPUS_SEED), 1000))
    golden = {}
    for name in engine_names():
        outcomes = [evaluate(t, name, CORPUS_FUEL)[0] for t in corpus]
        traces = [evaluate(t, name, TRACE_FUEL, trace=True)[1] for t in corpus[:TRACE_TERMS]]
        golden[name] = golden_entry(outcomes, traces)
        print(name, golden[name]["counts"], flush=True)
    return golden


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the file instead of writing it")
    args = parser.parse_args(argv)
    golden = fingerprints()
    if not args.check:
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differ = sorted(n for n in set(golden) | set(pinned) if golden.get(n) != pinned.get(n))
    for name in differ:
        print(f"differs: {name}: file {pinned.get(name)} now {golden.get(name)}")
    print(f"{len(differ)} of {len(set(golden) | set(pinned))} engines differ from {GOLDEN.name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
