"""Write tests/golden_outcomes.json: the outcome fingerprint of every
weak-head and head engine over the 1000-term acceptance corpus.

    python tests/make_golden_outcomes.py

The file pins which runs hit a guard, which guard, and at which beta.  A
change that only makes the guard's measures cheaper must leave it as it
is, so regenerate it only for a change that means to move an outcome.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import CORPUS_FUEL, CORPUS_SEED  # noqa: E402  (also puts src/ on sys.path)
from helpers import outcome_fingerprint  # noqa: E402

from headlab.engines import HEAD_ENGINE_NAMES, WH_ENGINE_NAMES, evaluate  # noqa: E402
from headlab.gen import GenConfig, gen_terms  # noqa: E402


def main() -> None:
    corpus = list(gen_terms(GenConfig(max_size=30, seed=CORPUS_SEED), 1000))
    golden = {}
    for name in WH_ENGINE_NAMES + HEAD_ENGINE_NAMES:
        outcomes = [evaluate(t, name, CORPUS_FUEL)[0] for t in corpus]
        golden[name] = outcome_fingerprint(outcomes)
        print(name, golden[name]["counts"], flush=True)
    out = HERE / "golden_outcomes.json"
    out.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
