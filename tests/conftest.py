import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.setrecursionlimit(30_000)

import pytest

from headlab.engines import CONTROL_ENGINE_NAMES, HEAD_ENGINE_NAMES, WH_ENGINE_NAMES, engine_names, evaluate
from headlab.gen import GenConfig, gen_terms
from helpers import TRACE_FUEL, TRACE_TERMS

# The corpus the acceptance criteria run on: fixed seed, size bound 30.
CORPUS_SEED = 20250
CORPUS_FUEL = 10_000


@pytest.fixture(scope="session")
def corpus1000():
    return list(gen_terms(GenConfig(max_size=30, seed=CORPUS_SEED), 1000))


@pytest.fixture(scope="session")
def corpus300(corpus1000):
    return corpus1000[:300]


@pytest.fixture(scope="session")
def corpus120(corpus1000):
    return corpus1000[:120]


@pytest.fixture(scope="session")
def wh_outcomes(corpus1000):
    """Outcome of every weak-head engine on every corpus term."""
    return {
        name: [evaluate(t, name, CORPUS_FUEL)[0] for t in corpus1000]
        for name in WH_ENGINE_NAMES
    }


@pytest.fixture(scope="session")
def head_outcomes(corpus1000):
    """Outcome of every head engine on every corpus term."""
    return {
        name: [evaluate(t, name, CORPUS_FUEL)[0] for t in corpus1000]
        for name in HEAD_ENGINE_NAMES
    }


@pytest.fixture(scope="session")
def control_outcomes(corpus1000):
    """Outcome of every control engine on every corpus term."""
    return {
        name: [evaluate(t, name, CORPUS_FUEL)[0] for t in corpus1000]
        for name in CONTROL_ENGINE_NAMES
    }


@pytest.fixture(scope="session")
def golden_traces(corpus1000):
    """Trace of every engine on the corpus terms tests/golden_outcomes.json
    pins the traces of."""
    return {
        name: [evaluate(t, name, TRACE_FUEL, trace=True)[1] for t in corpus1000[:TRACE_TERMS]]
        for name in engine_names()
    }
