"""Shared fixtures of the paper-reproduction benches.

Every ``bench_*.py`` here regenerates one of the paper's tables or
figures: it runs the relevant sweep (timed via ``benchmark.pedantic`` —
these are macro-benchmarks, one round each), asserts the qualitative
shape the paper reports, and writes the measured rows to
``benchmarks/results/<artefact>.txt``.  That directory is a scratch
sink, ignored by git: the tables are for reading after a run, and no
number in them is a contract.  The repo's performance contract is
``BENCHMARK.json`` (``python3 -m benchmarks.e2e``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from benchmarks.e2e.campaign import run_campaign
from repro.agent.context_manager import ContextManager
from repro.capture.context import CaptureContext
from repro.evaluation.query_set import build_query_set
from repro.evaluation.runner import ExperimentRunner

RESULTS_DIR = Path(__file__).parent / "results"

ALL_MODELS = (
    "llama3-8b",
    "llama3-70b",
    "gemini-2.5-flash-lite",
    "gpt-4",
    "claude-opus-4",
)
JUDGE_NAMES = ("gpt-judge", "claude-judge")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def eval_env():
    """Campaign (100 inputs, as in the paper) + golden set + runner.

    Seeded end to end — campaign id, inputs and workflow ids — so two
    runs write the same tables (CI diffs them).
    """
    ctx = CaptureContext(seed="paper-eval")
    cm = ContextManager(ctx.broker).start()
    # run_synthetic_campaign's inputs, with workflow ids seeded as well
    run_campaign(ctx, 100, "synthetic-campaign")
    queries = build_query_set(cm.to_frame())
    runner = ExperimentRunner(cm, queries)
    return ctx, cm, queries, runner


def write_result(results_dir: Path, name: str, text: str) -> None:
    (results_dir / name).write_text(text + "\n")
