"""§5.3 — live interaction with the chemistry workflow (Q1-Q10).

Reproduction targets: the agent answers >80% of the ten queries fully
or partially correctly; Q5 fails by summing atom counts across all
molecules (81 instead of 9); Q8 fails to average the C-H bars before
plotting; every outcome matches the paper's per-query verdicts.
Also checks LLaMA 3-8B's context-window struggle on the chemistry
schema (the prompt exceeds 8k tokens and truncates).
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.evaluation.live_demo import run_live_demo
from repro.llm.tokenizer import count_tokens
from repro.viz.ascii import series_table


def test_chemistry_live_interaction(benchmark, results_dir):
    demo = benchmark.pedantic(
        lambda: run_live_demo(model="gpt-4"), rounds=1, iterations=1
    )

    assert demo.accuracy() >= 0.8  # "over 80%"
    assert demo.paper_agreement() == 1.0

    by_qid = {o.qid: o for o in demo.outcomes}
    assert not by_qid["Q5"].correct and "81" in by_qid["Q5"].reply.text
    assert not by_qid["Q8"].correct
    assert by_qid["Q9"].correct  # average works even though the plot failed
    assert "O-H_1" in (by_qid["Q1"].reply.text + str(by_qid["Q1"].reply.table.to_dicts()))

    rows = [
        {
            "query": o.qid,
            "outcome": "correct" if o.correct else "incorrect",
            "paper": o.paper_outcome,
            "matches_paper": o.matches_paper,
        }
        for o in demo.outcomes
    ]
    write_result(
        results_dir,
        "chemistry_live_q1_q10.txt",
        series_table(
            rows,
            ["query", "outcome", "paper", "matches_paper"],
            title="Live chemistry interaction outcomes (ethanol BDE workflow)",
        ),
    )


def test_llama8b_context_window_overflow_on_chemistry(benchmark):
    """The paper: 'LLaMA 3 8B struggles due to its limited context window,
    as the workflow's dataflow schema is more complex than the synthetic
    one.'  Verify the chemistry full-context prompt overflows 8k tokens."""
    from repro.agent.agent import ProvenanceAgent
    from repro.capture.context import CaptureContext
    from repro.workflows.chemistry import run_bde_workflow

    def build_prompt():
        ctx = CaptureContext()
        agent = ProvenanceAgent(ctx, model="llama3-8b")
        run_bde_workflow("CCO", ctx, n_conformers=2)
        return agent.context_manager.prompt(
            agent.query_tool.prompt_config,
            "Which bond has the highest dissociation free energy?",
        )

    prompt = benchmark.pedantic(build_prompt, rounds=1, iterations=1)
    tokens = count_tokens(prompt)
    assert tokens > 8_192, "chemistry full context must overflow the 8k window"

    from repro.llm.prompt_reading import perceive

    perceived = perceive(prompt, 8_192)
    assert perceived.truncated
    full = perceive(prompt, 200_000)
    # truncation clips the prompt tail: the guideline set is degraded,
    # which mechanically raises LLaMA-3-8B's logic/value error rates on
    # the chemistry workflow (the paper's observed struggle)
    assert len(perceived.guidelines) < len(full.guidelines)
    # the synthetic workflow's full prompt, by contrast, fits comfortably
    from repro.agent.context_manager import ContextManager
    from repro.workflows.synthetic import run_synthetic_campaign

    ctx2 = CaptureContext()
    cm2 = ContextManager(ctx2.broker).start()
    run_synthetic_campaign(ctx2, n_inputs=100)
    from repro.agent.tools.in_memory_query import FULL_CONTEXT

    synth_prompt = cm2.prompt(FULL_CONTEXT, "Which host ran the most tasks?")
    assert count_tokens(synth_prompt) < 8_192
