"""Table 2 — prompt + RAG configurations and their real prompt sizes."""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.evaluation.configs import CONFIGURATIONS
from repro.llm.tokenizer import count_tokens
from repro.viz.ascii import series_table


def test_table2_configurations(benchmark, eval_env, results_dir):
    _, cm, queries, _ = eval_env
    sample_query = queries[0].nl

    def measure():
        rows = []
        for label, cfg in CONFIGURATIONS.items():
            prompt = cm.prompt(cfg, sample_query)
            rows.append(
                {
                    "label": label,
                    "config_label": cfg.label,
                    "prompt_tokens": count_tokens(prompt),
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    assert [r["label"] for r in rows] == list(CONFIGURATIONS)
    # labels derived from the config flags must match the table keys
    for r in rows:
        assert r["label"] == r["config_label"]
    tokens = {r["label"]: r["prompt_tokens"] for r in rows}
    # cumulative configurations strictly grow in token cost
    assert (
        tokens["Nothing"]
        < tokens["Baseline"]
        < tokens["Baseline+FS"]
        < tokens["Baseline+FS+Schema"]
        < tokens["Baseline+FS+Schema+Values"]
        < tokens["Full"]
    )
    assert tokens["Baseline+FS+Guidelines"] < tokens["Baseline+FS+Schema"]

    write_result(
        results_dir,
        "table2_configurations.txt",
        series_table(
            rows,
            ["label", "prompt_tokens"],
            title="Table 2: prompt+RAG configurations (measured prompt sizes)",
        ),
    )
