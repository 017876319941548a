"""Live monitoring of the synthetic math workflow (paper Fig. 5-A).

Runs a campaign of synthetic workflows, watches it with the Context
Monitor + Anomaly Detector, then explores the results interactively —
including adding a user-defined guideline mid-session (paper §4.2).

Run:  python examples/synthetic_monitoring.py
"""

from repro.agent.agent import ProvenanceAgent
from repro.capture.context import CaptureContext
from repro.capture.instrumentation import flow_task
from repro.provenance.keeper import ANOMALY_TOPIC, ProvenanceKeeper
from repro.provenance.query_api import QueryAPI
from repro.workflows.synthetic import run_synthetic_campaign


def main() -> None:
    ctx = CaptureContext()
    keeper = ProvenanceKeeper(ctx.broker)
    keeper.start()
    agent = ProvenanceAgent(ctx, model="gpt-4", query_api=QueryAPI(keeper.database))

    # route anomaly notifications like a downstream service would
    alerts = []
    ctx.broker.subscribe(ANOMALY_TOPIC, alerts.append)

    # schedule the anomaly detector every 100 messages
    agent.monitor.every_n_messages(100, agent.anomaly_tool)

    print("running 50 synthetic workflow instances ...")
    run_synthetic_campaign(ctx, n_inputs=50)

    # inject one suspicious task (an absurd output value)
    @flow_task("power")
    def rogue_power(value: float):
        return {"value": value}

    rogue_power(10_000_000.0, _ctx=ctx)
    ctx.flush()

    fired = agent.monitor.poll()
    print(f"monitor dispatched: {[name for name, _ in fired]}")
    print(f"anomaly alerts republished: {len(alerts)}")
    for alert in alerts[:3]:
        print(f"  -> task {alert.payload['task_id']}: {alert.payload['anomaly']}")
    print()

    for question in (
        "How many tasks were executed per activity?",
        "Which host had the highest average CPU at the end?",
        "use the field generated.value to answer questions about outputs",
        "What is the maximum value generated by the power activity across all workflows?",
    ):
        reply = agent.chat(question)
        print(f"you>   {question}")
        print(f"agent> {reply.text}")
        if reply.table is not None and len(reply.table) <= 10:
            print(reply.table.to_string())
        print()

    # lineage from the index the agent maintains as messages arrive
    api = QueryAPI(keeper.database)
    some_task = api.tasks({"activity_id": "average_results"}, limit=1)[0]
    lineage = agent.lineage.upstream(some_task["task_id"])
    print(
        f"lineage of {some_task['task_id'][:24]}… -> {len(lineage)} upstream task(s)"
    )


if __name__ == "__main__":
    main()
