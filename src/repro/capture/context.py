"""Capture context: wiring between instrumented code and the streaming hub.

A :class:`CaptureContext` owns the broker connection, the message buffer
(with its flush strategy), the clock, telemetry samplers per host, and
the identifiers of the current campaign/workflow.  It is passed to the
``@flow_task`` decorator explicitly or installed as the process-wide
default — instrumented science code then needs zero plumbing.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any

from repro.messaging.broker import Broker, InProcessBroker
from repro.messaging.buffer import FlushStrategy, MessageBuffer, SizeFlush
from repro.provenance.messages import (
    TASK_TOPIC,
    TaskProvenanceMessage,
    TaskStatus,
    validate_doc,
)
from repro.telemetry import TelemetrySampler
from repro.utils.clock import Clock, VirtualClock
from repro.utils.ids import new_campaign_id, new_task_id, new_workflow_id

__all__ = ["CaptureContext", "WorkflowRun"]

_default_context: "CaptureContext | None" = None
_default_lock = threading.Lock()


class CaptureContext:
    """Shared capture state for one application process."""

    def __init__(
        self,
        broker: Broker | None = None,
        *,
        clock: Clock | None = None,
        campaign_id: str | None = None,
        hostname: str = "localhost",
        flush_strategy: FlushStrategy | None = None,
        seed: Any = None,
    ):
        # explicit None checks: an injected clock at time zero or an
        # empty broker can compare falsy and must not be replaced
        self.clock = clock if clock is not None else VirtualClock()
        self.broker = (
            broker if broker is not None else InProcessBroker(clock=self.clock)
        )
        self.campaign_id = campaign_id or (
            new_campaign_id(seed) if seed is not None else new_campaign_id()
        )
        self.hostname = hostname
        self.buffer = MessageBuffer(
            self.broker,
            TASK_TOPIC,
            strategy=(
                flush_strategy if flush_strategy is not None else SizeFlush(16)
            ),
            clock=self.clock,
        )
        self._samplers: dict[str, TelemetrySampler] = {}
        # per-thread workflow scope: concurrent WorkflowRuns on different
        # threads must not see each other's ids (tasks are attributed to
        # the workflow entered on *their* thread)
        self._workflow_scopes = threading.local()
        self._task_counter = itertools.count()
        self._lock = threading.RLock()

    # -- default-context management ------------------------------------------------
    def install_as_default(self) -> "CaptureContext":
        global _default_context
        with _default_lock:
            _default_context = self
        return self

    @staticmethod
    def default() -> "CaptureContext":
        global _default_context
        with _default_lock:
            if _default_context is None:
                _default_context = CaptureContext()
            return _default_context

    @staticmethod
    def reset_default() -> None:
        global _default_context
        with _default_lock:
            _default_context = None

    # -- workflow scope -----------------------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._workflow_scopes, "stack", None)
        if stack is None:
            stack = self._workflow_scopes.stack = []
        return stack

    @property
    def workflow_id(self) -> str | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def push_workflow(self, workflow_id: str) -> None:
        self._stack().append(workflow_id)

    def pop_workflow(self) -> None:
        stack = self._stack()
        if stack:
            stack.pop()

    # -- task emission ----------------------------------------------------------------
    def sampler(self, hostname: str | None = None) -> TelemetrySampler:
        host = hostname or self.hostname
        with self._lock:
            if host not in self._samplers:
                self._samplers[host] = TelemetrySampler(host)
            return self._samplers[host]

    def next_task_id(self, started_at: float) -> str:
        return new_task_id(started_at, next(self._task_counter))

    def emit(self, message: TaskProvenanceMessage | dict[str, Any]) -> None:
        """Validate and buffer one message (asynchronous bulk streaming).

        Takes the typed message or its wire dict (Listing 1 form); the
        dict is buffered as given, so the producer must not mutate it
        afterwards.
        """
        if isinstance(message, TaskProvenanceMessage):
            message.validate()
            message = message.to_dict()
        else:
            validate_doc(message)
        self.buffer.append(message)

    def flush(self) -> None:
        self.buffer.flush()


class WorkflowRun:
    """Context manager bounding one workflow execution.

    Publishes a ``type="workflow"`` record at entry (RUNNING) and exit
    (FINISHED/FAILED) and scopes every ``@flow_task`` call inside to the
    new ``workflow_id``.
    """

    def __init__(
        self,
        name: str,
        context: CaptureContext | None = None,
        *,
        workflow_id: str | None = None,
    ):
        self.name = name
        self.context = context if context is not None else CaptureContext.default()
        self.workflow_id = (
            workflow_id if workflow_id is not None else new_workflow_id()
        )
        self.started_at: float | None = None

    def __enter__(self) -> "WorkflowRun":
        self.started_at = self.context.clock.now()
        self.context.push_workflow(self.workflow_id)
        self._emit(TaskStatus.RUNNING.value, ended_at=None)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        status = TaskStatus.FAILED.value if exc_type else TaskStatus.FINISHED.value
        self._emit(status, ended_at=self.context.clock.now())
        self.context.pop_workflow()
        self.context.flush()

    def _emit(self, status: str, ended_at: float | None) -> None:
        msg = TaskProvenanceMessage(
            task_id=f"{self.workflow_id}/run",
            campaign_id=self.context.campaign_id,
            workflow_id=self.workflow_id,
            activity_id=self.name,
            started_at=self.started_at,
            ended_at=ended_at,
            hostname=self.context.hostname,
            status=status,
            type="workflow",
        )
        self.context.emit(msg)
