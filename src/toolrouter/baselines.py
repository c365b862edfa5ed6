"""Deterministic models of the two comparison architectures, plus the
end-to-end auditor that catches silent failures.

ReAct is replayed from per-scenario scripts: an ordered act list plus a
pinned reasoning-call count.  Tool outcomes still come from the shared
fault schedule, so the scripts stay honest about what each call returns;
only the reasoning cadence is scripted.

Both models log their runs on the same timeline as the router (``tool_call``,
``consult``, ``demoted`` and their recovery events), so one set of folds
(``ExecutionTrace.llm_calls``, ``tool_call_count``, ``recovery_events``)
counts every architecture.

The static workflow is structural: per-domain stage definitions carrying
exactly the pre-coded single-failure fallbacks (a notification falls back
from email to sms; moderation skips dead classifiers and holds for review
at three losses).  Outcomes emerge from running those definitions against
the fault schedule; compound failures beyond the coded edges either abort
loudly (required stages) or drop the step while still reporting success,
which is precisely the silent-failure mode the auditor exists to expose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .calibration import SimClock
from .orchestrator import ExecutionTrace, TraceStatus
from .scenarios import Scenario, ScheduledInvoker
from .topologies import Topology, achieved_outcomes


@dataclass(frozen=True)
class ReactScript:
    """Scripted policy for one scenario: tool acts in order, total LLM
    reasoning calls (thought steps plus the final answer), and how the run
    terminates."""

    acts: tuple[str, ...]
    llm_calls: int
    terminal: str  # "complete" | "demoted" | "escalate"


REACT_SCRIPTS: dict[str, ReactScript] = {
    "S1": ReactScript(("crm", "stripe", "email"), 4, "complete"),
    "S2": ReactScript(("crm", "stripe", "razorpay", "email"), 5, "complete"),
    "S3": ReactScript(("crm", "stripe", "razorpay", "store_credit", "email"), 7, "demoted"),
    "S4": ReactScript(("crm", "email"), 4, "escalate"),
    "S5": ReactScript(("crm", "stripe", "email", "sms"), 5, "complete"),
    "S6": ReactScript(("crm", "stripe", "email", "sms"), 8, "escalate"),
    "S7": ReactScript(("crm", "stripe", "razorpay", "email", "sms"), 9, "escalate"),
    "T1": ReactScript(("flight_primary", "hotel_primary", "car_primary", "confirm_primary"), 5, "complete"),
    "T2": ReactScript(("flight_primary", "flight_backup", "hotel_primary", "car_primary", "confirm_primary"), 6, "complete"),
    "T3": ReactScript(
        ("flight_primary", "flight_backup", "hotel_primary", "hotel_backup", "car_primary", "confirm_primary"),
        7, "complete"),
    "T4": ReactScript((), 3, "escalate"),
    "T5": ReactScript(
        ("flight_primary", "hotel_primary", "hotel_backup", "car_primary", "car_backup", "confirm_primary"),
        5, "demoted"),
    "T6": ReactScript(
        ("flight_primary", "flight_backup", "hotel_primary", "hotel_backup", "car_primary", "confirm_primary"),
        8, "escalate"),
    "M1": ReactScript(
        ("image_classifier", "text_classifier", "history_classifier", "toxicity_check", "spam_check", "action_queue"),
        6, "complete"),
    "M2": ReactScript(
        ("image_classifier", "text_classifier", "history_classifier", "toxicity_check", "spam_check", "action_queue"),
        7, "complete"),
    "M3": ReactScript(
        ("image_classifier", "text_classifier", "history_classifier", "toxicity_check", "spam_check", "action_queue"),
        6, "complete"),
    "M4": ReactScript(
        ("image_classifier", "text_classifier", "history_classifier", "toxicity_check", "action_queue"),
        9, "complete"),
    "M5": ReactScript(
        ("image_classifier", "text_classifier", "history_classifier", "spam_check", "action_queue"),
        9, "complete"),
    "M6": ReactScript(
        ("image_classifier", "text_classifier", "history_classifier", "spam_check", "action_queue"),
        10, "complete"),
}


def run_react(scenario: Scenario) -> ExecutionTrace:
    """Replay the scripted LLM-per-decision policy against the scenario's
    fault schedule.  Graph-level recoveries are always zero: every failure
    is absorbed by extra reasoning steps instead.  The script pins how many
    reasoning calls the run makes, not where, so their ``consult`` events
    (query ``react_step``) are logged together after the acts, before a
    scripted demotion."""
    script = REACT_SCRIPTS[scenario.id]
    invoker = ScheduledInvoker(scenario.faults)
    clock = SimClock()
    trace = ExecutionTrace(goal_id=scenario.topology.goal.id, final_goal=scenario.topology.goal.id)
    for node in script.acts:
        _call(trace, invoker, clock, node)
    for _ in range(script.llm_calls):
        trace.log(clock.now, "consult", query="react_step", reply="scripted")
    if script.terminal == "escalate":
        trace.status = TraceStatus.ESCALATED
        trace.resolution = {"kind": "handoff", "note": "model handed the case to a human"}
    else:
        trace.status = TraceStatus.SUCCESS
        trace.resolution = {"kind": "completed", "goal": trace.final_goal}
        if script.terminal == "demoted":
            trace.log(clock.now, "demoted", goal="reasoned_fallback")
    return trace


@dataclass(frozen=True)
class WorkflowStage:
    """One pre-coded workflow state.  ``providers`` are tried in order; any
    hop beyond the first is a fallback-edge traversal.  Required stages
    abort the run when exhausted; best-effort stages are dropped."""

    name: str
    providers: tuple[str, ...]
    required: bool = True


SUPPORT_WORKFLOW = (
    WorkflowStage("lookup", ("crm",)),
    WorkflowStage("payment", ("stripe", "razorpay")),
    WorkflowStage("notify", ("email", "sms"), required=False),
)

TRAVEL_WORKFLOW = (
    WorkflowStage("flight", ("flight_primary", "flight_backup")),
    WorkflowStage("hotel", ("hotel_primary", "hotel_backup")),
    WorkflowStage("car", ("car_primary", "car_backup")),
    # The confirmation email was wired fire-and-forget: no fallback edge.
    WorkflowStage("confirm", ("confirm_primary",), required=False),
)

MODERATION_CLASSIFIERS = (
    "image_classifier",
    "text_classifier",
    "history_classifier",
    "toxicity_check",
    "spam_check",
)
MODERATION_HOLD_THRESHOLD = 3


@dataclass
class AuditReport:
    """End-to-end completion audit, applied uniformly to every architecture.

    ``silent_failure`` is true exactly when the run claimed success while
    leaving required outcomes unmet; explicit escalations, holds and aborts
    are by definition not silent."""

    scenario_id: str
    reported_status: str
    required_outcomes: tuple[str, ...]
    outcomes_met: tuple[str, ...]
    silent_failure: bool
    correct: bool
    classifiers_lost: int | None = None

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario_id,
            "reported_status": self.reported_status,
            "required_outcomes": list(self.required_outcomes),
            "outcomes_met": list(self.outcomes_met),
            "silent_failure": self.silent_failure,
            "correct": self.correct,
            "classifiers_lost": self.classifiers_lost,
        }


def _outcomes_met(trace: ExecutionTrace, domain: str) -> set[str]:
    return achieved_outcomes(domain, trace.successes(), demoted=bool(trace.demotions))


def silent_success(trace: ExecutionTrace, topology: Topology) -> bool:
    """The outcome rule: a run that reports SUCCESS without every outcome
    its topology requires is a silent failure.  A run ends SUCCESS or
    ESCALATED, so a run is correct exactly when it is not silent."""
    if trace.status is not TraceStatus.SUCCESS:
        return False
    return not set(topology.required_outcomes) <= _outcomes_met(trace, topology.domain)


def audit(trace: ExecutionTrace, scenario: Scenario, classifiers_lost: int | None = None) -> AuditReport:
    topology = scenario.topology
    silent = silent_success(trace, topology)
    return AuditReport(
        scenario_id=scenario.id,
        reported_status=trace.status.value,
        required_outcomes=tuple(sorted(topology.required_outcomes)),
        outcomes_met=tuple(sorted(_outcomes_met(trace, topology.domain))),
        silent_failure=silent,
        correct=not silent,
        classifiers_lost=classifiers_lost,
    )


def _call(trace: ExecutionTrace, invoker, clock: SimClock, node: str) -> bool:
    outcome = invoker.invoke(node, clock)
    clock.advance(outcome.latency_ms)
    trace.log(clock.now, "tool_call", node=node, success=outcome.success, kind=outcome.failure_kind)
    if outcome.success:
        trace.completed.add(node)
    return outcome.success


def _run_staged_workflow(scenario: Scenario, stages) -> ExecutionTrace:
    invoker = ScheduledInvoker(scenario.faults)
    clock = SimClock()
    trace = ExecutionTrace(goal_id=scenario.topology.goal.id, final_goal=scenario.topology.goal.id)
    for stage in stages:
        achieved = False
        for i, provider in enumerate(stage.providers):
            if i > 0:  # pre-coded fallback edge taken
                trace.log(clock.now, "fallback", stage=stage.name, to=provider)
            if _call(trace, invoker, clock, provider):
                achieved = True
                break
        if achieved:
            continue
        if stage.required:
            trace.status = TraceStatus.ESCALATED
            trace.resolution = {"kind": "error", "note": f"{stage.name} providers exhausted"}
            trace.log(clock.now, "aborted", stage=stage.name)
            return trace
        # Unanticipated compound failure on a best-effort step: the state
        # machine just moves on and still reports success.
        trace.log(clock.now, "step_dropped", stage=stage.name)
    trace.status = TraceStatus.SUCCESS
    trace.resolution = {"kind": "completed", "goal": trace.final_goal}
    return trace


def _run_moderation_workflow(scenario: Scenario) -> tuple[ExecutionTrace, int]:
    invoker = ScheduledInvoker(scenario.faults)
    clock = SimClock()
    trace = ExecutionTrace(goal_id=scenario.topology.goal.id, final_goal=scenario.topology.goal.id)
    lost = 0
    for clf in MODERATION_CLASSIFIERS:
        if not _call(trace, invoker, clock, clf):
            lost += 1
            trace.log(clock.now, "classifier_skipped", classifier=clf)  # skip-and-continue edge
    if lost >= MODERATION_HOLD_THRESHOLD:
        trace.status = TraceStatus.ESCALATED
        trace.resolution = {"kind": "hold", "note": f"{lost} classifiers down, held for review"}
        trace.log(clock.now, "held_for_review", lost=lost)
        return trace, lost
    if scenario.content_toxic:  # pre-coded toxic-content diversion branch
        trace.log(clock.now, "toxicity_branch")
    _call(trace, invoker, clock, "action_queue")
    trace.status = TraceStatus.SUCCESS
    trace.resolution = {"kind": "completed", "goal": trace.final_goal}
    return trace, lost


def run_static_workflow(scenario: Scenario) -> tuple[ExecutionTrace, AuditReport]:
    """Execute the pre-coded state machine for the scenario's domain.
    LLM calls are structurally zero."""
    lost: int | None = None
    if scenario.domain == "customer_support":
        trace = _run_staged_workflow(scenario, SUPPORT_WORKFLOW)
    elif scenario.domain == "travel_booking":
        trace = _run_staged_workflow(scenario, TRAVEL_WORKFLOW)
    elif scenario.domain == "content_moderation":
        trace, lost = _run_moderation_workflow(scenario)
    else:
        raise ValueError(f"unknown domain {scenario.domain!r}")
    return trace, audit(trace, scenario, classifiers_lost=lost)
