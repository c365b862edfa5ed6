"""The three benchmark tool-graph topologies and their task goals.

Edge weights follow one convention throughout: primary providers enter at
cost 1.0, backups at 2.0, and start/goal marker hops cost 1.0.  On the
customer-support pipeline that puts the healthy route at total cost 4.0 and
the full backup route (razorpay + sms) at 6.0.

Fallback goals ("demotions") get their own goal markers.  Where a demoted
goal needs routes the primary goal must never see (travel's skip-the-hotel
lane), those edges live on the demotion option, and a task that tries it
passes them to its searches as a lane; no graph is written.  Each
topology's graph is built once, at import, by its builder in ``BUILDERS``
and frozen; ``Topology.fresh_graph`` hands that one graph to every task.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .graph import ToolGraph
from .orchestrator import DemotionOption, TaskGoal

START = "start"


class TopologyKind(Enum):
    LINEAR_PIPELINE = "linear_pipeline"
    DEPENDENCY_DAG = "dependency_dag"
    PARALLEL_FANOUT = "parallel_fanout"


@dataclass(frozen=True)
class Topology:
    kind: TopologyKind
    domain: str
    goal: TaskGoal
    required_outcomes: tuple[str, ...]

    def fresh_graph(self) -> ToolGraph:
        """The topology's graph, built once and frozen, shared by every
        task with its route memo.  A task keeps its quarantined nodes
        itself and passes them to each search (``ToolGraph.shortest_path``)."""
        return _GRAPHS[self.kind]


def _support_graph() -> ToolGraph:
    g = ToolGraph()
    g.add_node(START, sentinel=True)
    for node in ("crm", "stripe", "razorpay", "store_credit", "email", "sms"):
        g.add_node(node)
    g.add_node("goal_refund", sentinel=True)
    g.add_node("goal_store_credit", sentinel=True)
    g.add_edge(START, "crm", 1.0)
    g.add_edge("crm", "stripe", 1.0)
    g.add_edge("crm", "razorpay", 2.0)
    g.add_edge("crm", "store_credit", 2.0)
    g.add_edge("stripe", "email", 1.0)
    g.add_edge("stripe", "sms", 2.0)
    g.add_edge("razorpay", "email", 2.0)
    g.add_edge("razorpay", "sms", 2.0)
    g.add_edge("email", "goal_refund", 1.0)
    g.add_edge("sms", "goal_refund", 1.0)
    g.add_edge("store_credit", "goal_store_credit", 1.0)
    return g


def _travel_graph() -> ToolGraph:
    g = ToolGraph()
    g.add_node(START, sentinel=True)
    stages = [
        ("flight_primary", "flight_backup"),
        ("hotel_primary", "hotel_backup"),
        ("car_primary", "car_backup"),
        ("confirm_primary", "confirm_backup"),
    ]
    for primary, backup in stages:
        g.add_node(primary)
        g.add_node(backup)
    g.add_node("goal_trip", sentinel=True)
    g.add_node("goal_transport", sentinel=True)
    g.add_edge(START, "flight_primary", 1.0)
    g.add_edge(START, "flight_backup", 2.0)
    for (up_p, up_b), (dn_p, dn_b) in zip(stages, stages[1:]):
        for src in (up_p, up_b):
            g.add_edge(src, dn_p, 1.0)
            g.add_edge(src, dn_b, 2.0)
    g.add_edge("confirm_primary", "goal_trip", 1.0)
    g.add_edge("confirm_backup", "goal_trip", 1.0)
    return g


def _moderation_graph() -> ToolGraph:
    g = ToolGraph()
    g.add_node(START, sentinel=True)
    sources = [("image_classifier", 1.0), ("text_classifier", 2.0), ("history_classifier", 3.0)]
    for node, entry_cost in sources:
        g.add_node(node)
        g.add_edge(START, node, entry_cost)
    for node in ("toxicity_check", "spam_check", "action_queue"):
        g.add_node(node)
    g.add_node("goal_moderation", sentinel=True)
    for node, _ in sources:
        g.add_edge(node, "action_queue", 1.0)
        g.add_edge(node, "toxicity_check", 1.0)
        g.add_edge(node, "spam_check", 1.0)
    g.add_edge("toxicity_check", "action_queue", 1.0)
    g.add_edge("spam_check", "action_queue", 1.0)
    g.add_edge("action_queue", "goal_moderation", 1.0)
    return g


BUILDERS = {
    TopologyKind.LINEAR_PIPELINE: _support_graph,
    TopologyKind.DEPENDENCY_DAG: _travel_graph,
    TopologyKind.PARALLEL_FANOUT: _moderation_graph,
}
_GRAPHS = {kind: build().freeze() for kind, build in BUILDERS.items()}

# Fallback lane for "book what we can without lodging": flight connects
# straight to the car stage, and the car stage closes out the demoted goal.
_TRANSPORT_ONLY = DemotionOption(
    goal_id="transport_only",
    goal_node="goal_transport",
    extra_edges=(
        ("flight_primary", "car_primary", 1.0),
        ("flight_primary", "car_backup", 2.0),
        ("flight_backup", "car_primary", 1.0),
        ("flight_backup", "car_backup", 2.0),
        ("car_primary", "goal_transport", 1.0),
        ("car_backup", "goal_transport", 1.0),
    ),
)

_TOPOLOGIES = {
    TopologyKind.LINEAR_PIPELINE: Topology(
        kind=TopologyKind.LINEAR_PIPELINE,
        domain="customer_support",
        goal=TaskGoal(
            id="issue_refund",
            goal_node="goal_refund",
            ladder=(DemotionOption("issue_store_credit", "goal_store_credit"),),
        ),
        required_outcomes=("payment_resolved", "customer_notified"),
    ),
    TopologyKind.DEPENDENCY_DAG: Topology(
        kind=TopologyKind.DEPENDENCY_DAG,
        domain="travel_booking",
        goal=TaskGoal(id="book_trip", goal_node="goal_trip", ladder=(_TRANSPORT_ONLY,)),
        required_outcomes=("flight_booked", "lodging_resolved", "trip_confirmed"),
    ),
    TopologyKind.PARALLEL_FANOUT: Topology(
        kind=TopologyKind.PARALLEL_FANOUT,
        domain="content_moderation",
        goal=TaskGoal(id="moderate_content", goal_node="goal_moderation", ladder=()),
        required_outcomes=("decision_recorded",),
    ),
}


def build_topology(kind: TopologyKind | str) -> Topology:
    if isinstance(kind, str):
        kind = TopologyKind(kind)
    return _TOPOLOGIES[kind]


# Outcome labels are judged from a finished trace.  A recorded demotion
# satisfies the notification/confirmation labels: the fallback resolution is
# itself the explicit, logged answer to the customer-facing step.
_OUTCOME_RULES = {
    "customer_support": {
        "payment_resolved": lambda s, demoted: bool(s & {"stripe", "razorpay", "store_credit"}),
        "customer_notified": lambda s, demoted: bool(s & {"email", "sms"}) or demoted,
    },
    "travel_booking": {
        "flight_booked": lambda s, demoted: bool(s & {"flight_primary", "flight_backup"}),
        "lodging_resolved": lambda s, demoted: bool(s & {"hotel_primary", "hotel_backup"}) or demoted,
        "trip_confirmed": lambda s, demoted: bool(s & {"confirm_primary", "confirm_backup"}) or demoted,
    },
    "content_moderation": {
        "decision_recorded": lambda s, demoted: "action_queue" in s,
    },
}


def achieved_outcomes(domain: str, successes: set[str], demoted: bool) -> set[str]:
    rules = _OUTCOME_RULES[domain]
    return {label for label, rule in rules.items() if rule(successes, demoted)}
