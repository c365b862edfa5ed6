"""Fault-tolerant tool orchestration on a cost-weighted graph.

Routing, recovery and escalation for tool-using agents: shortest-path
search picks the cheapest working route, failures are quarantined and
rerouted without any model involvement, and a pluggable reasoner is
consulted only when no route exists or a risk signal wins the monitor
competition.  Ships with a deterministic failure simulator and the
benchmark suite that exercises all of it.
"""

from .baselines import AuditReport, audit, run_react, run_static_workflow
from .bench import (
    BenchConfig,
    BenchResult,
    load_result,
    measure_recovery_latency,
    persist_result,
    project_risk,
    render_report,
    run_benchmark,
    run_fuzz,
)
from .calibration import (
    BreakerPhase,
    BreakerState,
    SimClock,
    ToolCalibration,
    ToolState,
)
from .errors import ToolrouterError
from .graph import INFINITE, Edge, RoutePath, ToolGraph
from .monitors import MonitorConfig, MonitorSignal, compete, run_all_monitors
from .orchestrator import (
    DemotionOption,
    ExecutionTrace,
    Outcome,
    RuleReasoner,
    TaskGoal,
    TaskRequest,
    TraceStatus,
    execute_task,
)
from .scenarios import (
    FaultEffect,
    FaultEntry,
    FaultSchedule,
    Scenario,
    ScheduledInvoker,
    ScheduledProber,
    load_scenarios,
    run_self_healing,
)
from .topologies import Topology, TopologyKind, build_topology

__version__ = "0.1.0"
