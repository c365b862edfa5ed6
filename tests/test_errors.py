"""Every module's typed error shares one base, so a caller can catch any bad
input to toolrouter with one ``except ToolrouterError``."""

from __future__ import annotations

import pytest

from toolrouter import ToolrouterError
from toolrouter.bench import BenchError, measure_recovery_latency
from toolrouter.calibration import CalibrationError, SimClock, ToolCalibration
from toolrouter.graph import GraphError, ToolGraph
from toolrouter.monitors import MonitorConfig, MonitorError
from toolrouter.orchestrator import OrchestratorError, RuleReasoner, TaskGoal, TaskRequest, execute_task
from toolrouter.scenarios import FaultEffect, FaultEntry, FaultSchedule, ScenarioError, ScheduledInvoker
from toolrouter.topologies import TopologyKind, build_topology


def _support():
    return build_topology(TopologyKind.LINEAR_PIPELINE).fresh_graph()


@pytest.mark.parametrize(
    "base, bad_input",
    [
        (GraphError, lambda: ToolGraph().add_edge("a", "b", 1.0)),
        (MonitorError, lambda: MonitorConfig.from_dict({"no_such_setting": 1})),
        (CalibrationError, lambda: ToolCalibration(trip_threshold=0)),
        (
            OrchestratorError,
            lambda: execute_task(TaskGoal("g", "nowhere"), _support(), ScheduledInvoker(FaultSchedule()), RuleReasoner(), SimClock(), TaskRequest("x")),
        ),
        (ScenarioError, lambda: FaultSchedule((FaultEntry("warp_drive", FaultEffect.DOWN_FROM_START),)).validate_against(_support())),
        (BenchError, lambda: measure_recovery_latency(0)),
    ],
    ids=["graph", "monitors", "calibration", "orchestrator", "scenarios", "bench"],
)
def test_each_module_error_is_a_toolrouter_error(base, bad_input):
    assert issubclass(base, ToolrouterError)
    with pytest.raises(base) as raised:
        bad_input()
    assert isinstance(raised.value, ToolrouterError)
