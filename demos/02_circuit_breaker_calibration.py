#!/usr/bin/env python3
"""The per-tool circuit breaker lifecycle: trip, hold inside the cooldown,
then close after it.  The breaker feeds the tool_health monitor and the
probers; routing leaves a failed tool by quarantine, not by a weight.
"""

from toolrouter import SimClock, ToolCalibration, ToolState

clock = SimClock()
state = ToolState("stripe", ToolCalibration(trip_threshold=3, cooldown_ms=10_000))
print(f"fresh at {clock.now:>5} ms       -> phase: {state.breaker.phase.value}")

# Three consecutive failures trip the breaker open.
for _ in range(3):
    clock.advance(1000)
    state.record_call(clock, 1500, False)
    print(f"call failed at {clock.now:>5} ms -> phase: {state.breaker.phase.value}")

# Probes inside the cooldown are held off (no flapping), even on success.
clock.advance(5000)
state.run_health_probe(clock, 100, True)
print(f"probe at {clock.now:>5} ms (inside cooldown) -> phase: {state.breaker.phase.value}")

# Once the cooldown elapses, one successful probe closes the circuit again.
clock.advance(5000)
state.run_health_probe(clock, 180, True)
print(f"probe at {clock.now:>5} ms (after cooldown)  -> phase: {state.breaker.phase.value}")
print("calls and probes in the window:", len(state.window))
