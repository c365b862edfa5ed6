#!/usr/bin/env python3
"""Per-tool calibration: telemetry windows, the circuit breaker lifecycle,
and the composite weight telemetry gives a tool.  Routing does not read
this weight yet: search runs on the graph's fixed edge costs.
"""

from toolrouter import SimClock, ToolCalibration, ToolState

clock = SimClock()
state = ToolState("stripe", ToolCalibration(trip_threshold=3, cooldown_ms=10_000, nominal_latency_ms=200))

print("phase:", state.breaker.phase.value, "| weight:", state.current_weight)

# Latency degradation alone raises the weight smoothly (200 ms nominal).
for _ in range(10):
    clock.advance(1000)
    state.record_call(clock, 800, True)
print("after 800 ms calls  -> factors:", state.factors(clock.now))

# Three consecutive failures trip the breaker: weight goes infinite and the
# router stops considering this tool entirely.
for _ in range(3):
    clock.advance(1000)
    state.record_call(clock, 1500, False)
print("tripped             -> phase:", state.breaker.phase.value, "| weight:", state.current_weight)

# Probes inside the cooldown window are held off (no flapping).
clock.advance(5000)
state.run_health_probe(clock, 100, True)
print("probe pre-cooldown  -> phase:", state.breaker.phase.value)

# Once the cooldown elapses, one successful probe closes the circuit again,
# and the tool re-enters routing at a 4x ramp that decays over successes.
clock.advance(10_000)
state.run_health_probe(clock, 180, True)
print("probe post-cooldown -> phase:", state.breaker.phase.value)
for step in range(6):
    print(f"  ramp step {step}: routed weight {state.recovery_weight(clock.now):.2f}")
    clock.advance(1000)
    state.record_call(clock, 180, True)
