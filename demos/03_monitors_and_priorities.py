#!/usr/bin/env python3
"""Three cheap monitors score every request from one fixed priority table;
the single highest-priority signal decides what the orchestrator pays
attention to.  No inference anywhere: keywords, thresholds and breaker
lookups only.  The risk thresholds are the only settings (MonitorConfig).
"""

from toolrouter import RequestContext, SimClock, ToolCalibration, ToolState, compete, run_all_monitors


def show(title, ctx):
    signals = run_all_monitors(ctx)
    winner = compete(signals)
    print(f"{title}")
    for s in signals:
        marker = "  <- wins" if s is winner else ""
        print(f"  {s.source:<12} {s.priority:.2f}{marker}")
    print()


# A routine refund: the intent classifier's keyword match leads.
show("routine refund:", RequestContext(text="please refund order 11", amount=120.0))

# A $15,000 refund: the risk detector (0.95) outbids intent (0.90).
show("high-value refund:", RequestContext(text="please refund order 99", amount=15_000.0))

# An open circuit breaker: tool health (0.99) outbids everything.
down = ToolState("stripe", ToolCalibration(trip_threshold=1))
down.record_call(SimClock(), 100, False)
show(
    "payment provider down:",
    RequestContext(text="please refund order 42", tool_states={"stripe": down}),
)
