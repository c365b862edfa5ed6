#!/usr/bin/env python3
"""Two cheap monitors, tool health and risk, score every request from one
fixed priority table; the single highest-priority signal decides what the
orchestrator pays attention to.  No inference anywhere: thresholds and
breaker lookups only.  The risk thresholds are the only settings
(MonitorConfig).
"""

from toolrouter import SimClock, ToolCalibration, ToolState, compete, run_all_monitors


def show(title, signals):
    winner = compete(signals)
    print(f"{title}")
    for s in signals:
        marker = "  <- wins" if s is winner else ""
        print(f"  {s.source:<12} {s.priority:.2f}{marker}")
    print()


# A routine refund: nothing to act on, so idle tool health (0.10) leads.
show("routine refund:", run_all_monitors({}, amount=120.0))

# A $15,000 refund: the risk detector (0.95) flags the amount.
show("high-value refund:", run_all_monitors({}, amount=15_000.0))

# An open circuit breaker: tool health (0.99) outbids everything.
down = ToolState("stripe", ToolCalibration(trip_threshold=1))
down.record_call(SimClock(), 100, False)
show("payment provider down:", run_all_monitors({"stripe": down}))
