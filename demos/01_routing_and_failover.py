#!/usr/bin/env python3
"""Cost-weighted routing and automatic failover, step by step.

Builds the customer-support pipeline, routes through it, then knocks out
the primary payment and notification providers and watches the route heal.
"""

from toolrouter import build_topology
from toolrouter.topologies import START, TopologyKind

topo = build_topology(TopologyKind.LINEAR_PIPELINE)
graph = topo.fresh_graph()

# Healthy graph: the primary providers win because they are cheapest.
route = graph.shortest_path(START, "goal_refund")
print("healthy route:   ", " -> ".join(route.nodes), f"(cost {route.total_cost})")

# Take the primary payment provider down.  The task blocks it, so every edge
# touching it counts as infinite weight in the task's searches; the graph is
# untouched, so the backup path was there all along.
blocked = frozenset({"stripe"})
changed = sum("stripe" in (e.src, e.dst) for e in graph.edges())
route = graph.shortest_path(START, "goal_refund", (), blocked)
print(f"stripe down ({changed} edges to infinity):")
print("rerouted:        ", " -> ".join(route.nodes), f"(cost {route.total_cost})")

# A compound failure is the same single recomputation.
blocked |= {"email"}
route = graph.shortest_path(START, "goal_refund", (), blocked)
print("stripe+email down:")
print("rerouted:        ", " -> ".join(route.nodes), f"(cost {route.total_cost})")

# Quarantine belongs to the task: the next task starts with nothing blocked,
# so once the providers recover, the primaries win again.
route = graph.shortest_path(START, "goal_refund")
print("after recovery:  ", " -> ".join(route.nodes), f"(cost {route.total_cost})")

# No route at all is an explicit null, never a bad path.
print("lookup stage dead:", graph.shortest_path(START, "goal_refund", (), {"crm"}))
