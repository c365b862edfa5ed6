#!/usr/bin/env python3
"""Cost-weighted routing and automatic failover, step by step.

Builds the customer-support pipeline, routes through it, then knocks out
the primary payment and notification providers and watches the route heal.
"""

from toolrouter import INFINITE, build_topology
from toolrouter.topologies import START, TopologyKind

topo = build_topology(TopologyKind.LINEAR_PIPELINE)
graph = topo.fresh_graph()

# Healthy graph: the primary providers win because they are cheapest.
route = graph.shortest_path(START, "goal_refund")
print("healthy route:   ", " -> ".join(route.nodes), f"(cost {route.total_cost})")

# Take the primary payment provider down.  Its edges now count as infinite
# weight; the topology is untouched, so the backup path was there all along.
blocked_before = sum(e.effective_weight == INFINITE for e in graph.edges())
graph.quarantine_node("stripe")
changed = sum(e.effective_weight == INFINITE for e in graph.edges()) - blocked_before
route = graph.shortest_path(START, "goal_refund")
print(f"stripe down ({changed} edges to infinity):")
print("rerouted:        ", " -> ".join(route.nodes), f"(cost {route.total_cost})")

# A compound failure is the same single recomputation.
graph.quarantine_node("email")
route = graph.shortest_path(START, "goal_refund")
print("stripe+email down:")
print("rerouted:        ", " -> ".join(route.nodes), f"(cost {route.total_cost})")

# When recovery arrives, the quarantine lifts and the primaries win again.
graph.restore_node("stripe")
graph.restore_node("email")
route = graph.shortest_path(START, "goal_refund")
print("after recovery:  ", " -> ".join(route.nodes), f"(cost {route.total_cost})")

# No route at all is an explicit null, never a bad path.
graph.quarantine_node("crm")
print("lookup stage dead:", graph.shortest_path(START, "goal_refund"))
