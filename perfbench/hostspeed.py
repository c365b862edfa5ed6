"""Reference kernel that tracks how fast this host runs Python right now.

The machines this benchmark runs on drift between fast and slow phases
(1.5-2x apart, lasting seconds to minutes) that come from outside the
process.  Wall times of the same code then spread by 15-25% across 30 s
runs.  The benchmark times this kernel between blocks of tasks and reports
task times scaled to a host on which the kernel takes ``REFERENCE_MS``:

    adjusted = wall * REFERENCE_MS / kernel_ms   (kernel_ms averaged over ~1 s)

The kernel uses only the standard library and fixed inputs, never
toolrouter, so a change to toolrouter moves the adjusted time exactly as it
moves the wall time.  Its mix (object-heavy graph search, difflib, ast
walking, e-mail parsing) slows down with the host about as much as a
toolrouter task does: on paper_fuzz the log-log slope of task time on
kernel time across 1 s windows measured 0.97.  Ten 30 s runs per workload
spread 4-8% adjusted, against 15-25% raw.
"""

from __future__ import annotations

import ast
import difflib
import email
import email.policy
import heapq
import random
from dataclasses import dataclass
from time import perf_counter_ns

REFERENCE_MS = 2.0
SMOOTH_BLOCKS = 10  # kernel times are averaged over +-10 blocks of tasks (about 1 s)

_rng = random.Random(12345)
_NAMES = [f"node{i:03d}" for i in range(80)]
_EDGES = [
    (_NAMES[i], _NAMES[j], float(_rng.randint(1, 9)))
    for i in range(80)
    for j in (_rng.randrange(80) for _ in range(4))
    if i != j
]
_LINES_A = [f"line {i} alpha beta {i * 7 % 13}" for i in range(60)]
_LINES_B = [f"line {i} alpha gamma {i * 5 % 13}" for i in range(60)]
_TREE = ast.parse(
    """
def f(x, y):
    total = 0
    for i in range(x):
        if i % 3 == 0 and y:
            total += i * y
        else:
            total -= 1
    return {"total": total, "items": [i for i in range(5)]}
class K:
    def m(self, a, b=2, *c, **d):
        return a + b
"""
    * 3
)
_MESSAGE = (
    "From: a@example.com\nTo: b@example.com\nSubject: hello there\n"
    "Content-Type: text/plain\n\n" + "body line\n" * 20
)


@dataclass
class _Edge:
    src: str
    dst: str
    weight: float


def _search() -> int:
    out = {n: set() for n in _NAMES}
    edges = {}
    for src, dst, w in _EDGES:
        edges[(src, dst)] = _Edge(src, dst, w)
        out[src].add(dst)
    dist = {_NAMES[0]: 0.0}
    heap = [(0.0, _NAMES[0])]
    settled = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for nxt in sorted(out[node]):
            cand = d + edges[(node, nxt)].weight
            if cand < dist.get(nxt, 1e18):
                dist[nxt] = cand
                heapq.heappush(heap, (cand, nxt))
    events = [{"t_ms": i, "node": n, "ok": i % 3 != 0} for i, n in enumerate(_NAMES)]
    return len(dist) + sum(e["ok"] for e in events)


def _kernel() -> int:
    n = len(difflib.SequenceMatcher(None, _LINES_A, _LINES_B).get_opcodes())
    n += sum(1 for _ in ast.walk(_TREE))
    n += len(email.message_from_string(_MESSAGE, policy=email.policy.default)["Subject"])
    return n + _search() + _search()


def kernel_ms() -> float:
    """Wall time of one pass of the reference kernel, in ms."""
    t0 = perf_counter_ns()
    _kernel()
    return (perf_counter_ns() - t0) / 1e6


def smoothed(samples: list[float]) -> list[float]:
    """Centred moving mean of ``samples`` over up to 2*SMOOTH_BLOCKS+1 points."""
    prefix = [0.0]
    for s in samples:
        prefix.append(prefix[-1] + s)
    out = []
    for i in range(len(samples)):
        lo, hi = max(0, i - SMOOTH_BLOCKS), min(len(samples), i + SMOOTH_BLOCKS + 1)
        out.append((prefix[hi] - prefix[lo]) / (hi - lo))
    return out
