from __future__ import annotations

import pytest

from work_counts import passes

# Short prefixes of the seed-3 corpora that ``tests/work_counts.py`` pins:
# (asked, computed, settled, logged, sweeps, scans, calls, probes) per
# pass.  With the route memo keyed by the whole blocked set, paper_fuzz
# computed 505 then 306 here, long_session 30 then 0.  Before each reasoner
# reply was logged as a consult event, logged read paper_fuzz 12,995,
# long_session 6,406 and wide_catalog 337.
PREFIX = {
    "paper_fuzz": (
        1_500,
        [(2_890, 240, 1_130, 13_653, 8_057, 8_057, 4_325, 1_302), (2_890, 0, 0, 13_653, 8_057, 8_057, 4_325, 1_302)],
    ),
    "long_session": (
        900,
        [(1_267, 29, 147, 6_533, 4_937, 4_937, 2_897, 121), (1_267, 0, 0, 6_533, 4_937, 4_937, 2_897, 121)],
    ),
    "wide_catalog": (
        20,
        [(44, 44, 5_449, 339, 263, 263, 199, 21), (44, 44, 5_449, 339, 263, 263, 199, 21)],
    ),
}


@pytest.mark.parametrize("name", PREFIX)
def test_prefix_search_counts_match_the_pins(name):
    tasks, expected = PREFIX[name]
    assert passes(name, 3, tasks) == expected
