from __future__ import annotations

import pytest

from work_counts import passes

# Short prefixes of the seed-3 corpora that ``tests/work_counts.py`` pins:
# (asked, computed, logged) per pass.  With the route memo keyed by the
# whole blocked set, paper_fuzz computed 505 then 306 here, long_session 30
# then 0.  Before each reasoner reply was logged as a consult event, logged
# read paper_fuzz 12,995, long_session 6,406 and wide_catalog 337.
PREFIX = {
    "paper_fuzz": (1_500, [(2_890, 240, 13_653), (2_890, 0, 13_653)]),
    "long_session": (900, [(1_267, 29, 6_533), (1_267, 0, 6_533)]),
    "wide_catalog": (20, [(44, 44, 339), (44, 44, 339)]),
}


@pytest.mark.parametrize("name", PREFIX)
def test_prefix_search_counts_match_the_pins(name):
    tasks, expected = PREFIX[name]
    assert passes(name, 3, tasks) == expected
