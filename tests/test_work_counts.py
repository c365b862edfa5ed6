from __future__ import annotations

import pytest

from work_counts import passes

# Short prefixes of the seed-3 corpora that ``tests/work_counts.py`` pins:
# (asked, computed) searches per pass.  With the route memo keyed by the
# whole blocked set, paper_fuzz computed 505 then 306 here, long_session 30
# then 0.
PREFIX = {
    "paper_fuzz": (1_500, [(2_890, 240), (2_890, 0)]),
    "long_session": (900, [(1_267, 29), (1_267, 0)]),
    "wide_catalog": (20, [(44, 44), (44, 44)]),
}


@pytest.mark.parametrize("name", PREFIX)
def test_prefix_search_counts_match_the_pins(name):
    tasks, expected = PREFIX[name]
    assert passes(name, 3, tasks) == expected
