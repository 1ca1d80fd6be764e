"""The allocation-free row probe equals the reference row search.

``FirstLevelPredictor.first_hit_in_row`` scans the BTB1 and BTBP rows once
and builds a single ``RowHit``; ``hits_in_row`` builds, sorts and returns
every hit.  The search pipeline only ever uses the first, so the two must
agree on it for any first-level content: the same branch in both levels
(the BTB1 copy wins), aliasing rows of one congruence class (tag-matched
away), and probe points in the middle of a row (earlier branches skipped).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btb.btbp import WriteSource
from repro.btb.entry import BTBEntry
from repro.core.config import PredictorConfig
from repro.core.hierarchy import FirstLevelPredictor
from repro.isa.address import ROW_BYTES

#: Few rows and ways so congruence classes alias and rows fill up.
BTB1_ROWS = 4
BTBP_ROWS = 2
BASE = 0x40_0000

#: Rows probed and filled: two of each BTB1 congruence class, so every
#: row has an alias ``BTB1_ROWS`` rows away (which also aliases in the
#: smaller BTBP).
ROWS = [BASE + (index + alias * BTB1_ROWS) * ROW_BYTES
        for index in range(BTB1_ROWS) for alias in range(2)]

branch_address = st.builds(
    lambda row, offset: row + offset,
    st.sampled_from(ROWS),
    st.integers(0, ROW_BYTES // 2 - 1).map(lambda half: 2 * half),
)

#: ``(level, address)`` installs in order; level 2 writes both levels.
installs = st.lists(
    st.tuples(st.sampled_from([0, 1, 2]), branch_address), max_size=40
)


def _predictor() -> FirstLevelPredictor:
    return FirstLevelPredictor(PredictorConfig(
        btb1_rows=BTB1_ROWS, btb1_ways=3, btbp_rows=BTBP_ROWS, btbp_ways=3,
    ))


def _fill(predictor: FirstLevelPredictor, plan) -> None:
    for level, address in plan:
        if level in (0, 2):
            predictor.btb1.install(BTBEntry(address=address, target=BASE))
        if level in (1, 2):
            predictor.btbp.write(BTBEntry(address=address, target=BASE),
                                 WriteSource.SURPRISE)


def _same(hit, expected) -> bool:
    if hit is None or expected is None:
        return hit is expected
    return (hit.entry is expected.entry and hit.level is expected.level
            and hit.from_mru == expected.from_mru)


@settings(max_examples=300, deadline=None)
@given(plan=installs, probe=st.sampled_from(ROWS),
       offset=st.integers(0, ROW_BYTES - 1))
def test_first_hit_equals_first_of_hits_in_row(plan, probe, offset):
    predictor = _predictor()
    _fill(predictor, plan)
    address = probe + offset
    expected = (predictor.hits_in_row(address) or [None])[0]
    assert _same(predictor.first_hit_in_row(address), expected)


@settings(max_examples=100, deadline=None)
@given(plan=installs, address=branch_address)
def test_btb1_copy_wins_a_tie(plan, address):
    """A branch held by both levels is reported from the BTB1."""
    predictor = _predictor()
    _fill(predictor, plan)
    _fill(predictor, [(2, address)])
    hit = predictor.first_hit_in_row(address)
    assert hit.entry is predictor.btb1.lookup(address)
    assert _same(hit, predictor.hits_in_row(address)[0])


def test_btbp_hit_before_the_btb1_hit_wins():
    predictor = _predictor()
    row = ROWS[0]
    _fill(predictor, [(0, row + 20), (1, row + 8), (2, row + 30)])
    hit = predictor.first_hit_in_row(row + 4)
    assert hit.entry is predictor.btbp.lookup(row + 8)
    # Past it, the BTB1 entry is the first; past both, the shared one's
    # BTB1 copy; past the row's last branch, nothing.
    assert predictor.first_hit_in_row(row + 10).entry \
        is predictor.btb1.lookup(row + 20)
    assert predictor.first_hit_in_row(row + 22).entry \
        is predictor.btb1.lookup(row + 30)
    assert predictor.first_hit_in_row(row + 31) is None


def test_aliasing_row_is_tag_matched_away():
    """An entry of another row in the same congruence class never hits."""
    predictor = _predictor()
    alias = ROWS[0] + BTB1_ROWS * ROW_BYTES
    _fill(predictor, [(2, alias + 6)])
    assert predictor.first_hit_in_row(ROWS[0]) is None
    assert predictor.hits_in_row(ROWS[0]) == []
    assert predictor.first_hit_in_row(alias).entry.address == alias + 6
