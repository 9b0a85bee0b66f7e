"""tests/pairs.py: the claim rule and its mirror over paired runs."""

from pairs import report

METRICS = [
    {"name": "rate", "better": "higher", "bound": 0.25},
    {"name": "latency", "better": "lower", "bound": 0.25},
]


def runs(rates, latencies):
    return [{"metrics": {"rate": {"value": r}, "latency": {"value": t}}} for r, t in zip(rates, latencies)]


def verdicts(parent, change):
    lines, worse = report(METRICS, parent, change)
    return [("holds" in line, "WORSE" in line) for line in lines], worse


def test_a_metric_is_worse_under_the_mirror_of_the_claim_rule():
    parent = runs([100, 101, 102, 103, 104, 105, 106, 107, 108, 109], [10] * 10)
    # rate: 10 of 10 pairs won by more than the parent's spread; latency:
    # 10 of 10 lost by more than the parent's spread, which is 0
    better = runs([120] * 10, [11] * 10)
    assert verdicts(parent, better) == ([(True, False), (False, True)], True)
    # rate lost in every pair, by less than the spread: not worse
    near = runs([r - 0.5 for r in range(100, 110)], [10] * 10)
    assert verdicts(parent, near) == ([(False, False), (False, False)], False)
    # lost by a wide margin in 8 of 10 pairs only: not worse
    eight = runs([80] * 8 + [200] * 2, [9] * 10)
    assert verdicts(parent, eight) == ([(False, False), (True, False)], False)
    # lost by a wide margin in 9 of 10 pairs: worse
    nine = runs([80] * 9 + [200], [10] * 10)
    assert verdicts(parent, nine) == ([(False, True), (False, False)], True)


def test_a_metric_is_past_its_bound_when_its_median_is_worse_by_more():
    parent = runs(range(100, 110), [10] * 10)  # rate median 104.5
    # rate lost in 8 of 10 pairs only, so the mirror does not hold; its
    # median is 20.0% worse, within the 25% bound
    within = runs([83.6] * 8 + [200] * 2, [10] * 10)
    lines, failed = report(METRICS, parent, within)
    assert ["within bound" in line for line in lines] == [True, True]
    assert not failed
    # 25.4% worse, past the bound, and that alone fails it
    past = runs([78] * 8 + [200] * 2, [10] * 10)
    lines, failed = report(METRICS, parent, past)
    assert [("WORSE" in line, "PAST BOUND" in line) for line in lines] == [(False, True), (False, False)]
    assert failed
