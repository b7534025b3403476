"""compare: direction, bound, overlap and validity."""

from bench.compare import judge
from bench.metrics import metric_record

LOWER = {"name": "scan_visible_ms_p50", "unit": "ms", "better": "lower", "bound": 0.10}
HIGHER = {"name": "scans_per_s", "unit": "scans/s", "better": "higher", "bound": 0.10}


def record(value, per_rep, valid=True):
    return metric_record(value, "x", per_rep, valid=valid)


def test_within_the_bound_is_ok_in_either_direction():
    assert judge(LOWER, record(10, [10, 11]), record(10.9, [10.9, 11])) == "ok"
    assert judge(LOWER, record(10, [10, 11]), record(5, [5, 6])) == "ok"
    assert judge(HIGHER, record(10, [9, 10]), record(9.1, [9, 9.1])) == "ok"
    assert judge(HIGHER, record(10, [9, 10]), record(20, [19, 20])) == "ok"


def test_beyond_the_bound_with_separate_quartiles_is_worse():
    before = record(10, [10, 10.2, 10.4, 10.6])
    after = record(12, [12, 12.2, 12.4, 12.6])
    assert judge(LOWER, before, after) == "worse"
    assert judge(HIGHER, after, before) == "worse"


def test_beyond_the_bound_with_overlapping_quartiles_is_unresolved():
    before = record(10, [10, 11, 12, 13, 14])
    after = record(11.5, [11.5, 12, 12.5, 13, 13.5])
    assert judge(LOWER, before, after) == "unresolved"


def test_invalid_or_missing_reads_as_unresolved_never_ok():
    good = record(10, [10, 10])
    assert judge(LOWER, good, record(10, [10, 10], valid=False)) == "unresolved"
    assert judge(LOWER, None, good) == "unresolved"


def test_single_sample_metrics_cannot_hide_behind_overlap():
    exact = {"name": "map_agreement", "unit": "ratio", "better": "higher", "bound": 0.001}
    assert judge(exact, record(1.0, [1.0]), record(0.99, [0.99])) == "worse"
    assert judge(exact, record(1.0, [1.0]), record(1.0, [1.0])) == "ok"


def test_setup_has_an_absolute_floor():
    setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    assert judge(setup, record(0.07, [0.07]), record(0.2, [0.2])) == "ok"
    assert judge(setup, record(0.07, [0.07]), record(0.5, [0.5])) == "worse"
