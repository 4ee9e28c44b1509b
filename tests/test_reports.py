"""Time-bucketed counts, keyword tables, SVG chart emission."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from datetime import datetime, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import reference_parse_timestamp, reference_timeseries
from tcm_stance.corpus import format_timestamp
from tcm_stance.evaluation import compute_metrics
from tcm_stance.features import SelectedTerm, FeatureSet, TermStats, select_features
from tcm_stance.reports import (
    GRANULARITIES,
    TimeBucket,
    keyword_report,
    keywords_csv_rows,
    svg_line_chart,
    sweep_chart,
    timeseries,
    timeseries_chart,
    timeseries_csv_rows,
)
from tcm_stance.stance import Stance

S, O = Stance.SUPPORTING, Stance.OPPOSING


def at(year, month, day=5):
    return f"{year:04d}-{month:02d}-{day:02d}T10:30:00"


def texts(items):
    """(datetime, stance) pairs as the (timestamp text, stance) pairs of records."""
    return [(format_timestamp(ts), stance) for ts, stance in items]


def test_timeseries_fills_month_gaps():
    items = [(at(2013, 1), S), (at(2013, 3), O), (at(2013, 3), S), (at(2013, 1), S)]
    buckets = timeseries(items, "month")
    assert buckets == [
        TimeBucket("2013-01", 2, 0),
        TimeBucket("2013-02", 0, 0),
        TimeBucket("2013-03", 1, 1),
    ]


def test_timeseries_zero_pads_years_below_1000():
    items = [("0999-12-31T23:00:00", S), ("1000-01-01T00:00:00", O)]
    assert timeseries(items, "month") == [TimeBucket("0999-12", 1, 0), TimeBucket("1000-01", 0, 1)]
    assert timeseries(items, "day") == [
        TimeBucket("0999-12-31", 1, 0),
        TimeBucket("1000-01-01", 0, 1),
    ]


def test_timeseries_day_granularity():
    items = [("2013-02-27T00:00:00", S), ("2013-03-01T00:00:00", O)]
    buckets = timeseries(items, "day")
    assert [b.period for b in buckets] == ["2013-02-27", "2013-02-28", "2013-03-01"]
    # the last representable day is a bucket too
    last = [("9999-12-30T00:00:00", S), ("9999-12-31T23:59:59", O)]
    assert timeseries(last, "day") == [TimeBucket("9999-12-30", 1, 0),
                                       TimeBucket("9999-12-31", 0, 1)]


def test_timeseries_empty_and_bad_granularity():
    assert timeseries([], "month") == []
    with pytest.raises(ValueError):
        timeseries([], "hour")


@given(st.lists(
    st.tuples(
        st.datetimes(min_value=datetime(2013, 1, 1), max_value=datetime(2013, 12, 31)),
        st.sampled_from([S, O]),
    ),
    max_size=60,
))
def test_timeseries_conserves_counts(items):
    buckets = timeseries(texts(items), "month")
    total = sum(b.count_support + b.count_oppose for b in buckets)
    assert total == len(items)
    assert [b.period for b in buckets] == sorted(b.period for b in buckets)


# anchors at years below 1000, year ends and 29 February, plus the extremes
_ANCHORS = [
    datetime(1, 1, 1), datetime(4, 2, 29, 12), datetime(999, 12, 31, 23, 59, 59),
    datetime(1000, 1, 1), datetime(1900, 2, 28, 23), datetime(2000, 2, 29),
    datetime(2012, 12, 31, 23, 59), datetime(9999, 12, 31, 23, 59, 59),
]


@st.composite
def dated_stances(draw):
    """Timestamps within 400 days of one anchor, so day buckets stay few."""
    anchor = draw(st.one_of(st.sampled_from(_ANCHORS), st.datetimes()))
    offsets = st.integers(-400 * 86400, 400 * 86400)
    items = []
    for offset, stance in draw(st.lists(st.tuples(offsets, st.sampled_from([S, O])),
                                        max_size=40)):
        try:
            items.append((anchor + timedelta(seconds=offset), stance))
        except OverflowError:  # past year 1 or 9999
            pass
    return items


@given(dated_stances(), st.sampled_from(GRANULARITIES))
def test_timeseries_matches_the_string_keyed_reference(items, granularity):
    items = texts(items)
    buckets = timeseries(items, granularity)
    assert [(b.period, b.count_support, b.count_oppose) for b in buckets] == (
        reference_timeseries([(reference_parse_timestamp(text), stance) for text, stance in items],
                             granularity))


def test_timeseries_csv_uses_log_counts():
    rows = timeseries_csv_rows([TimeBucket("2013-01", 1000, 0), TimeBucket("2013-02", 1, 10)])
    assert rows == [
        ["period", "count_support", "count_oppose", "log10_support", "log10_oppose"],
        ["2013-01", "1000", "0", "3.0000", ""],
        ["2013-02", "1", "10", "0.0000", "1.0000"],
    ]


def _feature_set():
    stats = [
        TermStats("疗效", 10, 5, 0, 5, 5),
        TermStats("骗局", 10, 0, 5, 5, 5),
        TermStats("经验", 10, 4, 1, 5, 5),
        TermStats("伪科学", 10, 1, 4, 5, 5),
    ]
    return select_features(stats, 4)


def test_keyword_report_splits_by_direction():
    support, oppose = keyword_report(_feature_set(), top_n=10)
    assert [t.term for t in support] == ["疗效", "经验"]
    assert [t.term for t in oppose] == ["骗局", "伪科学"]
    support, oppose = keyword_report(_feature_set(), top_n=1)
    assert [t.term for t in support] == ["疗效"]
    assert [t.term for t in oppose] == ["骗局"]
    with pytest.raises(ValueError):
        keyword_report(_feature_set(), top_n=0)


def test_keywords_csv_shape():
    support, oppose = keyword_report(_feature_set(), top_n=2)
    rows = keywords_csv_rows(support, oppose)
    assert rows[0] == ["class", "rank", "term", "score"]
    assert rows[1][:3] == ["support", "1", "疗效"]
    assert rows[3][:3] == ["oppose", "1", "骗局"]
    assert len(rows) == 5


SERIES = [("support", [(0.0, 1.0), (1.0, 3.0)]), ("oppose", [(0.0, 2.0), (1.0, 1.0)])]


def test_svg_chart_is_valid_xml_and_deterministic():
    svg = svg_line_chart(SERIES, title="demo", x_label="x", y_label="y")
    assert svg == svg_line_chart(SERIES, title="demo", x_label="x", y_label="y")
    assert svg.startswith("<svg")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == len(SERIES)


def test_svg_chart_escapes_labels():
    svg = svg_line_chart(SERIES, title="a<b> & c", x_label="x<y", y_label="p & q")
    assert "a&lt;b&gt; &amp; c" in svg
    assert ">x&lt;y</text>" in svg
    assert ">p &amp; q</text>" in svg
    ET.fromstring(svg)


def test_timeseries_chart_smoke():
    buckets = [TimeBucket("2013-01", 5, 1), TimeBucket("2013-02", 0, 2)]
    svg = timeseries_chart(buckets)
    ET.fromstring(svg)
    assert "2013-01" in svg
    assert "support" in svg and "oppose" in svg


def test_sweep_chart_smoke():
    report = compute_metrics([(S, S), (O, O), (S, O)])
    svg = sweep_chart([(0.1, report), (0.5, report)], axis="wi")
    ET.fromstring(svg)
    assert "micro" in svg
