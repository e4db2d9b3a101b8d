"""Hypothesis properties for the metrics registry merge.

Shards execute in many places (pool worker processes, batch packs),
each of which may tally into its own registry; a caller folds them
together.  The merge contract that makes that distribution
invisible: **splitting a stream of observations across registries and
merging equals observing the whole stream in one registry** — for
counters and histograms exactly, and for gauges under last-write-wins
(the merge order is the observation order).

Merge must also be associative-by-fold: folding shard registries one
at a time equals folding them in one pass, which is how the engine
actually accumulates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import MetricsRegistry

BOUNDS = (0.01, 0.1, 1.0, 10.0)

# One observation: (kind, metric name, value).
observations = st.one_of(
    st.tuples(
        st.just("counter"),
        st.sampled_from(("runs", "hits", "misses")),
        st.integers(0, 100),
    ),
    st.tuples(
        st.just("gauge"),
        st.sampled_from(("workers", "depth")),
        st.floats(-1e6, 1e6, allow_nan=False),
    ),
    st.tuples(
        st.just("histogram"),
        st.sampled_from(("shard_s", "beat_s")),
        # Integral values sum exactly in floating point, so the split
        # and whole streams accumulate identical histogram sums no
        # matter the association order.
        st.integers(0, 10_000).map(float),
    ),
)


def observe(registry, stream):
    for kind, name, value in stream:
        if kind == "counter":
            registry.counter(name).inc(value)
        elif kind == "gauge":
            registry.gauge(name).set(value)
        else:
            registry.histogram(name, bounds=BOUNDS).observe(value)


@given(
    stream=st.lists(observations, max_size=60),
    cuts=st.lists(st.integers(0, 60), max_size=4),
)
@settings(max_examples=100)
def test_split_then_merge_equals_observe_in_one(stream, cuts):
    whole = MetricsRegistry()
    observe(whole, stream)

    # Split the stream at the (sorted, clamped) cut points.
    points = sorted({min(cut, len(stream)) for cut in cuts})
    pieces, start = [], 0
    for point in points + [len(stream)]:
        pieces.append(stream[start:point])
        start = point

    merged = MetricsRegistry()
    for piece in pieces:
        shard = MetricsRegistry()
        observe(shard, piece)
        merged.merge(shard)
    assert merged.to_dict() == whole.to_dict()


@given(stream=st.lists(observations, max_size=40), halves=st.integers(0, 40))
@settings(max_examples=60)
def test_fold_is_single_pass_equivalent(stream, halves):
    cut = min(halves, len(stream))
    left, right = MetricsRegistry(), MetricsRegistry()
    observe(left, stream[:cut])
    observe(right, stream[cut:])

    one_pass = MetricsRegistry()
    observe(one_pass, stream)
    assert left.merge(right).to_dict() == one_pass.to_dict()


@given(stream=st.lists(observations, max_size=40))
@settings(max_examples=60)
def test_round_trip_through_dict_preserves_merge_inputs(stream):
    """from_dict(to_dict(r)) merges identically to r itself — what the
    cached-shard path relies on when telemetry is rebuilt from JSON."""
    registry = MetricsRegistry()
    observe(registry, stream)
    revived = MetricsRegistry.from_dict(registry.to_dict())

    base_a = MetricsRegistry()
    base_b = MetricsRegistry()
    assert (
        base_a.merge(registry).to_dict() == base_b.merge(revived).to_dict()
    )
