"""Hypothesis properties for the orchestration contract.

Executor choice, resume and store reuse lean on three invariants, so
they get property coverage rather than examples:

* shard planning is a **disjoint, complete partition** of the canonical
  run list, with stable run IDs — what makes store-first dispatch and
  resuming a killed campaign safe;
* the **spec hash** is invariant to dict key order (two processes
  building "the same" campaign agree on the store namespace) and
  sensitive to every parameter (no stale aliasing);
* **aggregation is index-ordered** no matter what order shard results
  arrive in — what makes worker count and pool scheduling jitter
  invisible in the output.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orchestrate import CampaignSpec, plan_shards, run_campaign_spec

STAGE_POOL = (
    "aw_stage_error",
    "w_stage_timeout",
    "wlast_bvalid_error",
    "b_handshake_ready_missing",
    "r_stage_timeout",
)

config_extras = st.dictionaries(
    st.sampled_from(("prescale_step", "max_uniq_ids", "budget", "sticky")),
    st.integers(0, 64),
    max_size=3,
)


@st.composite
def specs(draw):
    """Small synthetic campaign specs spanning both kinds and all axes."""
    n_configs = draw(st.integers(1, 3))
    configs = [
        {"variant": draw(st.sampled_from(("full", "tiny"))), "n": i,
         **draw(config_extras)}
        for i in range(n_configs)
    ]
    stages = list(
        draw(
            st.lists(
                st.sampled_from(STAGE_POOL), min_size=1, max_size=4, unique=True
            )
        )
    )
    return CampaignSpec(
        kind=draw(st.sampled_from(("ip", "system"))),
        configs=configs,
        stages=stages,
        beats=draw(st.integers(1, 250)),
        seeds=list(draw(st.lists(st.integers(0, 7), min_size=1, max_size=4,
                                 unique=True))),
        background=draw(st.integers(0, 3)),
        detect_timeout=draw(st.integers(1, 50_000)),
        recovery_timeout=draw(st.integers(1, 10_000)),
        harness_kwargs=draw(
            st.dictionaries(
                st.sampled_from(("sim_strategy", "sim_time_leaping", "x")),
                st.sampled_from(("dirty", "verify", True, False, 3)),
                max_size=2,
            )
        ),
    )


# ----------------------------------------------------------------------
# Shard planning: disjoint, complete, stable
# ----------------------------------------------------------------------
@given(specs(), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_shard_plan_is_disjoint_complete_partition(spec, shard_size):
    runs = spec.runs()
    shards = plan_shards(runs, shard_size=shard_size)
    # Complete and in canonical order once flattened…
    flattened = [run for shard in shards for run in shard.runs]
    assert flattened == runs
    # …disjoint (every run exactly once, by identity-bearing index)…
    indexes = [run.index for run in flattened]
    assert indexes == list(range(len(runs)))
    # …with a consistent self-describing plan.
    assert [shard.index for shard in shards] == list(range(len(shards)))
    assert all(shard.count == len(shards) for shard in shards)
    assert all(len(shard.runs) <= shard_size for shard in shards)


@given(specs())
@settings(max_examples=60, deadline=None)
def test_run_ids_stable_and_unique(spec):
    ids_a = [run.run_id for run in spec.runs()]
    ids_b = [run.run_id for run in spec.runs()]
    assert ids_a == ids_b
    assert len(set(ids_a)) == len(ids_a)


# ----------------------------------------------------------------------
# Spec hash: key-order invariant, parameter sensitive
# ----------------------------------------------------------------------
@given(specs())
@settings(max_examples=60, deadline=None)
def test_spec_hash_invariant_to_dict_key_order(spec):
    def reordered(mapping):
        return dict(reversed(list(mapping.items())))

    permuted = CampaignSpec(
        kind=spec.kind,
        configs=[reordered(config) for config in spec.configs],
        stages=list(spec.stages),
        beats=spec.beats,
        seeds=list(spec.seeds),
        background=spec.background,
        detect_timeout=spec.detect_timeout,
        recovery_timeout=spec.recovery_timeout,
        harness_kwargs=reordered(spec.harness_kwargs),
    )
    assert permuted.spec_hash() == spec.spec_hash()
    assert permuted.canonical_dict() == spec.canonical_dict()


MUTATIONS = {
    "kind": lambda d: d.update(kind="system" if d["kind"] == "ip" else "ip"),
    "configs": lambda d: d["configs"].append({"variant": "full", "mut": 1}),
    "config_value": lambda d: d["configs"][0].update(variant="mutated"),
    "stages": lambda d: d["stages"].append("mutated_stage"),
    "stage_order": lambda d: d["stages"].reverse(),
    "beats": lambda d: d.update(beats=d["beats"] + 1),
    "seeds": lambda d: d["seeds"].append(max(d["seeds"]) + 1),
    "background": lambda d: d.update(background=d["background"] + 1),
    "detect_timeout": lambda d: d.update(detect_timeout=d["detect_timeout"] + 1),
    "recovery_timeout": lambda d: d.update(
        recovery_timeout=d["recovery_timeout"] + 1
    ),
    "harness_kwargs": lambda d: d["harness_kwargs"].update(mutated=True),
}


@given(specs(), st.sampled_from(sorted(MUTATIONS)))
@settings(max_examples=80, deadline=None)
def test_spec_hash_sensitive_to_every_parameter(spec, field):
    mutated = spec.canonical_dict()
    MUTATIONS[field](mutated)
    if field == "stage_order" and len(mutated["stages"]) < 2:
        mutated["stages"].append("mutated_stage")  # order needs two entries
    remade = CampaignSpec(**mutated)
    assert remade.spec_hash() != spec.spec_hash()


# ----------------------------------------------------------------------
# Aggregation: arrival order is invisible
# ----------------------------------------------------------------------
@given(specs(), st.integers(1, 5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_aggregation_is_index_ordered_for_any_arrival_order(
    spec, shard_size, rng
):
    runs = spec.runs()
    shards = plan_shards(runs, shard_size=shard_size)

    class Scrambled:
        """Completes shards in a hypothesis-chosen order, results tagged."""

        def map(self, pending):
            order = list(pending)
            rng.shuffle(order)
            for shard in order:
                yield shard.index, [f"result-{run.index}" for run in shard.runs]

    ordered = run_campaign_spec(spec, executor=Scrambled())
    assert ordered == [f"result-{index}" for index in range(len(runs))]
