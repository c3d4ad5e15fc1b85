"""Campaign spec semantics: expansion, hashing, sharding, validation."""

import pytest

from repro.campaign import (
    CampaignError,
    CampaignSpec,
    CellSpec,
    DEFAULT_SHARD_SIZE,
)
from repro.core import deployed_strategy
from repro.runtime import trial_seed


def small_spec(shard_size=3):
    return CampaignSpec(
        name="unit",
        cells=[
            CellSpec.build("kazakhstan", "http", 11, trials=4, seed=7),
            CellSpec.build("kazakhstan", "http", None, trials=4, seed=9),
        ],
        shard_size=shard_size,
    )


class TestCellSpec:
    def test_seed_derivation_matches_success_rate(self):
        cell = CellSpec.build("china", "http", 1, trials=5, seed=42)
        specs = cell.trial_specs()
        assert [s.seed for s in specs] == [trial_seed(42, i) for i in range(5)]

    def test_strategy_number_resolves_to_deployed_dsl(self):
        cell = CellSpec.build("china", "http", 1)
        assert cell.server_strategy == str(deployed_strategy(1))

    def test_strategy_zero_and_none_mean_no_evasion(self):
        assert CellSpec.build("china", "http", 0).server_strategy is None
        assert CellSpec.build("china", "http", None).server_strategy is None

    def test_strategy_dsl_string_is_kept_verbatim(self):
        dsl = str(deployed_strategy(9))
        assert CellSpec.build("china", "http", dsl).server_strategy == dsl

    def test_bad_strategy_values_rejected(self):
        with pytest.raises(CampaignError):
            CellSpec.build("china", "http", 99)
        with pytest.raises(CampaignError):
            CellSpec.build("china", "http", "not a strategy [")
        with pytest.raises(CampaignError):
            CellSpec.build("china", "http", True)

    def test_unknown_country_and_protocol_rejected(self):
        with pytest.raises(CampaignError):
            CellSpec.build("narnia", "http")
        with pytest.raises(CampaignError):
            CellSpec.build("china", "gopher")

    def test_none_country_means_uncensored(self):
        cell = CellSpec.build(None, "http", trials=2)
        assert all(s.country is None for s in cell.trial_specs())

    def test_bad_trials_rejected(self):
        for trials in (0, -1, 1.5, True):
            with pytest.raises(CampaignError):
                CellSpec.build("china", "http", trials=trials)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(CampaignError, match="unknown cell keys"):
            CellSpec.from_dict({"protocol": "http", "sharding": 2})

    def test_from_dict_requires_protocol(self):
        with pytest.raises(CampaignError, match="protocol"):
            CellSpec.from_dict({"country": "china"})

    def test_net_seed_fans_out_per_trial(self):
        cell = CellSpec.build(
            "china", "http", 1, trials=3, impairment={"loss": 0.1}, net_seed=5
        )
        seeds = [s.options["net_seed"] for s in cell.trial_specs()]
        assert seeds == [trial_seed(5, i) for i in range(3)]
        assert len(set(seeds)) == 3


class TestCampaignSpec:
    def test_expansion_is_deterministic(self):
        a, b = small_spec(), small_spec()
        assert a.campaign_hash() == b.campaign_hash()
        assert [t.spec.spec_hash() for t in a.expand()] == [
            t.spec.spec_hash() for t in b.expand()
        ]

    def test_expansion_order_and_indices(self):
        trials = small_spec().expand()
        assert [t.index for t in trials] == list(range(8))
        assert [t.cell_index for t in trials] == [0] * 4 + [1] * 4

    def test_shard_chunking(self):
        shards = small_spec(shard_size=3).shards()
        assert [len(s.trials) for s in shards] == [3, 3, 2]
        assert [s.index for s in shards] == [0, 1, 2]

    def test_shards_partition_the_expansion_in_order(self):
        spec = small_spec()
        chunked = [t for shard in spec.shards() for t in shard.trials]
        assert chunked == spec.expand()
        assert spec.shards() == small_spec().shards()

    def test_round_trip_preserves_hash(self):
        spec = small_spec()
        again = CampaignSpec.from_dict(spec.as_dict())
        assert again.campaign_hash() == spec.campaign_hash()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(CampaignError):
            CampaignSpec.from_json("{not json")
        with pytest.raises(CampaignError):
            CampaignSpec.from_json('{"name": "x", "cells": []}')
        with pytest.raises(CampaignError, match="unknown campaign keys"):
            CampaignSpec.from_json(
                '{"name": "x", "cells": [{"protocol": "http"}], "shards": 2}'
            )

    def test_missing_spec_file(self, tmp_path):
        with pytest.raises(CampaignError):
            CampaignSpec.from_file(tmp_path / "nope.json")

    def test_campaign_level_validation(self):
        with pytest.raises(CampaignError):
            CampaignSpec(name="", cells=[CellSpec.build("china", "http")])
        with pytest.raises(CampaignError):
            CampaignSpec(
                name="x", cells=[CellSpec.build("china", "http")], shard_size=0
            )

    def test_default_shard_size(self):
        spec = CampaignSpec(name="x", cells=[CellSpec.build("china", "http")])
        assert spec.shard_size == DEFAULT_SHARD_SIZE


class TestSelectShards:
    def test_round_robin_partition(self):
        spec = small_spec(shard_size=2)
        shards = spec.shards()
        first = spec.select_shards(shards, 1, 2)
        second = spec.select_shards(shards, 2, 2)
        assert [s.index for s in first] == [0, 2]
        assert [s.index for s in second] == [1, 3]
        assert {s.index for s in first} | {s.index for s in second} == {0, 1, 2, 3}

    def test_single_machine_gets_everything(self):
        spec = small_spec()
        shards = spec.shards()
        assert spec.select_shards(shards, 1, 1) == shards

    def test_bad_selectors_rejected(self):
        spec = small_spec()
        shards = spec.shards()
        for index, count in ((0, 4), (5, 4), (1, 0), (-1, 2)):
            with pytest.raises(CampaignError):
                spec.select_shards(shards, index, count)
