"""Tests for the benchmark harness's own arithmetic and schema checks.

``bench/`` is the repo's only performance ruler; its quartile/noise
math decides whether a PR "regressed" and its contract checks decide
whether a run counts at all, so both are pinned here on hand-computed
inputs.  Nothing is timed and no workload runs.
"""

import copy
import json

import pytest

from bench import contract
from bench.stats import midmean, quartiles, spread, verdict, worsening


class TestStatistics:
    def test_quartiles_interpolate_between_samples(self):
        # exclusive method: q_k sits at position k * (n + 1) / 4
        assert quartiles([1, 2, 3, 4, 5, 6, 7, 8]) == (2.25, 4.5, 6.75)

    def test_quartiles_of_one_sample_collapse(self):
        assert quartiles([5]) == (5.0, 5.0, 5.0)

    def test_spread_is_interquartile_distance_over_median(self):
        assert spread([1, 2, 3, 4, 5, 6, 7, 8]) == pytest.approx(1.0)
        assert spread([10, 10, 10, 10]) == 0.0
        assert spread([0, 0, 0]) == 0.0  # zero median: no division

    def test_midmean_ignores_the_outer_quarters(self):
        assert midmean([1, 2, 3, 4, 5, 6, 7, 8]) == 4.5
        assert midmean([8, 1000, 3, 5, 4, 6, 2, -50]) == 4.5

    def test_worsening_sign_follows_direction(self):
        assert worsening(100, 110, "lower") == pytest.approx(0.1)
        assert worsening(100, 110, "higher") == pytest.approx(-0.1)
        assert worsening(100, 90, "higher") == pytest.approx(0.1)
        assert worsening(0, 5, "lower") == 0.0


class TestVerdict:
    BASE = [10.0, 10.1, 9.9, 10.0]

    def label(self, new, *, base=None, better="lower", bound=0.25, noise=0.02):
        return verdict(base or self.BASE, new, better, bound, noise)[0]

    def test_improved_when_every_run_wins_by_more_than_noise(self):
        assert self.label([8.0, 8.1, 7.9, 8.0]) == "improved"
        assert self.label([12.0, 12.1, 11.9, 12.0], better="higher") == "improved"

    def test_improved_needs_four_runs_a_side(self):
        assert self.label([8.0, 8.1, 7.9], base=self.BASE[:3]) == "unchanged"

    def test_one_overlapping_run_is_not_an_improvement(self):
        assert self.label([8.0, 8.1, 7.9, 9.95]) == "unchanged"

    def test_unchanged_within_bound(self):
        label, worse = verdict(self.BASE, [10.5] * 4, "lower", 0.25, 0.02)
        assert label == "unchanged"
        assert worse == pytest.approx(0.05)

    def test_regressed_beyond_bound_in_either_direction(self):
        assert self.label([13.0] * 4) == "regressed"
        assert self.label([7.0] * 4, better="higher") == "regressed"

    def test_noise_wider_than_bound_is_unresolved_not_unchanged(self):
        assert self.label([10.2] * 4, noise=0.4) == "unresolved"
        assert self.label([13.0] * 4, noise=0.4) == "unresolved"

    def test_noisy_row_resolves_when_every_new_run_beats_every_base_run(self):
        assert self.label([4.0, 5.0, 4.5, 4.0], noise=0.4) == "improved"


class TestContract:
    def test_committed_benchmark_json_is_valid(self):
        assert contract.validate_benchmark(contract.load()) == []

    def test_missing_top_level_key_is_reported(self):
        doc = contract.load()
        del doc["run_seconds"]
        assert contract.validate_benchmark(doc)

    def test_duplicate_metric_name_is_reported(self):
        doc = contract.load()
        doc["per_layer"].append(copy.deepcopy(doc["per_layer"][0]))
        assert contract.validate_benchmark(doc) == ["every name is used once"]

    def result_line(self, metrics):
        return json.dumps(
            {
                "correct": True,
                "attempted": 3,
                "failed": 0,
                "metrics": {
                    m["name"]: {"value": 1.5, "unit": m["unit"]} for m in metrics
                },
            }
        )

    def test_well_formed_result_line_is_accepted(self):
        metrics = contract.load()["end_to_end"]
        assert contract.validate_result(self.result_line(metrics), metrics, True) == []

    def test_result_line_missing_a_metric_is_rejected(self):
        metrics = contract.load()["end_to_end"]
        problems = contract.validate_result(
            self.result_line(metrics[1:]), metrics, True
        )
        assert len(problems) == 1
        assert metrics[0]["name"] in problems[0]
