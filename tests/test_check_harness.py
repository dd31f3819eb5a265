"""The conformance harness itself: scenarios, generator, oracles,
shrinker, campaign driver, and the mutation self-check.

The self-check is the harness's own acceptance test: seed a
mis-attribution bug of exactly the kind the paper ascribes to the
baseline profilers (collateral joules inflated behind the reporting
API), and demonstrate the differential oracle catches it, the shrinker
reduces the failing scenario to a handful of ops, and the corpus entry
it writes replays.
"""

import hashlib
import json

import pytest

from repro.check import (
    CampaignConfig,
    METAMORPHIC_ORACLES,
    OP_KINDS,
    Op,
    Scenario,
    fuzz_packages,
    generate_scenario,
    load_corpus_entry,
    oracle_predicate,
    run_campaign,
    run_scenario,
    scenario_seeds,
    shrink,
    write_corpus_entry,
)
from repro.check.campaign import _batches
from repro.core.accounting import EAndroidAccounting


# ----------------------------------------------------------------------
# scenario scripts
# ----------------------------------------------------------------------
class TestScenarioScripts:
    def test_json_round_trip(self):
        scenario = generate_scenario(7, ops=25)
        again = Scenario.from_json(scenario.to_json())
        assert again == scenario
        assert again.script_hash() == scenario.script_hash()

    def test_script_hash_is_canonical(self):
        scenario = generate_scenario(7, ops=25)
        # Hash covers the ops, not incidental dict ordering.
        reparsed = Scenario.from_dict(
            json.loads(json.dumps(scenario.to_dict(), sort_keys=False))
        )
        assert reparsed.script_hash() == scenario.script_hash()

    def test_script_hash_changes_with_ops(self):
        a = generate_scenario(7, ops=25)
        b = a.without_ops(2, 3)
        assert a.script_hash() != b.script_hash()

    def test_unknown_op_kind_rejected(self):
        with pytest.raises(ValueError):
            Op(kind="reboot", args={})

    def test_generator_is_deterministic(self):
        a = generate_scenario(1234, ops=40)
        b = generate_scenario(1234, ops=40)
        assert a == b
        assert generate_scenario(1235, ops=40) != a

    @pytest.mark.parametrize(
        "seed,ops,packages,length,digest",
        [
            (1, 40, 3, 49,
             "ffe2ee37bc7ea014537a3e747fc8d4497e6427cdbed89b82bd4d3fd351a931a3"),
            (7, 200, 5, 210,
             "2e38fde432e91535abe602a00816ee1930167243782e02250bbf11645b7cd51f"),
            (1600, 800, 3, 805,
             "58e0c8090440f22f8697726b52a0cc3aa54274ce01e098734657e410ef858826"),
        ],
    )
    def test_generated_scripts_are_pinned(self, seed, ops, packages, length, digest):
        # SHA-256 of the script JSON; a change to how ops are drawn that
        # moves the RNG stream shows up here.
        scenario = generate_scenario(seed, ops=ops, packages=packages)
        assert len(scenario.ops) == length
        text = scenario.to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_generated_ops_are_valid_kinds(self):
        scenario = generate_scenario(99, ops=40)
        assert all(op.kind in OP_KINDS for op in scenario.ops)

    def test_blocks_partition_the_script(self):
        scenario = generate_scenario(7, ops=40)
        blocks = scenario.blocks()
        flattened = list(scenario.ops[: scenario.preamble_len])
        for block in blocks:
            flattened.extend(block)
        assert flattened == list(scenario.ops)
        # Every block ends in the quiesce that makes permutation sound.
        assert all(block[-1].kind == "quiesce" for block in blocks)

    def test_permuted_reorders_blocks(self):
        scenario = generate_scenario(7, ops=40)
        order = list(range(len(scenario.block_lens)))[::-1]
        permuted = scenario.permuted(order)
        assert sorted(permuted.block_lens) == sorted(scenario.block_lens)
        assert len(permuted.ops) == len(scenario.ops)
        assert permuted.blocks() == [scenario.blocks()[i] for i in order]

    def test_dilated_scales_time_args_only(self):
        from repro.check.scenario import _TIME_ARGS

        scenario = generate_scenario(7, ops=40)
        dilated = scenario.dilated(2.0)
        for before, after in zip(scenario.ops, dilated.ops):
            assert before.kind == after.kind
            for key, value in before.args.items():
                if key == _TIME_ARGS.get(before.kind):
                    assert after.args[key] == pytest.approx(2.0 * value)
                else:
                    assert after.args[key] == value

    def test_fuzz_packages(self):
        assert list(fuzz_packages(2)) == ["com.fuzz.app0", "com.fuzz.app1"]


# ----------------------------------------------------------------------
# runner + oracles on healthy code
# ----------------------------------------------------------------------
class TestHealthyScenarios:
    @pytest.mark.parametrize("seed", [7, 11, 42])
    def test_all_oracles_pass(self, seed):
        report = run_scenario(
            generate_scenario(seed, ops=40), metamorphic=True
        )
        assert report.passed, "\n".join(str(v) for v in report.violations)

    def test_verdict_shape(self):
        scenario = generate_scenario(7, ops=40)
        verdict = run_scenario(scenario, metamorphic=False).to_verdict()
        assert verdict["seed"] == 7
        assert verdict["script_hash"] == scenario.script_hash()
        assert verdict["ok"] is True
        assert verdict["violations"] == []
        json.dumps(verdict)  # must be JSON-ready


# ----------------------------------------------------------------------
# campaign driver
# ----------------------------------------------------------------------
class TestCampaign:
    def test_scenario_seeds_are_stable(self):
        assert scenario_seeds(7, 3) == scenario_seeds(7, 5)[:3]
        assert len(set(scenario_seeds(7, 100))) == 100

    def test_batches_cover_all_seeds(self):
        seeds = scenario_seeds(7, 120)
        batches = _batches(seeds, jobs=4)
        assert [s for batch in batches for s in batch] == seeds
        assert len(batches) >= 4

    def test_small_campaign_passes_and_caches(self, tmp_path):
        config = CampaignConfig(
            fuzz=4,
            seed=7,
            jobs=1,
            ops=20,
            metamorphic=False,
            cache_dir=str(tmp_path / "cache"),
            save_dir=str(tmp_path / "out"),
        )
        report = run_campaign(config)
        assert report.passed
        assert len(report.verdicts) == 4
        bench = json.loads((tmp_path / "out" / "BENCH_fuzz.json").read_text())
        assert bench["scenarios"] == 4
        assert bench["failed"] == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        # Second run replays entirely from the on-disk cache.
        again = run_campaign(config)
        assert again.verdicts == report.verdicts
        assert again.cache_stats.get("hits", 0) >= 1


# ----------------------------------------------------------------------
# mutation self-check
# ----------------------------------------------------------------------
@pytest.fixture()
def misattribution_mutant(monkeypatch):
    """Inflate every reported collateral charge by 50%.

    A mis-attribution bug behind the reporting API: the raw charge
    windows stay truthful, the reported breakdown lies — the exact shape
    the differential oracle's independent window recomputation exists to
    catch.
    """
    original = EAndroidAccounting.collateral_breakdown

    def mutant(self, host, *args, **kwargs):
        return {
            target: joules * 1.5
            for target, joules in original(self, host, *args, **kwargs).items()
        }

    monkeypatch.setattr(EAndroidAccounting, "collateral_breakdown", mutant)
    return original


class TestMutationSelfCheck:
    def test_differential_oracle_catches_and_shrinks(
        self, misattribution_mutant, tmp_path, monkeypatch
    ):
        scenario = generate_scenario(11, ops=40)
        report = run_scenario(scenario, metamorphic=False)
        assert "differential" in report.violated_oracles()

        minimal = shrink(
            scenario, oracle_predicate(["differential"]), max_probes=200
        )
        assert len(minimal.ops) <= 10
        final = run_scenario(minimal, metamorphic=False)
        assert "differential" in final.violated_oracles()

        entry = write_corpus_entry(
            tmp_path / "corpus",
            minimal,
            oracles=["differential"],
            violations=[v.to_dict() for v in final.violations],
            original_ops=len(scenario.ops),
        )
        document = load_corpus_entry(entry.path)
        replayed = Scenario.from_dict(document["scenario"])
        assert replayed == minimal
        # Replay under the mutant still fails ...
        assert not run_scenario(replayed, metamorphic=False).passed
        # ... and on healthy code the same script passes.
        monkeypatch.setattr(
            EAndroidAccounting, "collateral_breakdown", misattribution_mutant
        )
        assert run_scenario(replayed, metamorphic=False).passed

    def test_differential_catches_screen_given_to_wrong_uid(self, monkeypatch):
        # The PowerTutor rule is shared by the live profiler and the
        # offline analyzer, so only the oracle's own walk of the
        # foreground timeline can tell when it blames the wrong app.
        from repro.accounting import attribution
        from repro.check.oracles import differential_reconciliation
        from repro.core import attach_eandroid

        from helpers import booted_system, make_app

        system = booted_system(make_app("com.alpha"), make_app("com.beta"))
        ea = attach_eandroid(system)
        system.launch_app("com.alpha")
        system.run_for(10.0)
        system.launch_app("com.beta")
        system.run_for(10.0)
        assert differential_reconciliation(system, ea) == []

        beta = system.uid_of("com.beta")
        spans = attribution.foreground_spans

        def all_to_beta(foreground, start, end):
            for span_start, span_end, uid in spans(foreground, start, end):
                yield span_start, span_end, beta if uid is not None else None

        monkeypatch.setattr(attribution, "foreground_spans", all_to_beta)
        messages = [v.message for v in differential_reconciliation(system, ea)]
        assert any("PowerTutor row" in m for m in messages), messages

    def test_oracle_catalogue_names(self):
        # The docs/TESTING.md catalogue and the code must agree.
        from repro.check import END_ORACLES, STEP_ORACLES

        assert set(STEP_ORACLES) == {
            "energy_conservation",
            "map_link_consistency",
            "window_well_formedness",
            "no_over_charging",
            "profiler_conservation",
            "tracker_agreement",
        }
        assert set(END_ORACLES) == {"differential", "fastpath_equivalence"}
        assert set(METAMORPHIC_ORACLES) == {
            "observer_purity",
            "time_dilation",
            "window_permutation",
        }
