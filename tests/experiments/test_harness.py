"""Tests for the experiment harness (registry, formatting, CLI)."""

import pytest

from repro.experiments import (
    ExperimentResult,
    available_experiments,
    format_table,
    geometric_mean,
    run_experiment,
)
from repro.experiments.__main__ import main as cli_main


ALL_IDS = [f"E{i}" for i in range(1, 21)] + ["A1", "A2", "A3"]


def test_all_design_experiments_registered():
    registered = available_experiments()
    for experiment_id in ALL_IDS:
        assert experiment_id in registered, (
            f"{experiment_id} from DESIGN.md is not registered"
        )


def test_run_unknown_experiment():
    with pytest.raises(KeyError):
        run_experiment("E99")


def test_run_unknown_experiment_message_lists_available():
    with pytest.raises(KeyError) as excinfo:
        run_experiment("nope")
    message = str(excinfo.value)
    assert "unknown experiment 'nope'" in message
    assert "available" in message


def test_register_duplicate_id_raises():
    from repro.experiments.harness import _REGISTRY, _TITLES, register

    def runner():
        raise AssertionError("runner must never execute")

    register("ZZ_DUP", "duplicate-registration probe")(runner)
    try:
        with pytest.raises(ValueError, match="registered twice"):
            register("ZZ_DUP", "duplicate-registration probe")(runner)
    finally:
        _REGISTRY.pop("ZZ_DUP", None)
        _TITLES.pop("ZZ_DUP", None)


def test_result_column_extraction():
    result = ExperimentResult(
        "EX", "demo", ["a", "b"],
        [{"a": 1, "b": 2.0}, {"a": 3, "b": 4.0}],
    )
    assert result.column("a") == [1, 3]
    with pytest.raises(KeyError):
        result.column("c")


def test_format_table_contains_data():
    result = ExperimentResult(
        "EX", "demo", ["name", "value"],
        [{"name": "row1", "value": 1.23456}],
        notes="a note",
    )
    text = format_table(result)
    assert "EX: demo" in text
    assert "row1" in text
    assert "1.235" in text
    assert "a note" in text


def test_format_table_empty_rows():
    result = ExperimentResult("EX", "demo", ["a"], [])
    assert "EX" in format_table(result)


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([2.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        geometric_mean([])


def test_cli_lists_experiments(capsys):
    assert cli_main([]) == 0
    out = capsys.readouterr().out
    for experiment_id in ALL_IDS:
        assert experiment_id in out


def test_cli_rejects_unknown(capsys):
    assert cli_main(["E99"]) == 2


def test_small_experiment_end_to_end():
    """E1 at tiny scale runs through the registry and has the right
    schema."""
    result = run_experiment("E1", qubit_range=(2, 3), depth=2, repeats=1)
    assert result.experiment_id == "E1"
    assert result.column("qubits") == [2, 3]
    assert all(s > 0 for s in result.column("seconds_per_run"))


def test_e4_smoke():
    result = run_experiment("E4", qubit_range=(2, 3), depth=1,
                            num_samples=5, seed=0)
    assert len(result.rows) == 2
    assert all(v >= 0 for v in result.column("gradient_variance"))


def test_e12_smoke():
    result = run_experiment("E12", depths=(1,), num_spins=4, instances=1,
                            seed=0)
    assert 0.0 <= result.rows[0]["approximation_ratio"] <= 1.0


def test_e14_smoke():
    result = run_experiment("E14", cluster_sizes=(3,), num_reads=5,
                            num_sweeps=50, seed=0)
    assert 0.0 <= result.rows[0]["sa_hit_rate"] <= 1.0


def test_e6_scores_zero_outputs_as_ties():
    # From rate 0.1 on every depolarized <Z_0> is zero up to float
    # rounding; each such tie counts half, so those rows read chance.
    result = run_experiment("E6")
    accuracy = dict(zip(result.column("error_rate"),
                        result.column("accuracy")))
    assert accuracy[0.1] == accuracy[0.2] == 0.5
    assert [accuracy[rate] for rate in (0.0, 0.01, 0.03, 0.05)] == [0.85] * 4


def test_e9_smoke():
    result = run_experiment("E9", query_counts=(3,), instances_per_cell=1,
                            seed=0)
    assert result.rows[0]["annealed_vs_exact"] >= 1.0 - 1e-9


def test_e11_smoke():
    result = run_experiment("E11", transaction_counts=(5,),
                            conflict_levels=(8,), seed=0)
    assert result.rows[0]["annealed_valid"]


def test_weak_strong_instance_structure():
    from repro.annealing import solve_ising_exact
    from repro.experiments.optimization import (
        weak_strong_cluster_instance,
    )

    model = weak_strong_cluster_instance(3)
    assert model.num_spins == 6
    spins, energy = solve_ising_exact(model)
    # Global optimum: weak cluster flipped to -1 against the bridge,
    # strong cluster pinned to +1 by its field.
    assert spins.tolist() == [-1, -1, -1, 1, 1, 1]
    # The fully aligned state is a distinct local optimum exactly
    # `gap` above the ground state.
    aligned_energy = model.energy([1] * 6)
    assert aligned_energy == pytest.approx(energy + 1.0)


def test_to_csv_roundtrips_columns():
    import csv
    import io

    from repro.experiments import to_csv

    result = ExperimentResult(
        "EX", "demo", ["name", "value"],
        [{"name": "a,b", "value": 1.5}, {"name": "c", "value": 2.0}],
    )
    text = to_csv(result)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["name"] == "a,b"
    assert float(rows[1]["value"]) == 2.0


def test_e16_smoke():
    result = run_experiment("E16", eval_qubit_range=(2, 3), mc_trials=10,
                            seed=0)
    assert len(result.rows) == 2
    assert all(r["qae_error"] >= 0 for r in result.rows)


def test_e17_smoke():
    result = run_experiment("E17", shot_budgets=(16, None), n_samples=24,
                            seed=0)
    assert result.rows[-1]["gram_rms_error"] == 0.0


def test_e18_smoke():
    result = run_experiment("E18", feature_counts=(8,),
                            instances_per_cell=1, n_samples=400,
                            num_selected=3, seed=0)
    assert 0 <= result.rows[0]["annealed_fraction_of_optimum"] <= 1.1


def test_e19_smoke():
    result = run_experiment("E19", fragment_counts=(6,),
                            instances_per_cell=1, seed=0)
    assert result.rows[0]["annealed_cut"] >= 0


def test_e20_smoke():
    result = run_experiment("E20", error_rates=(0.01,), seed=0)
    assert result.rows[0]["mitigated_error"] >= 0


def test_a1_smoke():
    result = run_experiment("A1", scales=(1.0,), num_relations=4,
                            instances=1, seed=0)
    assert result.rows[0]["valid_read_fraction"] == 1.0


def test_a3_smoke():
    result = run_experiment("A3", slice_counts=(5,), cluster_size=4,
                            num_reads=5, num_sweeps=60, seed=0)
    assert 0.0 <= result.rows[0]["hit_rate"] <= 1.0
