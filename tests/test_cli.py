"""Command-line interface: config validation, data round trips, byte-level
determinism, comparison reports, the gradient-check harness, and exit codes."""

import json
import os
import time

import numpy as np
import pytest

from vfe_stream import kernel
from vfe_stream.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
TRUTH_MODEL = {
    "K": 2, "M": 2, "mu": [0.5, 0.5],
    "A": [[0.9, 0.1], [0.1, 0.9]],
    "B": [[0.8, 0.2], [0.2, 0.8]],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def base_config(length=40, **extra):
    doc = {"model": dict(TRUTH_MODEL), "seed": 11, "length": length,
           "schedule": {"psi_updates_per_obs": 10, "theta_updates_per_obs": 5,
                        "psi_step": 0.3, "theta_step": 0.05}}
    doc.update(extra)
    return doc


def run(argv):
    return main(argv)


# -- generate -----------------------------------------------------------------

def test_generate_writes_consecutive_jsonl(tmp_path):
    cfgp = write_json(tmp_path / "c.json", base_config(length=25))
    assert run(["generate", "--config", cfgp, "--out", str(tmp_path),
                "--quiet"]) == 0
    lines = (tmp_path / "data.jsonl").read_text().splitlines()
    assert len(lines) == 25
    for i, line in enumerate(lines, start=1):
        doc = json.loads(line)
        assert set(doc) == {"t", "o"}
        assert doc["t"] == i
        assert doc["o"] in (1, 2)


def test_generate_repeat_is_byte_identical(tmp_path):
    cfgp = write_json(tmp_path / "c.json", base_config(length=60))
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir(), d2.mkdir()
    run(["generate", "--config", cfgp, "--out", str(d1), "--quiet"])
    run(["generate", "--config", cfgp, "--out", str(d2), "--quiet"])
    assert (d1 / "data.jsonl").read_bytes() == (d2 / "data.jsonl").read_bytes()


def test_generate_seed_flag_changes_data(tmp_path):
    cfgp = write_json(tmp_path / "c.json", base_config(length=60))
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir(), d2.mkdir()
    run(["generate", "--config", cfgp, "--out", str(d1), "--quiet"])
    run(["generate", "--config", cfgp, "--out", str(d2), "--seed", "99",
         "--quiet"])
    assert (d1 / "data.jsonl").read_bytes() != (d2 / "data.jsonl").read_bytes()


def test_generate_symbol_frequencies_match_stationary_mixture(tmp_path):
    # mu is the stationary distribution of the symmetric B, so the marginal
    # probability of symbol 1 is 0.5*0.9 + 0.5*0.1 = 0.5
    cfg = base_config(length=4000)
    cfgp = write_json(tmp_path / "c.json", cfg)
    run(["generate", "--config", cfgp, "--out", str(tmp_path), "--quiet"])
    obs = [json.loads(l)["o"] for l in (tmp_path / "data.jsonl").read_text().splitlines()]
    freq1 = sum(1 for o in obs if o == 1) / len(obs)
    assert abs(freq1 - 0.5) < 0.03


def test_generate_states_file(tmp_path):
    cfg = base_config(length=12, out={"states": "states.jsonl"})
    cfgp = write_json(tmp_path / "c.json", cfg)
    run(["generate", "--config", cfgp, "--out", str(tmp_path), "--quiet"])
    lines = (tmp_path / "states.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    assert head == {"ground_truth": True, "length": 12}
    assert len(lines) == 13
    for i, line in enumerate(lines[1:], start=1):
        doc = json.loads(line)
        assert doc["t"] == i
        assert doc["s"] in (1, 2)


# -- fit ----------------------------------------------------------------------

def _generate_then_fit(tmp_path, cfg_doc, fit_args=()):
    cfgp = write_json(tmp_path / "c.json", cfg_doc)
    assert run(["generate", "--config", cfgp, "--out", str(tmp_path),
                "--quiet"]) == 0
    code = run(["fit", "--config", cfgp, "--data", str(tmp_path / "data.jsonl"),
                "--out", str(tmp_path), "--quiet", *fit_args])
    return cfgp, code


def test_fit_round_trip(tmp_path):
    _, code = _generate_then_fit(tmp_path, base_config(length=30))
    assert code == 0
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == ("tau,elbo,log_evidence,gap,filter_l1,"
                       "psi_updates,theta_updates,stalls,wall_ms")
    assert len(trace) == 31
    assert trace[1].startswith("1,")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["tau"] == 30
    assert summary["config_seed"] == 11
    A = np.array(summary["final_A"])
    assert np.allclose(A.sum(axis=1), 1.0, atol=1e-12)
    # atomic writes leave no temp droppings
    assert not [n for n in os.listdir(tmp_path) if ".tmp" in n]


def test_fit_repeat_is_byte_identical(tmp_path):
    cfg = base_config(length=30, oracle="self")
    cfgp = write_json(tmp_path / "c.json", cfg)
    run(["generate", "--config", cfgp, "--out", str(tmp_path), "--quiet"])
    d1, d2 = tmp_path / "f1", tmp_path / "f2"
    d1.mkdir(), d2.mkdir()
    data = str(tmp_path / "data.jsonl")
    assert run(["fit", "--config", cfgp, "--data", data, "--out", str(d1),
                "--quiet"]) == 0
    assert run(["fit", "--config", cfgp, "--data", data, "--out", str(d2),
                "--quiet"]) == 0
    assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()
    assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()


def test_fit_self_oracle_columns(tmp_path):
    cfg = base_config(length=25, oracle="self")
    _, code = _generate_then_fit(tmp_path, cfg)
    assert code == 0
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        gap = float(cells[3])
        assert gap >= -1e-10
        assert float(cells[4]) >= 0.0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["oracle_mode"] == "self"
    assert summary["metrics"]["min_gap"] >= -1e-10
    assert "mean_filter_l1_tail" in summary["metrics"]


def test_fit_oracle_flag_upgrades_off(tmp_path):
    _, code = _generate_then_fit(tmp_path, base_config(length=10),
                                 fit_args=["--oracle"])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["oracle_mode"] == "self"


def test_fit_exits_2_when_the_reference_model_refuses_an_observation(
        tmp_path, capsys):
    # the reference model gives symbol 2 zero probability (A[:, 1] == 0)
    cfg = {"model": {"K": 2, "M": 2, "mu": [0.5, 0.5],
                     "alpha_tilde": [[0, -1000], [0, -1000]],
                     "beta_tilde": [[0, 0], [0, 0]]},
           "seed": 1, "length": 4, "oracle": "reference"}
    cfgp = write_json(tmp_path / "c.json", cfg)
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps({"t": t, "o": o}) + "\n"
                            for t, o in enumerate([1, 2, 1], start=1)))
    code = run(["fit", "--config", cfgp, "--data", str(data),
                "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: oracle failed at tau=2: the observation has zero "
        "probability under the reference model\n")
    assert not (tmp_path / "trace.csv").exists()
    assert not (tmp_path / "summary.json").exists()


def test_fit_rejects_states_file_as_data(tmp_path):
    cfg = base_config(length=10, out={"states": "states.jsonl"})
    cfgp = write_json(tmp_path / "c.json", cfg)
    run(["generate", "--config", cfgp, "--out", str(tmp_path), "--quiet"])
    code = run(["fit", "--config", cfgp,
                "--data", str(tmp_path / "states.jsonl"),
                "--out", str(tmp_path), "--quiet"])
    assert code == 2


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(bogus=1),
    lambda d: d.pop("model"),
    lambda d: d.update(length=-3),
    lambda d: d.update(family="forward_markov"),
    lambda d: d.update(family="sideways"),
    lambda d: d.update(oracle="maybe"),
    lambda d: d.update(init_rule="magic"),
    lambda d: d["schedule"].update(step="big"),
    lambda d: d["schedule"].update(psi_step=-1.0),
    lambda d: d["schedule"].update(line_search="false"),
    lambda d: d["schedule"].update(line_search=True),
    lambda d: d["schedule"].update(line_search=False),
    lambda d: d.update(out={"weird": "x.csv"}),
    lambda d: d["schedule"].update(psi_step=True),
    lambda d: d["schedule"].update(theta_step=False),
    lambda d: d.update(init_rule="zeros"),
])
def test_bad_config_exits_2(tmp_path, mutate):
    doc = base_config(length=5)
    mutate(doc)
    cfgp = write_json(tmp_path / "c.json", doc)
    assert run(["generate", "--config", cfgp, "--out", str(tmp_path),
                "--quiet"]) == 2


def test_fractional_update_budget_exits_2(tmp_path, capsys):
    good = write_json(tmp_path / "gen.json", base_config(length=20))
    run(["generate", "--config", good, "--out", str(tmp_path), "--quiet"])
    doc = base_config(length=20)
    doc["schedule"]["psi_updates_per_obs"] = 2.5
    bad = write_json(tmp_path / "c.json", doc)
    code = run(["fit", "--config", bad, "--data", str(tmp_path / "data.jsonl"),
                "--out", str(tmp_path), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_config_file_exits_2(tmp_path):
    assert run(["fit", "--config", str(tmp_path / "nope.json"),
                "--data", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path), "--quiet"]) == 2


def test_malformed_config_json_exits_2(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    assert run(["fit", "--config", str(p), "--data", str(p),
                "--out", str(tmp_path), "--quiet"]) == 2


@pytest.mark.parametrize("lines", [
    ['{"t": 1, "o": 1}', '{"t": 3, "o": 1}'],          # gap in t
    ['{"t": 1, "o": 5}'],                              # symbol out of range
    ['{"t": 1, "o": 1, "x": 2}'],                      # extra field
    ['{"t": 1, "o": 1}', 'not json'],                  # broken line
])
def test_bad_data_file_exits_2(tmp_path, lines):
    cfgp = write_json(tmp_path / "c.json", base_config(length=5))
    data = tmp_path / "data.jsonl"
    data.write_text("\n".join(lines) + "\n")
    assert run(["fit", "--config", cfgp, "--data", str(data),
                "--out", str(tmp_path), "--quiet"]) == 2


@pytest.mark.parametrize("line", [
    '{"t": 1, "o": 1.9}',
    '{"t": 1.0, "o": 1}',
    '{"t": 1, "o": true}',
    '{"t": true, "o": 1}',
    '{"t": 1, "o": "2"}',
    '{"t": "1", "o": 1}',
    '{"t": 1, "o": null}',
])
def test_non_integer_data_value_exits_2(tmp_path, capsys, line):
    cfgp = write_json(tmp_path / "c.json", base_config(length=5))
    data = tmp_path / "data.jsonl"
    data.write_text(line + '\n{"t": 2, "o": 2}\n')
    assert run(["fit", "--config", cfgp, "--data", str(data),
                "--out", str(tmp_path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"error: {data}:1: t and o must be integers\n")
    assert not (tmp_path / "summary.json").exists()


def test_quiet_flag_silences_stdout(tmp_path, capsys):
    cfgp = write_json(tmp_path / "c.json", base_config(length=5))
    run(["generate", "--config", cfgp, "--out", str(tmp_path), "--quiet"])
    assert capsys.readouterr().out == ""
    run(["generate", "--config", cfgp, "--out", str(tmp_path)])
    assert "wrote" in capsys.readouterr().out


# -- compare ------------------------------------------------------------------

def _candidate(name, model, **extra):
    cfg = {"model": model, "seed": 1,
           "schedule": {"psi_updates_per_obs": 40, "theta_updates_per_obs": 0,
                        "psi_step": 0.3}}
    cfg.update(extra)
    return {"name": name, "config": cfg}


def _compare_doc(tmp_path, candidates):
    cfgp = write_json(tmp_path / "gen.json", base_config(length=60))
    run(["generate", "--config", cfgp, "--out", str(tmp_path), "--quiet"])
    return {"data": str(tmp_path / "data.jsonl"), "candidates": candidates}


def test_compare_ranks_matching_alphabet_first(tmp_path):
    # both candidates start from the same seeded random logits; the wide one
    # spends roughly 0.4 nats per step on a symbol the data never emits,
    # far beyond any belief-optimization slack
    wide = {"K": 2, "M": 3, "mu": [0.5, 0.5],
            "A": [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]],
            "B": [[0.8, 0.2], [0.2, 0.8]]}
    doc = _compare_doc(tmp_path, [
        _candidate("wide", wide),
        _candidate("narrow", dict(TRUTH_MODEL)),
    ])
    cmpp = write_json(tmp_path / "cmp.json", doc)
    assert run(["compare", "--config", cmpp, "--out", str(tmp_path),
                "--quiet"]) == 0
    report = json.loads((tmp_path / "compare.json").read_text())
    assert report["ranking"][0] == "narrow"
    assert report["tau"] == 60
    by_name = {r["name"]: r for r in report["candidates"]}
    assert by_name["narrow"]["avg_vfe"] < by_name["wide"]["avg_vfe"]
    for row in report["candidates"]:
        assert row["exact_elbo"] <= row["exact_log_evidence"] + 1e-10
        assert abs(row["avg_nll"] + row["exact_log_evidence"] / 60) < 1e-12


def test_compare_identical_candidates_tie_exactly(tmp_path):
    doc = _compare_doc(tmp_path, [
        _candidate("a", dict(TRUTH_MODEL)),
        _candidate("b", dict(TRUTH_MODEL)),
    ])
    cmpp = write_json(tmp_path / "cmp.json", doc)
    assert run(["compare", "--config", cmpp, "--out", str(tmp_path),
                "--quiet"]) == 0
    report = json.loads((tmp_path / "compare.json").read_text())
    a, b = report["candidates"]
    assert a["objective"] == b["objective"]
    assert report["ranking"] == ["a", "b"]  # ties broken by name


def test_compare_decoupled_family_scores_as_reversed_within_the_bound(tmp_path):
    # both family names denote the product of the final marginals; scoring
    # the decoupled one with a pairwise objective that charges interior
    # entropies twice once ranked it far above the log evidence
    with open(os.path.join(CONFIG_DIR, "bench-k2.json")) as fh:
        bench = json.load(fh)
    gen = dict(bench, length=120, seed=7)
    cfgp = write_json(tmp_path / "gen.json", gen)
    run(["generate", "--config", cfgp, "--out", str(tmp_path), "--quiet"])
    cands = [{"name": family, "config": {
        "model": bench["model"], "seed": 3, "init_seed": 3,
        "schedule": bench["schedule"], "family": family}}
        for family in ("reversed", "fully_decoupled")]
    cmpp = write_json(tmp_path / "cmp.json", {
        "data": str(tmp_path / "data.jsonl"), "candidates": cands})
    assert run(["compare", "--config", cmpp, "--out", str(tmp_path),
                "--quiet"]) == 0
    report = json.loads((tmp_path / "compare.json").read_text())
    rev, dec = report["candidates"]
    for row in (rev, dec):
        ev = row["exact_log_evidence"]
        assert row["objective"] <= ev + 1e-9 * abs(ev)
    for key in ("objective", "exact_elbo", "avg_vfe"):
        assert dec[key] == rev[key]
    assert (rev["family"], dec["family"]) == ("reversed", "fully_decoupled")


def test_compare_rejects_duplicate_names(tmp_path):
    doc = _compare_doc(tmp_path, [
        _candidate("same", dict(TRUTH_MODEL)),
        _candidate("same", dict(TRUTH_MODEL)),
    ])
    cmpp = write_json(tmp_path / "cmp.json", doc)
    assert run(["compare", "--config", cmpp, "--out", str(tmp_path),
                "--quiet"]) == 2


def test_compare_rejects_candidate_data_mismatch(tmp_path):
    cand = _candidate("a", dict(TRUTH_MODEL), data="elsewhere.jsonl")
    doc = _compare_doc(tmp_path, [cand])
    cmpp = write_json(tmp_path / "cmp.json", doc)
    assert run(["compare", "--config", cmpp, "--out", str(tmp_path),
                "--quiet"]) == 2


def test_compare_rejects_candidate_out_paths(tmp_path):
    cand = _candidate("a", dict(TRUTH_MODEL), out={"trace": "t.csv"})
    doc = _compare_doc(tmp_path, [cand])
    cmpp = write_json(tmp_path / "cmp.json", doc)
    assert run(["compare", "--config", cmpp, "--out", str(tmp_path),
                "--quiet"]) == 2


def test_compare_rejects_symbols_beyond_candidate_range(tmp_path):
    wide = {"K": 2, "M": 3, "mu": [0.5, 0.5],
            "A": [[0.1, 0.1, 0.8], [0.8, 0.1, 0.1]],
            "B": [[0.8, 0.2], [0.2, 0.8]]}
    cfgp = write_json(tmp_path / "gen.json",
                      {"model": wide, "seed": 5, "length": 80})
    run(["generate", "--config", cfgp, "--out", str(tmp_path), "--quiet"])
    doc = {"data": str(tmp_path / "data.jsonl"),
           "candidates": [_candidate("narrow", dict(TRUTH_MODEL))]}
    cmpp = write_json(tmp_path / "cmp.json", doc)
    assert run(["compare", "--config", cmpp, "--out", str(tmp_path),
                "--quiet"]) == 2


@pytest.mark.parametrize("config", [5, None, [1, 2]])
def test_compare_rejects_a_non_object_candidate_config(tmp_path, capsys,
                                                       config):
    doc = {"data": str(tmp_path / "data.jsonl"),
           "candidates": [{"name": "a", "config": config}]}
    cmpp = write_json(tmp_path / "cmp.json", doc)
    assert run(["compare", "--config", cmpp, "--out", str(tmp_path),
                "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: candidate 0: config must be an object\n")
    assert not (tmp_path / "compare.json").exists()


def test_compare_rejects_empty_data(tmp_path):
    (tmp_path / "empty.jsonl").write_text("")
    doc = {"data": str(tmp_path / "empty.jsonl"),
           "candidates": [_candidate("a", dict(TRUTH_MODEL))]}
    cmpp = write_json(tmp_path / "cmp.json", doc)
    assert run(["compare", "--config", cmpp, "--out", str(tmp_path),
                "--quiet"]) == 2


# -- gradcheck ----------------------------------------------------------------

def test_gradcheck_default_passes(tmp_path):
    cfgp = write_json(tmp_path / "g.json", {})
    assert run(["gradcheck", "--config", cfgp, "--out", str(tmp_path),
                "--quiet"]) == 0
    report = json.loads((tmp_path / "gradcheck.json").read_text())
    assert report["passed"] is True
    assert all(report["checks"].values())
    assert len(report["instances"]) == report["config"]["instances"]
    for row in report["instances"]:
        assert row["recursion_abs_err"] <= 1e-9
        assert row["theta_grad_scaled_err"] <= 1.0
        assert row["psi_grad_scaled_err"] <= 1.0
        assert row["bound_gap"] >= -1e-10
        assert row["posterior_vfe_identity_err"] <= 1e-10


def test_gradcheck_three_states(tmp_path):
    cfgp = write_json(tmp_path / "g.json",
                      {"K": 3, "M": 2, "tau": 4, "instances": 4, "seed": 9})
    assert run(["gradcheck", "--config", cfgp, "--out", str(tmp_path),
                "--quiet"]) == 0


def test_gradcheck_single_state_trivially_exact(tmp_path):
    cfgp = write_json(tmp_path / "g.json",
                      {"K": 1, "M": 3, "tau": 6, "instances": 2})
    assert run(["gradcheck", "--config", cfgp, "--out", str(tmp_path),
                "--quiet"]) == 0


def test_gradcheck_negative_control_fails(tmp_path):
    cfgp = write_json(tmp_path / "g.json",
                      {"instances": 3, "negative_control": True})
    assert run(["gradcheck", "--config", cfgp, "--out", str(tmp_path),
                "--quiet"]) == 3
    report = json.loads((tmp_path / "gradcheck.json").read_text())
    assert report["passed"] is False
    assert report["checks"]["recursion_matches_enumeration"] is False


@pytest.mark.parametrize("planted,failing", [
    ("psi_gradient", "psi_gradient_matches_fd"),
    ("theta_gradient", "theta_gradient_matches_fd"),
])
@pytest.mark.parametrize("doc", [{"instances": 3},
                                 {"K": 3, "M": 3, "tau": 4, "instances": 2}],
                         ids=["default", "K3"])
def test_gradcheck_catches_a_sign_error_in_the_kernel(tmp_path, monkeypatch,
                                                      doc, planted, failing):
    # a sign error in a gradient the learner steps along makes it descend;
    # gradcheck audits those very functions, so only that check fails
    correct = getattr(kernel, planted)

    def flipped(*args):
        gradient = correct(*args)
        return lambda x: -gradient(x)

    monkeypatch.setattr(kernel, planted, flipped)
    cfgp = write_json(tmp_path / "g.json", doc)
    assert run(["gradcheck", "--config", cfgp, "--out", str(tmp_path),
                "--quiet"]) == 3
    checks = json.loads((tmp_path / "gradcheck.json").read_text())["checks"]
    assert [name for name, ok in checks.items() if not ok] == [failing]


def test_gradcheck_guard_exits_2(tmp_path):
    # K^tau is never formed in full: 3^(10^8) alone would take minutes
    for doc in ({"K": 10, "tau": 10, "instances": 1},
                {"K": 3, "tau": 100000000}):
        cfgp = write_json(tmp_path / "g.json", doc)
        t0 = time.perf_counter()
        assert run(["gradcheck", "--config", cfgp, "--out", str(tmp_path),
                    "--quiet"]) == 2
        assert time.perf_counter() - t0 < 5.0


def test_gradcheck_seed_flag_overrides(tmp_path):
    cfgp = write_json(tmp_path / "g.json", {"instances": 2, "seed": 4})
    assert run(["gradcheck", "--config", cfgp, "--out", str(tmp_path),
                "--seed", "123", "--quiet"]) == 0
    report = json.loads((tmp_path / "gradcheck.json").read_text())
    assert report["config"]["seed"] == 123


def test_gradcheck_prints_one_line_per_check(tmp_path, capsys):
    cfgp = write_json(tmp_path / "g.json", {"instances": 2})
    run(["gradcheck", "--config", cfgp, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


# -- seeds --------------------------------------------------------------------

# each seed keys a Philox generator, whose key must lie in [0, 2**128)
_BAD_SEEDS = {
    "generate-seed-negative": ("generate", {"seed": -1}, []),
    "generate-seed-2**128": ("generate", {"seed": 2 ** 128}, []),
    "generate-flag-negative": ("generate", {}, ["--seed", "-1"]),
    "fit-init_seed-negative": ("fit", {"init_seed": -3}, []),
    "fit-seed-2**128": ("fit", {"seed": 2 ** 128}, []),
    "fit-flag-2**128": ("fit", {}, ["--seed", str(2 ** 128)]),
    "gradcheck-seed-negative": ("gradcheck", {"seed": -1}, []),
    "gradcheck-last-instance-2**128":
        ("gradcheck", {"seed": 2 ** 128 - 2, "instances": 3}, []),
    "gradcheck-flag-last-instance-2**128":
        ("gradcheck", {"instances": 3}, ["--seed", str(2 ** 128 - 2)]),
}


@pytest.mark.parametrize("command,fields,flags", list(_BAD_SEEDS.values()),
                         ids=list(_BAD_SEEDS))
def test_seed_out_of_range_exits_2(tmp_path, capsys, command, fields, flags):
    # these once ended in a traceback from the generator, exit 1
    gen = write_json(tmp_path / "gen.json", base_config(length=20))
    run(["generate", "--config", gen, "--out", str(tmp_path), "--quiet"])
    doc = {} if command == "gradcheck" else base_config(length=20)
    doc.update(fields)
    cfgp = write_json(tmp_path / "c.json", doc)
    argv = [command, "--config", cfgp, "--out", str(tmp_path), "--quiet"]
    if command == "fit":
        argv += ["--data", str(tmp_path / "data.jsonl")]
    before = sorted(os.listdir(tmp_path))
    assert run(argv + flags) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(os.listdir(tmp_path)) == before


# --seed belongs to generate, fit and gradcheck, --oracle to fit alone and
# --data to fit and compare; a --data path that does not exist must not pass
_STRAY_FLAGS = {
    "compare-seed": ("compare", ["--seed", "7"]),
    "compare-oracle": ("compare", ["--oracle"]),
    "generate-oracle": ("generate", ["--oracle"]),
    "gradcheck-oracle": ("gradcheck", ["--oracle"]),
    "generate-data": ("generate", ["--data", "/nonexistent/data.jsonl"]),
    "gradcheck-data": ("gradcheck", ["--data", "/nonexistent/data.jsonl"]),
}


@pytest.mark.parametrize("command,flags", list(_STRAY_FLAGS.values()),
                         ids=list(_STRAY_FLAGS))
def test_flag_the_command_does_not_apply_exits_2(tmp_path, command, flags):
    # these were once accepted and ignored, with exit 0
    if command == "compare":
        doc = _compare_doc(tmp_path, [_candidate("a", dict(TRUTH_MODEL))])
    else:
        doc = {} if command == "gradcheck" else base_config(length=20)
    cfgp = write_json(tmp_path / "c.json", doc)
    before = sorted(os.listdir(tmp_path))
    with pytest.raises(SystemExit) as info:
        run([command, "--config", cfgp, "--out", str(tmp_path), "--quiet"]
            + flags)
    assert info.value.code == 2
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_mu_with_a_zero_entry_exits_2(tmp_path, capsys, command):
    # a pinned-softmax belief puts mass on every state, so such a learner
    # once stalled on every observation with an objective of -inf
    gen = write_json(tmp_path / "gen.json", base_config(length=40))
    run(["generate", "--config", gen, "--out", str(tmp_path), "--quiet"])
    model = dict(TRUTH_MODEL, mu=[1.0, 0.0])
    data = str(tmp_path / "data.jsonl")
    if command == "fit":
        doc = base_config(length=40, model=model)
    else:
        doc = _compare_doc(tmp_path, [_candidate("a", dict(TRUTH_MODEL)),
                                      _candidate("b", model)])
    cfgp = write_json(tmp_path / "c.json", doc)
    argv = [command, "--config", cfgp, "--out", str(tmp_path), "--quiet"]
    if command == "fit":
        argv += ["--data", data]
    before = sorted(os.listdir(tmp_path))
    assert run(argv) == 2
    assert "mu" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_generate_accepts_a_mu_with_a_zero_entry(tmp_path):
    cfgp = write_json(tmp_path / "c.json",
                      base_config(model=dict(TRUTH_MODEL, mu=[1.0, 0.0])))
    assert run(["generate", "--config", cfgp, "--out", str(tmp_path),
                "--quiet"]) == 0


# -- report paths -------------------------------------------------------------

@pytest.mark.parametrize("out", [{"reprot": "r.json"}, "r.json"],
                         ids=["misspelt-key", "not-an-object"])
@pytest.mark.parametrize("command", ["compare", "gradcheck"])
def test_malformed_report_out_exits_2(tmp_path, command, out):
    # a misspelt or non-object out once fell back to the default report name
    if command == "compare":
        doc = _compare_doc(tmp_path, [_candidate("a", dict(TRUTH_MODEL))])
    else:
        doc = {"instances": 1}
    doc["out"] = out
    cfgp = write_json(tmp_path / "c.json", doc)
    assert run([command, "--config", cfgp, "--out", str(tmp_path),
                "--quiet"]) == 2
    assert not (tmp_path / f"{command}.json").exists()
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["compare", "gradcheck"])
def test_report_out_names_the_report_file(tmp_path, command):
    if command == "compare":
        doc = _compare_doc(tmp_path, [_candidate("a", dict(TRUTH_MODEL))])
    else:
        doc = {"instances": 1}
    doc["out"] = {"report": "r.json"}
    cfgp = write_json(tmp_path / "c.json", doc)
    assert run([command, "--config", cfgp, "--out", str(tmp_path),
                "--quiet"]) == 0
    assert json.loads((tmp_path / "r.json").read_text())
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize("name", [None, 5, ""], ids=["null", "number", "empty"])
@pytest.mark.parametrize("command,key", [
    ("generate", "data"), ("generate", "states"), ("fit", "trace"),
    ("fit", "summary"), ("compare", "report"), ("gradcheck", "report"),
])
def test_non_string_out_name_exits_2(tmp_path, command, key, name):
    # such names once reached os.path.join or open: a traceback, and for fit
    # only after the whole stream had been fitted
    gen = write_json(tmp_path / "gen.json", base_config(length=20))
    run(["generate", "--config", gen, "--out", str(tmp_path), "--quiet"])
    data = str(tmp_path / "data.jsonl")
    if command == "compare":
        doc = {"data": data,
               "candidates": [_candidate("a", dict(TRUTH_MODEL))]}
    elif command == "gradcheck":
        doc = {"instances": 1}
    else:
        doc = base_config(length=20)
    doc["out"] = {key: name}
    cfgp = write_json(tmp_path / "c.json", doc)
    argv = [command, "--config", cfgp, "--out", str(tmp_path), "--quiet"]
    if command == "fit":
        argv += ["--data", data]
    before = sorted(os.listdir(tmp_path))
    assert run(argv) == 2
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command,work", [
    ("generate", "sample_trajectory"), ("fit", "run_stream"),
    ("compare", "_evaluate_candidate"), ("gradcheck", "_gradcheck_instance"),
])
def test_out_under_a_regular_file_exits_2_before_any_work(
        tmp_path, monkeypatch, capsys, command, work):
    # os.makedirs once raised NotADirectoryError from the first write: a
    # traceback, and for fit only after the whole stream had been fitted
    gen = write_json(tmp_path / "gen.json", base_config(length=20))
    run(["generate", "--config", gen, "--out", str(tmp_path), "--quiet"])
    data = str(tmp_path / "data.jsonl")
    if command == "compare":
        doc = {"data": data,
               "candidates": [_candidate("a", dict(TRUTH_MODEL))]}
    elif command == "gradcheck":
        doc = {"instances": 1}
    else:
        doc = base_config(length=20)
    cfgp = write_json(tmp_path / "c.json", doc)
    (tmp_path / "afile").write_text("")
    argv = [command, "--config", cfgp, "--out", str(tmp_path / "afile" / "sub"),
            "--quiet"]
    if command == "fit":
        argv += ["--data", data]

    def refused(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output directory was made")
    monkeypatch.setattr(f"vfe_stream.cli.{work}", refused)
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "afile" in err and "Traceback" not in err


# -- typed config fields ------------------------------------------------------

_UNTYPED = [
    ("gradcheck", ("negative_control",), "false"),
    ("gradcheck", ("negative_control",), 1),
    ("gradcheck", ("K",), "two"),
    ("gradcheck", ("K",), 2.9),
    ("gradcheck", ("M",), None),
    ("gradcheck", ("tau",), "5"),
    ("gradcheck", ("instances",), True),
    ("gradcheck", ("seed",), 1.7),
    ("fit", ("seed",), None),
    ("fit", ("seed",), 1.7),
    ("fit", ("init_seed",), "3"),
    ("fit", ("length",), "abc"),
    ("fit", ("model", "K"), 2.9),
    ("fit", ("model", "M"), "2"),
    ("generate", ("seed",), None),
    ("generate", ("length",), "abc"),
    ("generate", ("length",), 40.0),
]


@pytest.mark.parametrize(
    "command,path,value", _UNTYPED,
    ids=[f"{c}-{'.'.join(p)}-{json.dumps(v)}" for c, p, v in _UNTYPED])
def test_untyped_config_field_exits_2(tmp_path, capsys, command, path, value):
    # int() and bool() once took these: "false" turned the negative control
    # on, 2.9 ran K = 2, and null or "abc" ended in a traceback
    gen = write_json(tmp_path / "gen.json", base_config(length=20))
    run(["generate", "--config", gen, "--out", str(tmp_path), "--quiet"])
    doc = {"instances": 1} if command == "gradcheck" else base_config(length=20)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cfgp = write_json(tmp_path / "c.json", doc)
    argv = [command, "--config", cfgp, "--out", str(tmp_path), "--quiet"]
    if command == "fit":
        argv += ["--data", str(tmp_path / "data.jsonl")]
    before = sorted(os.listdir(tmp_path))
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(os.listdir(tmp_path)) == before


# -- unreadable inputs and model arrays that are not numbers ------------------

_UNREADABLE = [
    ("fit", "config", None),
    ("fit", "data", None),
    ("compare", "config", None),
    ("compare", "data", None),
    ("gradcheck", "config", None),
    ("fit", "config", b"\xff{}\n"),
    ("fit", "data", b"\xff\xfe\n"),
    ("compare", "config", b"\xff{}\n"),
    ("compare", "data", b'{"t": 1, "o": 1}\n\xff\xfe\n'),
    ("gradcheck", "config", b"\xff{}\n"),
]


@pytest.mark.parametrize(
    "command,role,content", _UNREADABLE,
    ids=[f"{c}-{r}-{'directory' if b is None else 'not-utf8'}"
         for c, r, b in _UNREADABLE])
def test_unreadable_input_file_exits_2(tmp_path, capsys, command, role,
                                       content):
    # a directory or bytes that are not UTF-8 once ended in a traceback
    gen = write_json(tmp_path / "gen.json", base_config(length=20))
    run(["generate", "--config", gen, "--out", str(tmp_path), "--quiet"])
    if command == "gradcheck":
        doc = {"instances": 1}
    elif command == "compare":
        doc = {"candidates": [_candidate("a", dict(TRUTH_MODEL))]}
    else:
        doc = base_config(length=20)
    paths = {"config": write_json(tmp_path / "c.json", doc),
             "data": str(tmp_path / "data.jsonl")}
    bad = tmp_path / "bad"
    if content is None:
        bad.mkdir()
    else:
        bad.write_bytes(content)
    paths[role] = str(bad)
    out = tmp_path / "out"
    argv = [command, "--config", paths["config"], "--out", str(out), "--quiet"]
    if command != "gradcheck":
        argv += ["--data", paths["data"]]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: cannot read (")
    assert not out.exists()


def test_gradcheck_seed_flag_on_a_non_object_config_exits_2(tmp_path, capsys):
    cfgp = write_json(tmp_path / "g.json", [])
    assert run(["gradcheck", "--config", cfgp, "--out", str(tmp_path / "out"),
                "--seed", "3", "--quiet"]) == 2
    assert capsys.readouterr().err == \
        "error: gradcheck config must be an object\n"
    assert not (tmp_path / "out").exists()


_LOGITS = {"K": 2, "M": 2, "alpha_tilde": [[0, 1], [0, -1]],
           "beta_tilde": [[0, 0.5], [0, -0.5]]}
_UNNUMBERED = [
    (TRUTH_MODEL, "mu", "abc"),
    (TRUTH_MODEL, "mu", ["0.5", "0.5"]),
    (TRUTH_MODEL, "mu", [0.5, [0.5]]),
    (TRUTH_MODEL, "A", "x"),
    (TRUTH_MODEL, "B", [[0.8, 0.2], [0.2]]),
    (TRUTH_MODEL, "A", [[0.9, 0.1], [0.1, None]]),
    (_LOGITS, "alpha_tilde", [[0, 1], [0]]),
    (_LOGITS, "beta_tilde", [[0, "x"], [0, 1]]),
]


@pytest.mark.parametrize("command", ["generate", "fit"])
@pytest.mark.parametrize(
    "model,key,value", _UNNUMBERED,
    ids=[f"{k}-{json.dumps(v)}" for _, k, v in _UNNUMBERED])
def test_model_array_that_is_not_numbers_exits_2(tmp_path, capsys, command,
                                                 model, key, value):
    # numpy's ValueError once ended in a traceback, and a string of digits
    # was taken for its number
    gen = write_json(tmp_path / "gen.json", base_config(length=20))
    run(["generate", "--config", gen, "--out", str(tmp_path), "--quiet"])
    doc = base_config(length=20, model=dict(model, **{key: value}))
    cfgp = write_json(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    argv = [command, "--config", cfgp, "--out", str(out), "--quiet"]
    if command == "fit":
        argv += ["--data", str(tmp_path / "data.jsonl")]
    assert run(argv) == 2
    assert capsys.readouterr().err == \
        f"error: model: {key} must be a regular array of numbers\n"
    assert not out.exists()
