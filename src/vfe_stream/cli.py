"""Command-line surface: generate, fit, compare, gradcheck.

Every command is a pure function of (config, input files, seed): repeat runs
produce byte-identical outputs.  Exit codes: 0 success, 2 bad input or
config, 3 completed with stalls or failed checks.  Output directories are
made once the inputs are read, before any work; output files are written
atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import elbo as elbo_mod
from . import kernel
from .learner import Schedule, run_stream, summary_dict
from .mfa import INIT_RULES, MfaFamily, MfaHistory, full_q
from .model import (
    ConstraintError,
    GenerativeHMM,
    ModelParams,
    StateSpace,
    build_hmm,
    hmm_from_config,
    sample_trajectory,
)
from .oracle import (
    GuardError,
    brute_force_elbo,
    check_enumeration,
    finite_diff_grad,
    forward_filter,
    enumerate_posterior,
    max_grad_error,
    vfe,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STALLS = 3


class ConfigError(ValueError):
    pass


def _make_out_dirs(*paths: str) -> None:
    """Make the directory of each output path: one that cannot be made
    raises a ConfigError that names it."""
    for path in paths:
        directory = os.path.dirname(os.path.abspath(path))
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"{directory}: cannot create the output "
                              f"directory ({exc.strerror or exc})") from exc


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp{os.getpid()}")
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _require_keys(doc: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"missing {where} fields: {sorted(missing)}")


def _out_names(out: dict, allowed: set) -> dict:
    """Validated copy of an out object: known keys, non-empty file names."""
    _require_keys(out, allowed, set(), "out")
    for key, name in out.items():
        if not isinstance(name, str) or not name:
            raise ConfigError(f"out.{key} must be a non-empty file name")
    return dict(out)


def _json_field(doc: dict, key: str, default, kind: type):
    """doc[key], or default when absent, checked to be a JSON integer (kind
    int) or a JSON boolean (kind bool).  Python's int() and bool() would
    quietly take 2.9, "abc" or "false", and a bool is an int to isinstance."""
    value = doc.get(key, default)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be true or false" if kind is bool
                          else f"{key} must be an integer")
    return value


def _check_seed(seed: int, name: str) -> int:
    """seed, if it is a valid Philox key: an integer in [0, 2**128)."""
    if not 0 <= seed < 2 ** 128:
        raise ConfigError(f"{name} must lie in 0..2**128 - 1")
    return seed


_FAMILIES = {f.value: f for f in MfaFamily}


@dataclass
class ExperimentConfig:
    """Validated run description; see README for the JSON schema."""

    hmm: GenerativeHMM
    seed: int
    init_seed: int
    length: int
    schedule: Schedule
    family: MfaFamily
    init_rule: str
    oracle: str
    out: dict = field(default_factory=dict)

    @staticmethod
    def parse(doc: dict) -> "ExperimentConfig":
        allowed = {"model", "seed", "init_seed", "length", "schedule",
                   "family", "init_rule", "oracle", "out"}
        _require_keys(doc, allowed, {"model", "seed", "length"}, "config")
        try:
            hmm = hmm_from_config(doc["model"])
        except ConstraintError as exc:
            raise ConfigError(f"model: {exc}") from exc
        seed = _check_seed(_json_field(doc, "seed", None, int), "seed")
        init_seed = _check_seed(_json_field(doc, "init_seed", seed, int),
                                "init_seed")
        length = _json_field(doc, "length", None, int)
        if length < 0:
            raise ConfigError("length must be >= 0")
        sched_doc = doc.get("schedule", {})
        _require_keys(sched_doc,
                      {"psi_updates_per_obs", "theta_updates_per_obs",
                       "psi_step", "theta_step"}, set(),
                      "schedule")
        try:
            schedule = Schedule(**sched_doc)
        except (ConstraintError, TypeError) as exc:
            raise ConfigError(f"schedule: {exc}") from exc
        family_name = doc.get("family", "reversed")
        if family_name not in _FAMILIES:
            raise ConfigError(f"unknown family {family_name!r}")
        family = _FAMILIES[family_name]
        init_rule = doc.get("init_rule", "prediction")
        if init_rule not in INIT_RULES:
            raise ConfigError(f"unknown init_rule {init_rule!r}")
        oracle = doc.get("oracle", "off")
        if oracle is True:
            oracle = "self"
        if oracle is False or oracle is None:
            oracle = "off"
        if oracle not in ("off", "self", "reference"):
            raise ConfigError("oracle must be off, self, reference or a boolean")
        out = _out_names(doc.get("out", {}),
                         {"data", "states", "trace", "summary", "report"})
        return ExperimentConfig(hmm=hmm, seed=seed, init_seed=init_seed,
                                length=length, schedule=schedule, family=family,
                                init_rule=init_rule, oracle=oracle, out=out)


def _lines(path: str):
    """The lines of the UTF-8 text file at path, read as it goes.  A file
    that cannot be read so (missing, a directory, not UTF-8) raises a
    ConfigError that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise ConfigError(f"{path}: cannot read ({reason})") from exc


def _load_json(path: str):
    """The JSON document in the file at path."""
    try:
        return json.loads("".join(_lines(path)))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def load_config(path: str) -> ExperimentConfig:
    return ExperimentConfig.parse(_load_json(path))


def _out_path(cfg: ExperimentConfig, key: str, out_dir: str, default: str) -> str:
    return os.path.join(out_dir, cfg.out.get(key, default))


def _report_path(doc: dict, out_dir: str, default: str) -> str:
    """Report path of a compare or gradcheck config: its only out field is
    report."""
    out = _out_names(doc.get("out", {}), {"report"})
    return os.path.join(out_dir, out.get("report", default))


# -- generate -----------------------------------------------------------------

def cmd_generate(cfg: ExperimentConfig, out_dir: str, quiet: bool) -> int:
    data_path = _out_path(cfg, "data", out_dir, "data.jsonl")
    states_path = (_out_path(cfg, "states", out_dir, "") if "states" in cfg.out
                   else data_path)  # no states file: no other directory
    _make_out_dirs(data_path, states_path)
    traj = sample_trajectory(cfg.hmm, cfg.length, seed=cfg.seed)
    lines = [json.dumps({"t": t, "o": o}, sort_keys=True)
             for t, o in enumerate(traj.observations, start=1)]
    _atomic_write(data_path, "\n".join(lines) + ("\n" if lines else ""))
    if "states" in cfg.out:
        slines = [json.dumps({"ground_truth": True, "length": cfg.length},
                             sort_keys=True)]
        slines += [json.dumps({"s": s, "t": t}, sort_keys=True)
                   for t, s in enumerate(traj.states, start=1)]
        _atomic_write(states_path, "\n".join(slines) + "\n")
    if not quiet:
        print(f"wrote {cfg.length} observations to {data_path}")
    return EXIT_OK


# -- fit ----------------------------------------------------------------------

def read_observations(path: str, M: int) -> list:
    """Strict JSONL reader: each line exactly {"t": n, "o": m} with
    consecutive t from 1.  A states file (any line carrying "s" or the
    ground-truth marker) is rejected so fits cannot consume ground truth."""
    out = []
    for i, line in enumerate(_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{i}: invalid JSON ({exc})") from exc
        if not isinstance(doc, dict) or set(doc) != {"t", "o"}:
            raise ConfigError(f"{path}:{i}: expected exactly t and o fields")
        t, o = doc["t"], doc["o"]
        # JSON integers only: int() would take 1.9, "2" or true
        if (not isinstance(t, int) or isinstance(t, bool)
                or not isinstance(o, int) or isinstance(o, bool)):
            raise ConfigError(f"{path}:{i}: t and o must be integers")
        if t != len(out) + 1:
            raise ConfigError(f"{path}:{i}: t must be consecutive from 1")
        if not 1 <= o <= M:
            raise ConfigError(f"{path}:{i}: o out of range 1..{M}")
        out.append(o)
    return out


def _run_config(cfg: ExperimentConfig, observations: list):
    space = StateSpace(cfg.hmm.K, cfg.hmm.M)
    params0 = ModelParams.random(space, seed=cfg.init_seed)
    reference = cfg.hmm if cfg.oracle == "reference" else None
    return run_stream(params0, cfg.hmm.mu, observations, cfg.schedule,
                      oracle_mode=cfg.oracle, family=cfg.family,
                      init_rule=cfg.init_rule, reference=reference)


def cmd_fit(cfg: ExperimentConfig, data_path: str, out_dir: str, quiet: bool) -> int:
    observations = read_observations(data_path, cfg.hmm.M)
    trace_path = _out_path(cfg, "trace", out_dir, "trace.csv")
    summary_path = _out_path(cfg, "summary", out_dir, "summary.json")
    _make_out_dirs(trace_path, summary_path)
    result = _run_config(cfg, observations)
    _atomic_write(trace_path, result.trace.to_csv_text())
    summary = summary_dict(result)
    summary["config_seed"] = cfg.seed
    _atomic_write(summary_path, _json_text(summary))
    stalls = result.state.stalls_total
    if not quiet:
        final = result.trace.records[-1].elbo if result.trace.records else None
        print(f"fit: tau={result.state.tau} final_elbo={final} stalls={stalls}")
        print(f"wrote {trace_path} and {summary_path}")
    return EXIT_STALLS if stalls else EXIT_OK


# -- compare ------------------------------------------------------------------

def _evaluate_candidate(cfg: ExperimentConfig, observations: list) -> dict:
    result = _run_config(cfg, observations)
    state = result.state
    tau = state.tau
    exact_elbo, _ = elbo_mod.elbo_recursive(state.hmm, state.history,
                                            observations)
    if state.hmm.K == 1:
        # one state: beliefs are trivial, so the objective at the final
        # parameters is the iid log-likelihood in closed form
        objective = exact_elbo
    else:
        # the streaming value the run actually attained; re-scoring frozen
        # early beliefs at the final parameters would charge them for
        # parameter movement they could not have seen
        objective = elbo_mod.finish(state.summaries)
    log_evidence = forward_filter(state.hmm, observations).log_evidence
    return {
        "objective": objective,
        "avg_vfe": -objective / tau,
        "exact_elbo": exact_elbo,
        "exact_log_evidence": log_evidence,
        "avg_nll": -log_evidence / tau,
        "stalls": state.stalls_total,
        "K": state.hmm.K,
        "family": cfg.family.value,
    }


def cmd_compare(compare_doc: dict, out_dir: str, quiet: bool,
                data_override: Optional[str]) -> int:
    _require_keys(compare_doc, {"data", "candidates", "out"}, {"candidates"},
                  "compare config")
    report_path = _report_path(compare_doc, out_dir, "compare.json")
    data_path = data_override or compare_doc.get("data")
    if not data_path:
        raise ConfigError("compare needs a data file (config field or --data)")
    candidates = compare_doc["candidates"]
    if not isinstance(candidates, list) or len(candidates) < 1:
        raise ConfigError("candidates must be a non-empty list")
    parsed = []
    for i, cand in enumerate(candidates):
        _require_keys(cand, {"name", "config"}, {"name", "config"},
                      f"candidate {i}")
        if not isinstance(cand["config"], dict):
            raise ConfigError(f"candidate {i}: config must be an object")
        inner = dict(cand["config"])
        if "out" in inner and inner["out"]:
            raise ConfigError(f"candidate {cand['name']}: out paths belong to "
                              "the compare config")
        data_field = inner.pop("data", None)
        if data_field is not None and data_field != data_path:
            raise ConfigError(f"candidate {cand['name']}: data file mismatch")
        inner.setdefault("length", 0)
        parsed.append((str(cand["name"]), ExperimentConfig.parse(inner)))
    names = [n for n, _ in parsed]
    if len(set(names)) != len(names):
        raise ConfigError("candidate names must be unique")
    max_m = max(cfg.hmm.M for _, cfg in parsed)
    observations = read_observations(data_path, max_m)
    if not observations:
        raise ConfigError("compare needs a non-empty data file")
    for name, cfg in parsed:
        bad = [o for o in observations if o > cfg.hmm.M]
        if bad:
            raise ConfigError(f"candidate {name}: data symbol {bad[0]} exceeds M={cfg.hmm.M}")
    _make_out_dirs(report_path)
    rows = [_evaluate_candidate(cfg, observations) for _, cfg in parsed]
    for (name, _), row in zip(parsed, rows):
        row["name"] = name
    ranking = sorted(range(len(rows)), key=lambda i: (rows[i]["avg_vfe"], names[i]))
    report = {
        "data": data_path,
        "tau": len(observations),
        "candidates": rows,
        "ranking": [names[i] for i in ranking],
    }
    _atomic_write(report_path, _json_text(report))
    if not quiet:
        for i in ranking:
            print(f"{rows[i]['avg_vfe']:.6f}  {names[i]}")
        print(f"wrote {report_path}")
    stalls = sum(r["stalls"] for r in rows)
    return EXIT_STALLS if stalls else EXIT_OK


# -- gradcheck ----------------------------------------------------------------

def _random_history(K: int, tau: int, rng) -> MfaHistory:
    """Normal pinned rows, the revision rows scaled by 0.7."""
    rows = rng.normal(size=(2 * tau - 1, K))
    rows[1::2] *= 0.7
    rows[:, 0] = 0.0
    return MfaHistory.from_dict({"horizon": tau, "rho": rows.tolist(),
                                 "frozen_below": tau - 1})


def _gradcheck_instance(K: int, M: int, tau: int, seed: int,
                        corrupt: bool) -> dict:
    rng = np.random.default_rng(seed)
    space = StateSpace(K, M)
    params = ModelParams.random(space, seed=seed)
    mu = rng.dirichlet(np.ones(K))
    hmm = build_hmm(mu, params)
    obs = [int(rng.integers(1, M + 1)) for _ in range(tau)]
    hist = _random_history(K, tau, rng)

    rec, _ = elbo_mod.elbo_recursive(hmm, hist, obs)
    if corrupt:
        # negative-control fixture: behave as if the base case forgot its
        # -ln pi_1 charge, the most tempting wrong simplification
        pi1 = hist.superseded(1)
        rec = rec - float(pi1 @ np.log(pi1))
    q = full_q(hist, MfaFamily.REVERSED)
    bf = brute_force_elbo(hmm, q.table, obs)
    recursion_err = abs(rec - bf)

    # the free coordinates of the flat theta
    theta = kernel.params_vector(params)
    free = list(kernel.theta_free(K, M))

    def f_theta(v):
        t = theta.copy()
        t[free] = v
        p2 = ModelParams(*kernel.theta_rows(t, K, M))
        return elbo_mod.elbo_recursive(build_hmm(mu, p2), hist, obs)[0]

    theta_err = max_grad_error(elbo_mod.grad_theta(hmm, hist, obs)[free],
                               finite_diff_grad(f_theta, theta[free]))

    # the free coordinates of the updatable rows
    x = hist.updatable_logits()

    def f_psi(v):
        h2 = MfaHistory.from_dict(hist.to_dict())
        h2.set_updatable(np.insert(v.reshape(len(x), K - 1), 0, 0.0, axis=1))
        return elbo_mod.elbo_recursive(hmm, h2, obs)[0]

    psi_err = max_grad_error(elbo_mod.grad_psi(hmm, hist, obs),
                             finite_diff_grad(f_psi, x[:, 1:].ravel()))

    log_z = forward_filter(hmm, obs).log_evidence
    gap = log_z - rec
    post = enumerate_posterior(hmm, obs)
    v_post = vfe(hmm, post, obs)
    identity_err = abs(v_post + log_z)

    return {
        "seed": seed, "K": K, "M": M, "tau": tau,
        "recursion_abs_err": recursion_err,
        "theta_grad_scaled_err": theta_err,
        "psi_grad_scaled_err": psi_err,
        "bound_gap": gap,
        "posterior_vfe_identity_err": identity_err,
    }


def cmd_gradcheck(doc: dict, out_dir: str, quiet: bool) -> int:
    allowed = {"K", "M", "tau", "instances", "seed", "negative_control", "out"}
    _require_keys(doc, allowed, set(), "gradcheck config")
    K = _json_field(doc, "K", 2, int)
    M = _json_field(doc, "M", 2, int)
    tau = _json_field(doc, "tau", 5, int)
    instances = _json_field(doc, "instances", 10, int)
    seed0 = _json_field(doc, "seed", 0, int)
    corrupt = _json_field(doc, "negative_control", False, bool)
    if K < 1 or M < 1 or tau < 1 or instances < 1:
        raise ConfigError("K, M, tau, instances must be >= 1")
    _check_seed(seed0, "seed")
    _check_seed(seed0 + instances - 1, "seed + instances - 1")
    check_enumeration(K, tau)
    report_path = _report_path(doc, out_dir, "gradcheck.json")
    _make_out_dirs(report_path)

    per_instance = []
    for i in range(instances):
        per_instance.append(_gradcheck_instance(K, M, tau, seed0 + i, corrupt))

    checks = {
        "recursion_matches_enumeration":
            max(r["recursion_abs_err"] for r in per_instance) <= 1e-9,
        "theta_gradient_matches_fd":
            max(r["theta_grad_scaled_err"] for r in per_instance) <= 1.0,
        "psi_gradient_matches_fd":
            max(r["psi_grad_scaled_err"] for r in per_instance) <= 1.0,
        "bound_gap_nonnegative":
            min(r["bound_gap"] for r in per_instance) >= -1e-10,
        "posterior_vfe_is_neg_evidence":
            max(r["posterior_vfe_identity_err"] for r in per_instance) <= 1e-10,
    }
    report = {
        "config": {"K": K, "M": M, "tau": tau, "instances": instances,
                   "seed": seed0, "negative_control": corrupt},
        "tolerances": {"recursion_abs": 1e-9, "grad_scaled": 1.0,
                       "gap_slack": 1e-10, "identity_abs": 1e-10},
        "checks": checks,
        "passed": all(checks.values()),
        "instances": per_instance,
    }
    _atomic_write(report_path, _json_text(report))
    if not quiet:
        for name, ok in checks.items():
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
        print(f"wrote {report_path}")
    return EXIT_OK if report["passed"] else EXIT_STALLS


# -- entry point --------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vfe-stream",
        description="Streaming variational inference and learning for "
                    "discrete-state hidden Markov models.")
    sub = p.add_subparsers(dest="command", required=True)
    # each flag only on the commands that apply it: any other exits 2
    for name in ("generate", "fit", "compare", "gradcheck"):
        sp = sub.add_parser(name)
        sp.set_defaults(seed=None, oracle=False)
        sp.add_argument("--config", required=True)
        if name in ("fit", "compare"):
            sp.add_argument("--data", required=name == "fit")
        sp.add_argument("--out", default=".")
        if name != "compare":
            sp.add_argument("--seed", type=int)
        if name == "fit":
            sp.add_argument("--oracle", action="store_true",
                            help="force-enable the self oracle")
        sp.add_argument("--quiet", action="store_true")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("generate", "fit"):
            cfg = load_config(args.config)
            if args.seed is not None:
                cfg = replace(cfg, seed=_check_seed(args.seed, "--seed"),
                              init_seed=args.seed)
            if args.oracle and cfg.oracle == "off":
                cfg.oracle = "self"
            if args.command == "generate":
                return cmd_generate(cfg, args.out, args.quiet)
            return cmd_fit(cfg, args.data, args.out, args.quiet)
        doc = _load_json(args.config)
        if args.command == "compare":
            return cmd_compare(doc, args.out, args.quiet, args.data)
        if args.seed is not None and isinstance(doc, dict):
            doc["seed"] = args.seed
        return cmd_gradcheck(doc, args.out, args.quiet)
    except (ConfigError, ConstraintError, GuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
