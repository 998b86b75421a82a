"""Write the CLI outputs that two checkouts are compared on, byte for byte.

    PYTHONPATH=/path/to/checkout-a/src python tools/golden_outputs.py A
    PYTHONPATH=/path/to/checkout-b/src python tools/golden_outputs.py B
    diff -r A B

OUT_DIR gets one directory per run, each holding the inputs it read and the
files it wrote:

- bench-k1, bench-k3, bench-k2: `generate`, then `fit`, on the shipped
  configs (bench-k1 and bench-k3 run the self oracle, bench-k2 none);
- k2-600-self: `fit --oracle` on the first 600 bench-k2 observations;
- k2-600-reference: the same data, fitted with `"oracle": "reference"`;
- compare: a 4-candidate `compare` on that data, with off, self and reference
  candidates;
- gradcheck: the default `gradcheck`, one at K = 3, M = 2, tau = 6, one at
  K = 1, M = 3, tau = 4 (no free transition coordinate) and one at K = 2,
  M = 1, tau = 5 (no free emission coordinate).

Every path handed to the CLI is relative to OUT_DIR, so no report names the
directory it was written to.  Exit codes go to exits.txt.  The whole run
takes about 15 s on one x86_64 core.  Needs only numpy and the package.
"""

from __future__ import annotations

import json
import os
import sys

from vfe_stream.cli import main

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
PREFIX = 600


def _shipped(name: str) -> dict:
    with open(os.path.join(CONFIGS, f"{name}.json")) as fh:
        return json.load(fh)


def _write_json(path: str, doc: dict) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _run(*argv: str) -> None:
    """One CLI command; its exit code goes to exits.txt, compared too."""
    code = main([*argv, "--quiet"])
    with open("exits.txt", "a") as fh:
        fh.write(f"{code} {' '.join(argv)}\n")


def _fit(run: str, config: dict, data: str, *flags: str) -> None:
    cfg = _write_json(os.path.join(run, "config.json"), config)
    _run("fit", "--config", cfg, "--data", data, "--out", run, *flags)


def golden_outputs() -> None:
    for name in ("bench-k1", "bench-k3", "bench-k2"):
        cfg = _write_json(os.path.join(name, "config.json"), _shipped(name))
        _run("generate", "--config", cfg, "--out", name)
        _run("fit", "--config", cfg, "--data", os.path.join(name, "data.jsonl"),
             "--out", name)

    k2 = _shipped("bench-k2")
    data = os.path.join("k2-600", "data.jsonl")
    os.makedirs("k2-600")
    with open(os.path.join("bench-k2", "data.jsonl")) as src, \
            open(data, "w") as dst:
        dst.writelines(src.readlines()[:PREFIX])
    _fit("k2-600-self", k2, data, "--oracle")
    _fit("k2-600-reference", {**k2, "oracle": "reference"}, data)

    k1 = {"K": 1, "M": 2, "mu": [1.0], "A": [[0.5, 0.5]], "B": [[1.0]]}
    k3 = {"K": 3, "M": 2, "mu": [1 / 3] * 3, "A": [[0.5, 0.5]] * 3,
          "B": [[1 / 3] * 3] * 3}

    def candidate(name, model, family, oracle):
        return {"name": name, "config": {
            "model": model, "seed": 1, "init_seed": 2,
            "schedule": k2["schedule"], "family": family, "oracle": oracle}}

    cfg = _write_json(os.path.join("compare", "compare.json"), {"candidates": [
        candidate("k1", k1, "reversed", "off"),
        candidate("k2", k2["model"], "reversed", "self"),
        candidate("k3", k3, "reversed", "reference"),
        candidate("k2-decoupled", k2["model"], "fully_decoupled", "off"),
    ]})
    _run("compare", "--config", cfg, "--data", data, "--out", "compare")

    for name, doc in (("default", {}), ("k3", {"K": 3, "M": 2, "tau": 6}),
                      ("k1", {"K": 1, "M": 3, "tau": 4}),
                      ("m1", {"K": 2, "M": 1, "tau": 5})):
        cfg = _write_json(os.path.join("gradcheck", f"{name}.json"),
                          {**doc, "out": {"report": f"{name}-report.json"}})
        _run("gradcheck", "--config", cfg, "--out", "gradcheck")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: golden_outputs.py OUT_DIR")
    os.makedirs(sys.argv[1])
    os.chdir(sys.argv[1])
    golden_outputs()
