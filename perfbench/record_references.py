"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_references.py

Run once at the commit whose outputs are the reference; it runs each
workload untraced (every mesh seed of ``snapshots``) and rewrites
``references.json``.
"""
from __future__ import annotations

import json

import run
import workloads


def main() -> None:
    refs = {}
    for name, cfg in workloads.WORKLOADS.items():
        seeds = range(workloads.MESH_SEEDS) if cfg["family"] == "perturbed" else [0]
        refs[name] = {}
        for seed in seeds:
            rep = run.run_rep(name, seed, traced=False, timeout=600)
            if "error" in rep:
                raise SystemExit(f"{name} seed {seed}: {rep['error']}")
            refs[name][str(seed)] = rep["outputs"]
            print(f"{name} seed {seed}: {rep['wall_s']:.2f} s", flush=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
