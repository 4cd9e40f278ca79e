"""Record velocity snapshots of the traveling pulse on a uniform grid.

Writes snapshot_*.csv (one grid per file, row-major in y) plus an index
file mapping snapshots to sample times.  Quick start:

    python3 scripts/wave_snapshots.py --level 2 --snapshot-every 100
"""

import argparse
import sys
from pathlib import Path

from hdivwave.cli import INPUT_ERRORS, check_run, error_line, parse_tau
from hdivwave.driver import PlaneWave, run_benchmark, write_snapshots
from hdivwave.mesh import FAMILIES, MeshFamily


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                exit_on_error=False)
    p.add_argument("--mesh-family", default="hybrid", choices=FAMILIES)
    p.add_argument("--base-divisions", type=int, default=8)
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--tau", default="0.001")
    p.add_argument("--T", type=float, default=2.0)
    p.add_argument("--damping", type=float, default=0.0)
    p.add_argument("--snapshot-every", type=int, default=100)
    p.add_argument("--grid-n", type=int, default=100)
    p.add_argument("--out-dir", type=Path, default=Path("results/snapshots"))
    return p.parse_args()


def main():
    try:
        args = parse_args()
        tau = parse_tau(args.tau)
        check_run(args.T, tau, args.damping, args.snapshot_every,
                  args.grid_n)
        fam = MeshFamily(args.mesh_family, base_divisions=args.base_divisions)
        res = run_benchmark(fam, args.level, PlaneWave(), tau, args.T,
                            damping=args.damping,
                            snapshot_every=args.snapshot_every,
                            snapshot_n=args.grid_n)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        write_snapshots(res.snapshots, args.out_dir, "index.csv")
    except INPUT_ERRORS as exc:
        print(error_line(exc), file=sys.stderr)
        return 2
    print(f"wrote {len(res.snapshots)} snapshots to {args.out_dir}")
    print(f"final-time energy error {res.report.energy_error:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
