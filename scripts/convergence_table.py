"""Refinement study over the three benchmark mesh families.

Defaults reproduce the headline table (8 base divisions, four levels,
tau = 0.001, T = 2), which takes about half a minute.  Pass smaller
values for a quick look, e.g.

    python3 scripts/convergence_table.py --base-divisions 4 --levels 0,1,2 \
        --tau 0.005
"""

import argparse
import sys
from pathlib import Path

from hdivwave.analysis import lowest_rate
from hdivwave.cli import (
    INPUT_ERRORS,
    check_run,
    error_line,
    parse_levels,
    parse_tau,
)
from hdivwave.driver import PlaneWave, convergence_study, write_convergence_csv
from hdivwave.mesh import MeshFamily

FAMILIES = ("structured-triangle", "structured-quad", "hybrid")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                exit_on_error=False)
    p.add_argument("--base-divisions", type=int, default=8)
    p.add_argument("--levels", default="0,1,2,3",
                   help="comma list or lo-hi range of refinement levels")
    p.add_argument("--tau", default="0.001")
    p.add_argument("--T", type=float, default=2.0)
    p.add_argument("--out-dir", type=Path, default=Path("results"))
    return p.parse_args()


def main():
    try:
        args = parse_args()
        levels = parse_levels(args.levels)
        tau = parse_tau(args.tau)
        check_run(args.T, tau, 0.0)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for kind in FAMILIES:
            fam = MeshFamily(kind, base_divisions=args.base_divisions)
            reports = convergence_study(fam, levels, PlaneWave(), tau, args.T)
            write_convergence_csv(reports,
                                  args.out_dir / f"convergence_{kind}.csv")

            print(f"\n{kind}")
            print(f"{'h':>10} {'energy_err':>12} {'eoc':>6} "
                  f"{'discrete_err':>12} {'eoc':>6}")
            for r in reports:
                ee = "" if r.eoc_energy is None else f"{r.eoc_energy:6.2f}"
                ed = "" if r.eoc_discrete is None else f"{r.eoc_discrete:6.2f}"
                print(f"{r.h:10.5f} {r.energy_error:12.6f} {ee:>6} "
                      f"{r.discrete_error:12.6f} {ed:>6}")
            if len(reports) > 1:
                rate_e = lowest_rate(reports, "energy")[1]
                rate_d = lowest_rate(reports, "discrete")[1]
                print(f"{'lowest':>10} {'':>12} {rate_e:6.2f} "
                      f"{'':>12} {rate_d:6.2f}")
    except INPUT_ERRORS as exc:
        print(error_line(exc), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
