#!/usr/bin/env python3
"""Write the Fourier coefficients of the weight-2 level-37 newform as CSV.

The coefficients come from `eichler.cocycles.newform37_coeffs` (point counts
on y^2 + y = x^3 - x, Hecke relations, multiplicativity).  Output is a CSV
`n,a_n` consumed by the test fixtures:

    PYTHONPATH=src python3 tools/gen_37a_fixture.py --nmax 4000
"""

import argparse
import csv

from eichler.cocycles import newform37_coeffs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=4000)
    parser.add_argument("--out", default="tests/data/curve37a_an.csv")
    args = parser.parse_args()
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "a_n"])
        for n, an in enumerate(newform37_coeffs(args.nmax), start=1):
            writer.writerow([n, an])
    print(f"wrote {args.nmax} coefficients to {args.out}")


if __name__ == "__main__":
    main()
