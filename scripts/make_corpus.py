#!/usr/bin/env python3
"""Write a reproducible instance corpus: Horn family plus random kinds.

Each instance is emitted as JSON with a metadata side-file recording the
kind, the seed, and any embedded certificate, exactly as
``qprelax generate`` writes it.
"""

import argparse
from pathlib import Path

from qprelax.generators import KINDS, write_generated


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seeds", type=int, default=3, help="seeds per configuration")
    parser.add_argument("--family-dims", type=int, nargs="*", default=[6, 7, 8])
    args = parser.parse_args()

    out = Path(args.out)
    written = [write_generated(out, "horn")]
    for n in args.family_dims:
        for seed in range(args.seeds):
            written.append(write_generated(out, "horn-family", n=n, seed=seed))
    for kind in KINDS:
        for seed in range(args.seeds):
            written.append(write_generated(out, "random", n=4, m=2, seed=seed, kind=kind))

    print(f"wrote {len(written)} instances to {out}")


if __name__ == "__main__":
    main()
