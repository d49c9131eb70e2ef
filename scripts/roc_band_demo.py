#!/usr/bin/env python3
"""Show how train/test resplits spread the ROC at small false-positive rates.

Fits one detector on many random resplits of a noisy synthetic benchmark
and reports the mean and standard deviation of TPR and of the TPR/FPR
ratio on a shared FPR grid.  The spread of the ratio near FPR -> 0
dwarfs the spread around FPR = 0.5, which is why measures evaluated at
very small FPR levels are unstable under resplitting.

Example
-------
    python3 scripts/roc_band_demo.py --splits 100 --out /tmp/band.csv
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from adeval.datasets import synth_gaussian
from adeval.experiments import Combo, GridConfig, roc_band


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--detector", choices=("knn", "lof", "iforest"), default="knn")
    parser.add_argument("--k", type=int, default=5, help="neighborhood size")
    parser.add_argument("--splits", type=int, default=100)
    parser.add_argument("--n-normal", type=int, default=150)
    parser.add_argument("--n-anomaly", type=int, default=60)
    parser.add_argument(
        "--shift", type=float, default=1.0,
        help="cluster separation; small values give a noisy benchmark",
    )
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", help="write the band knots to this CSV file")
    return parser.parse_args()


def combo(args: argparse.Namespace) -> Combo:
    if args.detector == "knn":
        return Combo(0, "knn", (("variant", "kappa"), ("k", args.k)))
    if args.detector == "lof":
        return Combo(0, "lof", (("k", args.k),))
    return Combo(0, "iforest", (("n_trees", 100), ("subsample", 256)))


def run(args: argparse.Namespace) -> int:
    (bench,) = synth_gaussian(
        args.n_normal, args.n_anomaly, dim=2, shift=args.shift, seed=args.seed
    ).benchmarks()
    band = roc_band(GridConfig(master_seed=args.seed), bench, combo(args), n_splits=args.splits)
    print(f"{band.n_splits_used} splits used, {band.n_skipped} skipped")

    smallest = np.flatnonzero(band.fpr > 0.0)[0]
    near_half = int(np.argmin(np.abs(band.fpr - 0.5)))
    for label, i in (("smallest positive FPR", smallest), ("FPR near 0.5", near_half)):
        print(
            f"{label}: fpr={band.fpr[i]:.4f}  "
            f"tpr={band.tpr_mean[i]:.3f}+-{band.tpr_std[i]:.3f}  "
            f"tpr/fpr={band.ratio_mean[i]:.2f}+-{band.ratio_std[i]:.2f}"
        )
    ratio = band.ratio_std[smallest] / max(band.ratio_std[near_half], 1e-12)
    print(f"ratio-spread factor (small FPR / mid FPR): {ratio:.1f}x")

    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["fpr", "tpr_mean", "tpr_std", "ratio_mean", "ratio_std"])
            for i in range(band.fpr.shape[0]):
                writer.writerow(
                    [repr(float(v)) for v in (
                        band.fpr[i], band.tpr_mean[i], band.tpr_std[i],
                        band.ratio_mean[i], band.ratio_std[i],
                    )]
                )
        print(f"wrote {band.fpr.shape[0]} knots to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
