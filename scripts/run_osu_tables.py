#!/usr/bin/env python3
"""Emit the point-to-point latency and bandwidth tables for both platforms."""

import argparse
from pathlib import Path

from batchsim.fabric import INTERCONNECTS
from batchsim.workloads import BANDWIDTH_SIZES, LATENCY_SIZES, format_table, osu_bandwidth, osu_latency


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="benchmark-tables")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, model in INTERCONNECTS.items():
        lat = osu_latency(model, LATENCY_SIZES)
        bw = osu_bandwidth(model, BANDWIDTH_SIZES)
        lat_text = format_table(lat, f"ping-pong latency, model={name} (seconds)")
        bw_text = format_table(bw, f"streaming bandwidth, model={name} (bytes/s)")
        (outdir / f"latency_{name}.tsv").write_text(lat_text)
        (outdir / f"bandwidth_{name}.tsv").write_text(bw_text)
        print(f"{name}: smallest-message latency {lat[0][1] * 1e6:.2f} us, "
              f"plateau bandwidth {bw[-1][1] / 1e9:.2f} GB/s")
    print(f"tables written to {outdir}/")


if __name__ == "__main__":
    main()
