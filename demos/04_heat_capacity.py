"""Heat capacity as a thermodynamic witness of the transition line.

At low temperature the heat capacity is controlled by the smallest
gaps, so a bz scan across the avoided crossing shows a characteristic
double peak with a dip right at the crossing field. Sweeping the
temperature shows the structure washing out.

Usage: python3 demos/04_heat_capacity.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from spinscape import heat_capacity_scan, lookup, writers

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
out_dir.mkdir(parents=True, exist_ok=True)

compound = lookup("3-trigonal")
bx = 2.205
bz = np.linspace(-0.4, 0.6, 401)
temps = (0.02, 0.05, 0.1, 0.25)

columns = ["bz"] + [f"c_t{t}" for t in temps]
scans = heat_capacity_scan(compound.system, compound.aniso, bz, temps, bx=bx)
rows = [
    [float(z)] + [float(s[i]) for s in scans]
    for i, z in enumerate(bz)
]
path = out_dir / "heat_capacity.csv"
writers.write_csv(
    path,
    [("compound", compound.id), ("bx", repr(bx))],
    columns,
    rows,
)
print(f"wrote {path}")

for t, s in zip(temps, scans):
    peaks = [
        round(float(bz[i]), 3)
        for i in range(1, bz.size - 1)
        if s[i] > s[i - 1] and s[i] > s[i + 1]
    ]
    print(f"t = {t:5.2f} K: peaks at bz = {peaks}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed, skipping the png")
else:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for t, s in zip(temps, scans):
        ax.plot(bz, s, label=f"t = {t} K")
    ax.set_xlabel("bz (K)")
    ax.set_ylabel("c (kB)")
    ax.set_title(f"heat capacity across the crossing, bx = {bx} K")
    ax.legend()
    fig.tight_layout()
    png = out_dir / "heat_capacity.png"
    fig.savefig(png, dpi=130)
    print(f"wrote {png}")
