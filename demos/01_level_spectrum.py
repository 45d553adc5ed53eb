"""Energy levels across the axial-field sweep, with transition markers.

Runs the spin-5 compound with the proposed three-fold term through a
full bz sweep and writes the exact levels next to the semiclassically
predicted transition fields, so the two can be compared in one plot.

Usage: python3 demos/01_level_spectrum.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from spinscape import (
    FieldVector,
    lookup,
    reduce_params,
    sweep_crossings,
    writers,
)
from spinscape.observables import spectra

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
out_dir.mkdir(parents=True, exist_ok=True)

compound = lookup("3-trigonal")
system, aniso = compound.system, compound.aniso
print(f"compound {compound.id}: 2S={system.two_s}, d={aniso.d} K, b43={aniso.b43} K")

bz = np.linspace(-4.0, 4.0, 401)
levels, _ = spectra(system, aniso, 0.0, 0.0, bz, vectors=False)
rows = np.column_stack([bz, levels]).tolist()

levels_path = out_dir / "spectrum.csv"
writers.write_csv(
    levels_path,
    [("compound", compound.id), ("bx", "0.0"), ("points", str(bz.size))],
    ["bz"] + [f"e{i}" for i in range(system.dim)],
    rows,
)
print(f"wrote {levels_path}")

# where the semiclassical landscape changes character along the same axis
rp = reduce_params(system, aniso, FieldVector())
res = sweep_crossings(rp, "bz", (-4.0, 4.0))
print(f"wells born/die at bz = {[round(v, 4) for v in res.bifurcation_values]} K")
print(f"well degeneracy at bz = {[round(v, 4) for v in res.maxwell_values]} K")

marks_path = out_dir / "spectrum_marks.csv"
writers.write_csv(
    marks_path,
    [("compound", compound.id)],
    ["kind", "bz"],
    [["bifurcation", float(v)] for v in res.bifurcation_values]
    + [["maxwell_minima", float(v)] for v in res.maxwell_values],
)
print(f"wrote {marks_path}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed, skipping the png")
else:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for i in range(system.dim):
        ax.plot(bz, levels[:, i], lw=0.8, color="tab:blue")
    for v in res.bifurcation_values:
        ax.axvline(v, color="tab:red", ls="--", lw=0.8)
    for v in res.maxwell_values:
        ax.axvline(v, color="tab:green", ls=":", lw=0.8)
    ax.set_xlabel("bz (K)")
    ax.set_ylabel("energy (K)")
    ax.set_title("exact levels vs semiclassical transition fields")
    fig.tight_layout()
    png = out_dir / "spectrum.png"
    fig.savefig(png, dpi=130)
    print(f"wrote {png}")
