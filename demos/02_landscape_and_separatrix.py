"""The polar potential at a few fields, then the full transition map.

First part: how the two-branch reduced potential deforms as the axial
field grows, printed as well/barrier counts and written as curves.
Second part: the bifurcation and degeneracy curves in the (bz, bx)
window that the fidelity and heat-capacity demos also use.

Usage: python3 demos/02_landscape_and_separatrix.py [out_dir]
"""

import sys
from pathlib import Path

import numpy as np

from spinscape import (
    FieldVector,
    PlaneSpec,
    classify_cell_edges,
    landscapes,
    lookup,
    potential_reduced,
    reduce_params,
    writers,
)
from spinscape.separatrix import KINDS

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
out_dir.mkdir(parents=True, exist_ok=True)

compound = lookup("3-trigonal")
thetas = np.linspace(0.0, np.pi, 361)

rows = []
for bz in (0.0, 1.5, 3.0, 3.5):
    rp = reduce_params(compound.system, compound.aniso, FieldVector(bz=bz))
    rep = landscapes([rp])[0]
    tie = ", degenerate wells" if rep.tie else ""
    print(f"bz={bz:4.1f} K: {rep.n_minima} wells, {rep.n_maxima} barriers{tie}")
    vp = potential_reduced(thetas, rp, branch=1)
    vm = potential_reduced(thetas, rp, branch=-1)
    for t, a, b in zip(thetas, np.atleast_1d(vp), np.atleast_1d(vm)):
        rows.append([float(bz), float(t), float(a), float(b)])

curves_path = out_dir / "potential_curves.csv"
writers.write_csv(
    curves_path,
    [("compound", compound.id)],
    ["bz", "theta", "v_plus", "v_minus"],
    rows,
)
print(f"wrote {curves_path}")

# the map of where those counts change
rp0 = reduce_params(compound.system, compound.aniso, FieldVector())
plane = PlaneSpec(
    axis1="bz", axis2="bx",
    range1=(-1.2, 1.2), range2=(0.2, 3.4),
    resolution=(49, 33), fixed=rp0,
)
print(f"classifying a {plane.shape[0]}x{plane.shape[1]} window, be patient...")
result = classify_cell_edges(plane)

sep_rows = []
for kind in KINDS:
    for p, line in enumerate(getattr(result, kind)):
        for v, (a, b) in enumerate(line):
            sep_rows.append([kind, p, v, float(a), float(b)])
sep_path = out_dir / "separatrix.csv"
writers.write_csv(
    sep_path,
    [("compound", compound.id), ("axes", "bz,bx")],
    ["kind", "polyline", "vertex", "bz", "bx"],
    sep_rows,
)
n_bif = result.points("bifurcation").shape[0]
n_mx = result.points("maxwell_minima").shape[0]
print(f"wrote {sep_path} ({n_bif} bifurcation points, {n_mx} degeneracy points)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed, skipping the png")
else:
    fig, ax = plt.subplots(figsize=(6, 5))
    for line in result.bifurcation:
        ax.plot(line[:, 0], line[:, 1], color="tab:red", lw=1.2)
    for line in result.maxwell_minima:
        ax.plot(line[:, 0], line[:, 1], color="tab:green", lw=1.2)
    ax.set_xlabel("bz (K)")
    ax.set_ylabel("bx (K)")
    ax.set_title("wells die on red, swap on green")
    fig.tight_layout()
    png = out_dir / "separatrix.png"
    fig.savefig(png, dpi=130)
    print(f"wrote {png}")
