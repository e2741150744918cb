"""All-pairs straightness of grids as they grow.

The mean settles into a slowly drifting plateau just above 0.8: finer
grids do not buy straighter routes.  Writes demos/out/grid_sweep.csv and
a plot next to it.
"""

from pathlib import Path

from straightnet import sweep_rectilinear
from straightnet.svgplot import Series, render_svg, write_svg
from straightnet.tables import write_sweep_csv

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

results = sweep_rectilinear(range(1, 13))
write_sweep_csv(OUT / "grid_sweep.csv", results)

print("size  mean      std       pairs")
for r in results:
    s = r.summary
    print(
        f"{r.parameters['squares_per_side']:>4}  {s.mean:.6f}  {s.std_dev:.6f}  {s.pair_count:>6}"
    )

points = tuple(
    (r.parameters["squares_per_side"], r.summary.mean) for r in results
)
svg = render_svg([Series("mean straightness", points)], "squares per side", "straightness")
write_svg(OUT / "grid_sweep.svg", svg)
print(f"wrote {OUT / 'grid_sweep.csv'} and {OUT / 'grid_sweep.svg'}")
