"""All-pairs straightness of radio-concentric networks over spoke counts.

Sides carry intermediate destination nodes (the sweep default), so few
spokes mean real detours; the mean climbs with the spoke count and passes
the grid plateau around 8 to 10 spokes for multi-ring networks, nearly
independently of the ring count.  Writes demos/out/radial_sweep.csv and a
plot with one curve per ring count.
"""

from pathlib import Path

from straightnet import sweep_radial
from straightnet.svgplot import render_svg, write_svg
from straightnet.tables import plot_series, write_sweep_csv

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

results = sweep_radial(range(3, 21), range(1, 6))
csv_path = OUT / "radial_sweep.csv"
write_sweep_csv(csv_path, results)

table = {
    (r.parameters["radii"], r.parameters["rings"]): r.summary.mean for r in results
}
print("rings  first spoke count with mean above 0.80")
for rings in range(1, 6):
    crossover = next((k for k in range(3, 21) if table[(k, rings)] > 0.80), None)
    print(f"{rings:>5}  {crossover}")

_, _, series = plot_series(csv_path, "radii", "mean", ["rings"])
write_svg(OUT / "radial_sweep.svg", render_svg(series, "number of radii", "straightness"))
print(f"wrote {csv_path} and {OUT / 'radial_sweep.svg'}")
