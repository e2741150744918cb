"""The comparison figure: closed-form straightness against direction.

One grid curve plus radial curves for 3, 4, 8 and 16 spokes, sampled over
[0, pi/4].  Writes demos/out/curves.csv and demos/out/curves.svg.
"""

import math
from pathlib import Path

from straightnet import straightness_radial
from straightnet.analytic import analytic_curve
from straightnet.svgplot import Series, render_svg, write_svg
from straightnet.tables import write_curve_csv

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

kinds = [("rectilinear", 4)] + [("radial", k) for k in (3, 4, 8, 16)]
curves = [(kind, k, analytic_curve(kind, k, 201)) for kind, k in kinds]

write_curve_csv(OUT / "curves.csv", curves)

series = [
    Series("rectilinear" if kind == "rectilinear" else f"radial k={k}", tuple(rows))
    for kind, k, rows in curves
]
write_svg(OUT / "curves.svg", render_svg(series, "direction alpha (rad)", "straightness"))
print(f"wrote {OUT / 'curves.csv'} and {OUT / 'curves.svg'}")

# The grid's worst direction is the diagonal; a 4-spoke wheel does far worse
# at its bisector, while 16 spokes never drop below 0.82.
print(f"grid at pi/4:      {1 / (math.cos(math.pi / 4) + math.sin(math.pi / 4)):.7f}")
print(f"4 spokes at pi/4:  {straightness_radial(4, math.pi / 4):.7f}")
print(f"16 spokes, floor:  {straightness_radial(16, math.pi / 16):.7f}")
