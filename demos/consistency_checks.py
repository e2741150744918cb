"""The built-in cross-checks, plus the pointwise grid-vs-wheel comparison.

Equivalent to ``straightnet validate`` but showing the library calls.
"""

from straightnet.analytic import dominance_fraction
from straightnet.validation import run_all_checks

for result in run_all_checks():
    status = "ok" if result.passed else "FAIL"
    print(
        f"{result.name:<34} deviation {result.max_deviation:.3e} "
        f"(tolerance {result.tolerance:.0e})  {status}"
    )

# Direction-by-direction the 8-spoke wheel only beats the grid on about a
# third of [0, pi/4]; averaged over directions it wins, and 16 spokes win
# pointwise on most of the range.
for spokes in (8, 16):
    share = dominance_fraction(spokes)
    print(f"{spokes:>2} spokes beat the grid on {share:.1%} of directions")
