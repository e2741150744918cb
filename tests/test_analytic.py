import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from straightnet import (
    analytic_curve,
    dominance_fraction,
    straightness_radial,
    straightness_rectilinear,
)
from straightnet.analytic import (
    DOMINANCE_SAMPLES,
    MAX_CURVE_SAMPLES,
    canonicalize,
    mesh_oracle_radial,
    sector_angle,
)

from oracles import (
    scalar_canonicalize,
    scalar_straightness_radial,
    scalar_straightness_rectilinear,
)

SQRT2_INV = 1.0 / math.sqrt(2.0)


class TestSectorAngle:
    def test_square_wheel(self):
        assert sector_angle(4) == math.pi / 2

    @pytest.mark.parametrize("k", [2, 1, 0, -3])
    def test_degenerate_wheels_rejected(self, k):
        with pytest.raises(ValueError):
            sector_angle(k)

    def test_fractional_spoke_count_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            sector_angle(4.5)

    @pytest.mark.parametrize("k", [8.0, True, None, math.inf, "8"])
    @pytest.mark.parametrize(
        "call",
        [
            sector_angle,
            lambda k: straightness_radial(k, 0.3),
            dominance_fraction,
            lambda k: mesh_oracle_radial(k, 0.3),
        ],
        ids=["sector_angle", "straightness_radial", "dominance", "mesh_oracle"],
    )
    def test_spoke_count_is_an_integer(self, call, k):
        # one rule for every count: an integral floating value is refused too
        with pytest.raises(ValueError, match="radii_count must be an integer"):
            call(k)

    def test_numpy_spoke_counts_accepted(self):
        assert sector_angle(np.int64(8)) == sector_angle(8)
        assert straightness_radial(np.uint8(8), 0.3) == straightness_radial(8, 0.3)


class TestCanonicalize:
    def test_reflection_into_half_sector(self):
        assert canonicalize(math.pi / 2, math.pi / 3) == pytest.approx(
            math.pi / 6, abs=1e-15
        )

    def test_full_turn_periodicity(self):
        assert canonicalize(math.pi / 2, 2 * math.pi + math.pi / 8) == pytest.approx(
            math.pi / 8, abs=1e-12
        )

    def test_rotation_without_reflection(self):
        # 7*pi/8 mod pi/4 = pi/8, already at the half-sector boundary
        assert canonicalize(math.pi / 4, 7 * math.pi / 8) == pytest.approx(
            math.pi / 8, abs=1e-12
        )

    def test_negative_direction(self):
        assert canonicalize(math.pi / 2, -math.pi / 6) == pytest.approx(
            math.pi / 6, abs=1e-15
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonicalize(math.pi / 2, math.nan)
        with pytest.raises(ValueError):
            canonicalize(0.0, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(min_value=3, max_value=64),
        alpha=st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_result_in_half_sector_and_idempotent(self, k, alpha):
        theta = sector_angle(k)
        reduced = canonicalize(theta, alpha)
        assert 0.0 <= reduced <= theta / 2 + 1e-15
        assert canonicalize(theta, reduced) == reduced

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(min_value=3, max_value=32),
        alpha=st.floats(min_value=-20.0, max_value=20.0),
    )
    def test_reduction_preserves_straightness(self, k, alpha):
        theta = sector_angle(k)
        reduced = canonicalize(theta, alpha)
        assert straightness_radial(k, alpha) == pytest.approx(
            straightness_radial(k, reduced), abs=1e-12
        )


class TestRectilinearFormula:
    def test_axis_move_is_straight(self):
        assert straightness_rectilinear(0.0) == 1.0

    def test_diagonal_is_worst(self):
        assert straightness_rectilinear(math.pi / 4) == pytest.approx(
            SQRT2_INV, abs=1e-15
        )

    def test_symmetry_about_diagonal(self):
        # value at pi/3 equals the reflected value at pi/6
        assert straightness_rectilinear(math.pi / 3) == pytest.approx(
            0.7320508075688773, abs=1e-15
        )
        assert straightness_rectilinear(math.pi / 3) == straightness_rectilinear(
            math.pi / 6
        )

    def test_quarter_turn_periodicity(self):
        for alpha in np.linspace(0.0, math.pi / 4, 20):
            assert straightness_rectilinear(alpha + math.pi / 2) == pytest.approx(
                straightness_rectilinear(alpha), abs=1e-12
            )

    def test_range(self):
        values = [straightness_rectilinear(a) for a in np.linspace(-7.0, 7.0, 500)]
        assert min(values) >= SQRT2_INV - 1e-12
        assert max(values) <= 1.0 + 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            straightness_rectilinear(math.inf)


class TestRadialFormula:
    def test_square_wheel_bisector(self):
        assert straightness_radial(4, math.pi / 4) == pytest.approx(
            1.0 / (1.0 + math.sqrt(2.0)), abs=1e-15
        )

    def test_eight_spokes_bisector(self):
        assert straightness_radial(8, math.pi / 8) == pytest.approx(
            0.6681786379192989, abs=1e-15
        )

    def test_three_spokes_bisector(self):
        assert straightness_radial(3, math.pi / 3) == pytest.approx(
            0.2679491924311227, abs=1e-15
        )

    @pytest.mark.parametrize("k", [3, 4, 7, 16, 101])
    def test_spoke_direction_is_straight(self, k):
        assert straightness_radial(k, 0.0) == 1.0

    def test_few_spokes_rejected(self):
        with pytest.raises(ValueError):
            straightness_radial(2, 0.1)

    @pytest.mark.parametrize("k", [3, 4, 8, 16])
    def test_strictly_decreasing_on_half_sector(self, k):
        theta = sector_angle(k)
        alphas = np.linspace(0.0, theta / 2, 200)
        values = [straightness_radial(k, a) for a in alphas]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("k", [3, 5, 8, 13, 32])
    def test_bisector_symmetry(self, k):
        theta = sector_angle(k)
        for alpha in np.linspace(0.0, theta / 2, 150):
            assert abs(
                straightness_radial(k, alpha) - straightness_radial(k, theta - alpha)
            ) <= 1e-12

    @pytest.mark.parametrize("k", [3, 6, 17])
    def test_sector_rotation(self, k):
        theta = sector_angle(k)
        for alpha in np.linspace(0.0, theta / 2, 50):
            reference = straightness_radial(k, alpha)
            for turns in (1, 4, k):
                assert abs(
                    straightness_radial(k, alpha + turns * theta) - reference
                ) <= 1e-12

    def test_many_spokes_approach_perfect_straightness(self):
        k = 10_000
        theta = sector_angle(k)
        worst = min(
            straightness_radial(k, a) for a in np.linspace(0.0, theta / 2, 101)
        )
        assert worst >= 1.0 - 1e-3

    def test_reduction_is_load_bearing(self):
        """The raw denominator formula is wrong beyond the bisector.

        Feeding it an unreduced direction from the upper half-sector must
        disagree with the reduced evaluation; if this ever converges the
        symmetry tests would stop guarding anything.
        """
        k, alpha = 5, 0.2
        theta = sector_angle(k)
        half_apex = (math.pi - theta) / 2
        raw = lambda a: 1.0 / (  # noqa: E731
            math.cos(a) + math.sin(a) / math.tan(half_apex) + math.sin(a) / math.sin(half_apex)
        )
        assert abs(raw(theta - alpha) - straightness_radial(k, theta - alpha)) > 1e-3
        assert raw(alpha) == pytest.approx(
            straightness_radial(k, theta - alpha), abs=1e-12
        )


class TestMeshOracle:
    """The coordinate-geometry route model, independent of the closed form."""

    def test_destination_on_spoke(self):
        assert mesh_oracle_radial(4, 0.0) == 1.0

    def test_square_wheel_bisector(self):
        assert mesh_oracle_radial(4, math.pi / 4) == pytest.approx(
            0.4142135623730951, abs=1e-12
        )

    def test_oracle_reproduces_reflection(self):
        assert mesh_oracle_radial(8, 3 * math.pi / 16) == pytest.approx(
            straightness_radial(8, math.pi / 16), abs=1e-12
        )

    def test_routes_are_sane(self):
        # both routes are at least the crow-flies distance exactly when this holds
        assert 0 < mesh_oracle_radial(6, 0.3) <= 1

    def test_direction_outside_sector_rejected(self):
        with pytest.raises(ValueError):
            mesh_oracle_radial(4, -0.1)
        with pytest.raises(ValueError):
            mesh_oracle_radial(4, math.pi / 2 + 0.1)

    def test_closed_form_matches_oracle_everywhere(self):
        worst = 0.0
        for k in range(3, 33):
            theta = sector_angle(k)
            for i in range(40):
                alpha = theta * (i + 0.5) / 40
                expected = straightness_radial(k, canonicalize(theta, alpha))
                worst = max(worst, abs(mesh_oracle_radial(k, alpha) - expected))
        assert worst <= 1e-9


class TestAnalyticCurve:
    def test_rectilinear_three_samples(self):
        rows = analytic_curve("rectilinear", None, 3)
        assert rows[0] == (0.0, 1.0)
        assert rows[1][0] == pytest.approx(math.pi / 8, abs=1e-15)
        assert rows[1][1] == pytest.approx(0.7653668647301796, abs=1e-12)
        assert rows[2][1] == pytest.approx(SQRT2_INV, abs=1e-12)

    def test_radial_curve_respects_sector_minimum(self):
        rows = analytic_curve("radial", 16, 400)
        floor = straightness_radial(16, math.pi / 16)
        assert all(s >= floor - 1e-12 for _, s in rows)

    def test_more_spokes_never_worse(self):
        sparse = dict(analytic_curve("radial", 3, 257))
        dense = dict(analytic_curve("radial", 16, 257))
        assert all(dense[a] >= sparse[a] - 1e-12 for a in sparse)

    def test_square_wheel_matches_grid_period(self):
        # four spokes at right angles behave like the grid's worst diagonal
        rows = dict(analytic_curve("radial", 4, 5))
        assert rows[math.pi / 4] == pytest.approx(0.4142135623730951, abs=1e-12)

    def test_needs_at_least_two_steps(self):
        with pytest.raises(ValueError):
            analytic_curve("rectilinear", None, 1)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, None])
    def test_step_count_is_an_integer(self, steps):
        # 2.5 used to give three samples, the last beyond alpha_max
        with pytest.raises(ValueError, match="alpha_steps must be an integer"):
            analytic_curve("rectilinear", None, steps, 1.0)

    @pytest.mark.parametrize("k", [8.0, True, math.inf])
    def test_spoke_count_is_an_integer(self, k):
        # None is not here: it means "no spoke count" and has its own message
        with pytest.raises(ValueError, match="radii_count must be an integer"):
            analytic_curve("radial", k, 5)

    @pytest.mark.parametrize(
        "steps", [MAX_CURVE_SAMPLES + 1, 10**12, 10**400], ids=["cap+1", "1e12", "1e400"]
    )
    def test_sample_cap_refused_before_sampling(self, steps):
        # 10**12 samples would need 7.28 TiB; 10**400 overflowed a float
        message = f"{steps} curve samples, more than MAX_CURVE_SAMPLES=1000000"
        with pytest.raises(ValueError) as refused:
            analytic_curve("rectilinear", None, steps)
        assert str(refused.value) == message

    def test_numpy_step_count_accepted(self):
        assert analytic_curve("radial", 8, np.int64(5)) == analytic_curve("radial", 8, 5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            analytic_curve("hexagonal", None, 10)

    def test_radial_needs_spoke_count(self):
        with pytest.raises(ValueError):
            analytic_curve("radial", None, 10)

    def test_wider_range_keeps_rippling(self):
        rows = analytic_curve("radial", 8, 801, alpha_max=math.pi)
        peaks = sum(1 for _, s in rows if s > 1.0 - 1e-9)
        assert peaks == 5  # spoke directions at multiples of pi/4


class TestDominance:
    """Pointwise and direction-averaged comparison against the grid curve."""

    def test_eight_spokes_win_share(self):
        # frozen from a 100k-sample evaluation of the same grid comparison
        assert dominance_fraction(8) == pytest.approx(0.3438, abs=5e-3)

    def test_sixteen_spokes_win_most_directions(self):
        assert dominance_fraction(16) > 0.5

    def test_direction_averaged_crossover_at_eight_spokes(self):
        """Averaged over directions, eight spokes first beat the grid."""

        def averaged(evaluate, upper):
            alphas = np.linspace(0.0, upper, 20001)
            return np.trapezoid(evaluate(alphas), alphas) / upper

        grid_mean = averaged(straightness_rectilinear, math.pi / 4)
        seven = averaged(lambda a: straightness_radial(7, a), sector_angle(7) / 2)
        eight = averaged(lambda a: straightness_radial(8, a), sector_angle(8) / 2)
        assert seven < grid_mean < eight

    @pytest.mark.parametrize("k", [3, 8, 16])
    def test_matches_scalar_count(self, k):
        n = DOMINANCE_SAMPLES
        alphas = [(math.pi / 4.0) * i / (n - 1) for i in range(n)]
        wins = sum(
            scalar_straightness_radial(k, a) >= scalar_straightness_rectilinear(a)
            for a in alphas
        )
        assert dominance_fraction(k) == wins / n


# Directions far outside one sector, both signs, plus exact sector multiples.
WIDE_DIRECTIONS = np.concatenate(
    [np.linspace(-50.0, 50.0, 4001), [0.0, -0.0, math.pi, -math.pi, 2 * math.pi]]
)


class TestArrayPath:
    """Arrays of directions give exactly the one-at-a-time ``math`` values."""

    @pytest.mark.parametrize("k", range(3, 33))
    def test_canonicalize_matches_scalar(self, k):
        theta = sector_angle(k)
        alphas = np.concatenate([WIDE_DIRECTIONS, theta * np.arange(-3, 4)])
        expected = [scalar_canonicalize(theta, a) for a in alphas.tolist()]
        assert canonicalize(theta, alphas).tolist() == expected

    @pytest.mark.parametrize("k", range(3, 33))
    def test_radial_matches_scalar(self, k):
        alphas = np.concatenate([WIDE_DIRECTIONS, sector_angle(k) * np.arange(-3, 4)])
        expected = [scalar_straightness_radial(k, a) for a in alphas.tolist()]
        assert straightness_radial(k, alphas).tolist() == expected

    def test_rectilinear_matches_scalar(self):
        expected = [scalar_straightness_rectilinear(a) for a in WIDE_DIRECTIONS.tolist()]
        assert straightness_rectilinear(WIDE_DIRECTIONS).tolist() == expected

    @pytest.mark.parametrize("k", [3, 8, 32])
    def test_curve_matches_scalar_loop(self, k):
        steps, alpha_max = 1001, 6.3
        alphas = [alpha_max * i / (steps - 1) for i in range(steps)]
        expected = [(a, scalar_straightness_radial(k, a)) for a in alphas]
        assert analytic_curve("radial", k, steps, alpha_max) == expected

    def test_scalar_in_gives_float_out(self):
        assert type(canonicalize(math.pi / 2, 2.0)) is float
        assert type(straightness_rectilinear(0.3)) is float
        assert type(straightness_radial(8, np.float64(0.3))) is float

    def test_array_shape_is_kept(self):
        alphas = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        assert straightness_radial(5, alphas).shape == (2, 3)
        assert straightness_rectilinear(alphas).shape == (2, 3)

    def test_any_non_finite_direction_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            straightness_radial(8, np.array([0.1, math.nan]))
