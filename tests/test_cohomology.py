import pytest

from polysyz import (
    WeightPlan,
    ample_power_profile,
    build_ring,
    coh_dim_ample_power,
    coh_dim_product,
    ehrhart_polynomial,
    is_regular_product,
    is_regular_single,
    lattice_points,
    normalize_full_dim,
    np_level,
    predict_np_main,
    product_profile,
    single_plan,
)
from polysyz.errors import DegenerateInput
from polysyz.intlinalg import exact_rank


class TestAmplePower:
    def test_examples(self, unit_triangle):
        assert coh_dim_ample_power(unit_triangle, -3, 2) == 1
        assert coh_dim_ample_power(unit_triangle, -1, 2) == 0
        assert coh_dim_ample_power(unit_triangle, -1, 1) == 0
        assert coh_dim_ample_power(unit_triangle, 5, 0) == len(
            lattice_points(unit_triangle, 5)
        )
        # no cohomology below degree 0 or above the dimension
        assert coh_dim_ample_power(unit_triangle, -3, -1) == 0
        assert coh_dim_ample_power(unit_triangle, 5, 3) == 0

    def test_euler_identity(self, corpus50):
        for P in corpus50[:10]:
            h = ehrhart_polynomial(P)
            for d in range(-5, 6):
                assert ample_power_profile(P, d).euler() == h(d)

    def test_point(self):
        # a point has H^0 = 1 in every twist, and h = 1
        point = normalize_full_dim([(5, 7)])
        h = ehrhart_polynomial(point)
        for d in range(-3, 4):
            assert ample_power_profile(point, d).dims == {0: 1}
            assert ample_power_profile(point, d).euler() == h(d) == 1


class TestRegularSingle:
    def test_examples(self, unit_triangle, cubic_triangle):
        assert is_regular_single(unit_triangle, 0)
        assert is_regular_single(cubic_triangle, 2)
        assert not is_regular_single(cubic_triangle, 1)

    def test_regularity_persists(self, corpus50):
        # regular twists stay regular after adding positive multiples
        for P in corpus50[:10]:
            for m in range(4):
                if is_regular_single(P, m):
                    for u in range(1, 4):
                        assert is_regular_single(P, m + u)

    def test_multiplication_surjective_from_regular(
        self, unit_triangle, cubic_triangle, unit_square
    ):
        # regular m forces R_m (x) R_1 ->> R_{m+1}, as an exact rank check
        for P in (unit_triangle, cubic_triangle, unit_square):
            for m in range(1, 4):
                if not is_regular_single(P, m):
                    continue
                a = lattice_points(P, m)
                b = lattice_points(P, 1)
                target = lattice_points(P, m + 1)
                pos = {p: k for k, p in enumerate(target)}
                cols = []
                for u in a:
                    for v in b:
                        col = [0] * len(target)
                        col[pos[tuple(x + y for x, y in zip(u, v))]] = 1
                        cols.append(col)
                rows = [list(r) for r in zip(*cols)]
                assert exact_rank(rows) == len(target)


class TestProduct:
    def test_examples(self):
        assert all(coh_dim_product([1, 1], (-1, -1), i) == 0 for i in range(3))
        assert coh_dim_product([2], (-3,), 2) == 1
        assert coh_dim_product([1, 2], (1, 1), 0) == 6
        assert coh_dim_product([1, 2], (1, 1), -1) == 0
        assert coh_dim_product([1, 2], (-3, -4), 4) == 0

    def test_matches_ample_on_projective_plane(self, unit_triangle):
        for d in range(-6, 7):
            for i in range(3):
                assert coh_dim_product([2], (d,), i) == coh_dim_ample_power(
                    unit_triangle, d, i
                )

    def test_regularity(self):
        assert is_regular_product([1, 1], (0, 0))
        assert is_regular_product([2, 3], (0, 0))
        assert is_regular_product([1, 2], (2, 1))
        # O(-1,0) on P1xP1 is not regular: H^1(O(-2,0)) = 1
        assert coh_dim_product([1, 1], (-2, 0), 1) == 1
        assert not is_regular_product([1, 1], (-1, 0))

    @pytest.mark.parametrize("n, a", [([0], (5, 5)), ([1, 1], (0,)), ([2], ())])
    def test_twist_of_another_length_is_refused(self, n, a):
        # the length is checked before the factor dimensions
        with pytest.raises(DegenerateInput, match="twist lengths differ"):
            is_regular_product(n, a)

    @pytest.mark.parametrize("query", [
        product_profile, lambda n, a: coh_dim_product(n, a, 0), is_regular_product,
    ], ids=["profile", "dim", "regular"])
    @pytest.mark.parametrize("n, a", [([-1, 2], (1, 1)), ([-3], (1,)), ([2, 0], (0, 0))])
    def test_factor_dimension_below_one_is_refused(self, query, n, a):
        # P^n needs n >= 1; unchecked, a negative n fails inside comb or
        # reads as a product with no cohomology at all
        with pytest.raises(DegenerateInput, match="at least 1"):
            query(n, a)


class TestPrediction:
    def test_cubic_plan(self, cubic_triangle):
        for p in (1, 2, 3):
            plan = single_plan(2, p)
            result = predict_np_main(
                plan, is_regular_single(cubic_triangle, 2), plan.membership_ok()
            )
            assert result == (p, (p + 1,))

    def test_projective_plane_plan(self, unit_triangle):
        plan = single_plan(1, 4)
        result = predict_np_main(
            plan, is_regular_single(unit_triangle, 1), plan.membership_ok()
        )
        assert result == (4, (4,))

    def test_guard_when_not_regular(self, cubic_triangle):
        plan = single_plan(1, 2)
        assert (
            predict_np_main(
                plan, is_regular_single(cubic_triangle, 1), plan.membership_ok()
            )
            is None
        )

    @pytest.mark.parametrize("weights, p, message", [
        (((1,),), 0, "p must be at least 1"),
        (((2,), (1,)), 3, "at least p weight vectors"),
        (((2,), (1, 1)), 2, "wrong length"),
    ], ids=["p-below-one", "too-few-weights", "wrong-length"])
    def test_bad_plan_refused(self, weights, p, message):
        with pytest.raises(DegenerateInput, match=message):
            WeightPlan(ell=1, weights=weights, p=p)

    def test_prediction_sound_against_koszul(self, cubic_triangle):
        # predicted twists must not fail at or below the predicted level
        for p in (1, 2):
            plan = single_plan(2, p)
            result = predict_np_main(
                plan, is_regular_single(cubic_triangle, 2), plan.membership_ok()
            )
            assert result is not None
            twist = result[1][0]
            ring = build_ring(cubic_triangle, twist, 5)
            verdicts = np_level(ring, p, 4)
            assert all(v.status != "FAILS" for v in verdicts)
