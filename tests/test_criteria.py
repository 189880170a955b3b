import pytest

from polysyz import (
    cor1,
    cor_canonical_product,
    cor_hilbert,
    cor_polytope,
    cor_prodproj,
)
from polysyz.errors import DegenerateInput


class TestDimensionBound:
    def test_examples(self):
        assert cor1(2, 2, 1).guaranteed
        assert cor1(3, 2, 0).guaranteed
        r = cor1(2, 1, 1)
        assert not r.guaranteed
        assert r.threshold == 2

    def test_echo(self):
        r = cor1(3, 5, 2)
        assert r.inputs == {"n": 3, "d": 5, "p": 2}
        assert r.guaranteed_p == 2


class TestHilbertRoots:
    def test_examples(self, unit_triangle, cubic_triangle):
        for p in (1, 2, 3):
            assert cor_hilbert(unit_triangle, p, p).guaranteed
        r = cor_hilbert(cubic_triangle, 2, 1)
        assert r.guaranteed and r.threshold == 2
        assert not cor_hilbert(cubic_triangle, 1, 1).guaranteed

    def test_requires_positive_p(self, unit_triangle):
        with pytest.raises(ValueError):
            cor_hilbert(unit_triangle, 3, 0)

    def test_never_weaker_than_dimension_bound(self, corpus50):
        # when r >= 1 the Hilbert threshold is at most n-1+p
        for P in corpus50:
            for p in (1, 2):
                rh = cor_hilbert(P, 0, p)
                if rh.inputs["r"] >= 1:
                    assert rh.threshold <= cor1(P.dim, 0, p).threshold


class TestPolytopeNormality:
    def test_unit_triangle_vacuous(self, unit_triangle):
        r = cor_polytope(unit_triangle)
        assert r.threshold == 0
        assert r.inputs.get("vacuous") is True
        assert not r.guaranteed

    def test_simplex112(self, simplex112):
        r = cor_polytope(simplex112)
        assert r.threshold == 2
        assert r.guaranteed_p == 0
        assert r.inputs["crosscheck_normal"] is True

    def test_cubic(self, cubic_triangle):
        r = cor_polytope(cubic_triangle)
        assert r.threshold == 2
        assert r.guaranteed_p == 0
        assert r.inputs["crosscheck_normal"] is True


class TestSegreVeronese:
    def test_examples(self):
        assert not cor_prodproj([1, 1], (1, 1), 3).guaranteed
        assert cor_prodproj([2, 2], (2, 2), 2).guaranteed
        assert cor_prodproj([1, 2], (0, 2), 2).guaranteed

    def test_all_zero_twist(self):
        assert not cor_prodproj([1, 1], (0, 0), 1).guaranteed


class TestAdjointProduct:
    def test_p1xp1(self):
        # K = (-2,-2); three unit weights land on O(1,1)
        r = cor_canonical_product([1, 1], (1, 1), 1)
        assert r.guaranteed
        assert r.threshold == (1, 1)
        assert r.inputs["summed_weights"] == 3

    def test_single_projective_plane(self):
        r = cor_canonical_product([2], (1,), 1)
        assert r.guaranteed
        assert r.inputs["summed_weights"] == 4
        assert r.threshold == (1,)

    def test_below_threshold(self):
        assert not cor_canonical_product([1, 1], (0, 1), 1).guaranteed

    def test_requires_positive_p(self):
        with pytest.raises(ValueError):
            cor_canonical_product([1, 1], (1, 1), 0)


@pytest.mark.parametrize("criterion", [
    lambda p: cor1(2, 2, p),
    lambda p: cor_prodproj([2, 2], (2, 2), p),
], ids=["dimension_bound", "segre_veronese"])
def test_negative_p_is_refused(criterion):
    # (N_p) is defined for p >= 0; no criterion guarantees an (N_-1)
    assert criterion(0).guaranteed_p == 0
    with pytest.raises(DegenerateInput):
        criterion(-1)


@pytest.mark.parametrize("criterion", [cor_prodproj, cor_canonical_product])
@pytest.mark.parametrize("n, d", [([2, 2], (3,)), ([1], (2, 2)), ([0], ())])
def test_twist_of_another_length_is_refused(criterion, n, d):
    # one twist coordinate per factor; a shorter twist must not read as a
    # guarantee on the factors it covers
    with pytest.raises(DegenerateInput):
        criterion(n, d, 2)


@pytest.mark.parametrize("criterion", [cor_prodproj, cor_canonical_product])
@pytest.mark.parametrize("n, d", [([-1, 2], (1, 1)), ([0], (2,))])
def test_factor_dimension_below_one_is_refused(criterion, n, d):
    # a factor P^n needs n >= 1; a negative one must not read as a guarantee
    with pytest.raises(DegenerateInput, match="at least 1"):
        criterion(n, d, 1)
