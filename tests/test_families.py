"""Family generators: exact construction values, biorthogonality, predictions."""
import math
import pickle
from fractions import Fraction

import pytest

from defectlab import (
    MalformedDefectSet,
    RandomFiniteFamily,
    SparseVector,
    dist_sq,
    make_defect_pair,
    make_e1_plus_ek,
    make_finite_defect_set,
    make_infinite_defect_set,
    make_random_finite,
    make_young,
    parse_family,
    parse_set,
    rank_of_vectors,
)
from defectlab.families import FamilySyntaxError, UnsupportedFamily

Q = Fraction


def dense(v, ambient):
    return v.to_dense(ambient)


def assert_biorthogonal(family, n):
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            expect = Q(1) if j == k else Q(0)
            assert family.vector(j).dot(family.dual(k)) == expect, (j, k)


class TestE1PlusEk:
    def test_worked_vectors(self):
        fam = make_e1_plus_ek(2)
        assert dense(fam.vector(1), 3) == [Q(1), Q(1), Q(0)]
        assert dense(fam.vector(2), 3) == [Q(1), Q(0), Q(1)]
        assert fam.dual(1) == SparseVector.unit(2)
        assert fam.dual(2) == SparseVector.unit(3)
        assert fam.index_offset == 1

    def test_biorthogonal_identity(self):
        assert_biorthogonal(make_e1_plus_ek(3), 3)

    def test_dist_worked_example(self):
        fam = make_e1_plus_ek(2)
        gens = [fam.vector(1), fam.vector(2)]
        assert dist_sq(SparseVector.unit(1), gens) == Q(1, 3)

    def test_predicted_defect(self):
        fam = make_e1_plus_ek(5)
        assert fam.predicted_defect(parse_set("fin(1,2)")) == 1
        assert fam.predicted_defect(parse_set("all")) == 0
        assert fam.witness_space(parse_set("fin(2)"), 5) == [SparseVector.unit(1)]
        assert fam.witness_space(parse_set("all"), 5) == []


class TestYoung:
    def test_worked_vectors_width_2(self):
        fam = make_young(2)
        # f-block occupies coordinates 1..2, e_k at 2+k
        assert dense(fam.vector(1), 5) == [Q(2), Q(0), Q(1), Q(0), Q(0)]
        assert dense(fam.vector(2), 5) == [Q(4), Q(2), Q(0), Q(1), Q(0)]
        assert dense(fam.vector(3), 5) == [Q(8), Q(8, 3), Q(0), Q(0), Q(1)]

    def test_biorthogonal_pairings(self):
        fam = make_young(2)
        assert fam.vector(2).dot(fam.dual(3)) == 0
        assert fam.vector(3).dot(fam.dual(3)) == 1
        assert_biorthogonal(fam, 6)

    def test_width_zero_is_orthonormal(self):
        fam = make_young(0)
        for k in range(1, 5):
            assert fam.vector(k) == SparseVector.unit(k)

    def test_predictions(self):
        fam = make_young(2)
        assert fam.predicted_defect(parse_set("fin(3)")) == 2
        assert fam.predicted_defect(parse_set("res(2;0)")) == 0
        assert len(fam.witness_space(parse_set("none"), 10)) == 2


class TestDefectPair:
    def test_worked_vectors(self):
        fam = make_defect_pair(2)
        assert dense(fam.vector(1), 3) == [Q(1), Q(1), Q(1)]
        assert dense(fam.vector(3), 5) == [Q(1), Q(3), Q(0), Q(0), Q(1)]

    def test_m1_matches_e1_plus_ek(self):
        pair = make_defect_pair(1)
        base = make_e1_plus_ek(5)
        for k in range(1, 6):
            assert pair.vector(k) == base.vector(k)
            assert pair.dual(k) == base.dual(k)

    def test_biorthogonal(self):
        for m in (1, 2, 3):
            assert_biorthogonal(make_defect_pair(m), 6)

    def test_predictions_and_witnesses(self):
        fam = make_defect_pair(3)
        assert fam.predicted_defect(parse_set("fin(7)")) == 3
        assert fam.predicted_defect(parse_set("res(5;2)")) == 0
        fam2 = make_defect_pair(2)
        assert fam2.witness_space(parse_set("none"), 8) == [
            SparseVector.unit(1), SparseVector.unit(2),
        ]

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            make_defect_pair(0)


class TestFiniteDefectSet:
    def test_worked_vectors(self):
        fam = make_finite_defect_set((0, 1, 3))
        assert dense(fam.vector(1), 4) == [Q(1), Q(1), Q(1), Q(1)]
        assert dense(fam.vector(2), 5) == [Q(0), Q(2), Q(4), Q(0), Q(1)]
        assert fam.vector(3) == SparseVector.unit(6)
        assert dense(fam.vector(4), 7) == [Q(1), Q(4), Q(16), Q(0), Q(0), Q(0), Q(1)]

    def test_biorthogonal(self):
        assert_biorthogonal(make_finite_defect_set((0, 1, 3)), 6)

    def test_class_assignment(self):
        fam = make_finite_defect_set((0, 1, 3))
        assert [fam.class_of(k) for k in range(1, 7)] == [0, 1, 2, 0, 1, 2]

    def test_predicted_defects_per_class(self):
        fam = make_finite_defect_set((0, 1, 3))
        # class j collects indices k ≡ j+1 (mod 3); its defect is k_j
        assert fam.predicted_defect(parse_set("res(3;1)")) == 0
        assert fam.predicted_defect(parse_set("res(3;2)")) == 1
        assert fam.predicted_defect(parse_set("res(3;0)")) == 3
        assert fam.predicted_defect(parse_set("fin(1,2,3)")) == 3
        assert fam.predicted_defect(parse_set("all")) == 0

    def test_witness_bases(self):
        fam = make_finite_defect_set((0, 1, 3))
        assert fam.witness_space(parse_set("res(3;1)"), 30) == []
        assert fam.witness_space(parse_set("res(3;2)"), 30) == [SparseVector.unit(1)]
        assert fam.witness_space(parse_set("res(3;0)"), 30) == [
            SparseVector.unit(1), SparseVector.unit(2), SparseVector.unit(3),
        ]

    def test_rejects_malformed_sets(self):
        with pytest.raises(MalformedDefectSet):
            make_finite_defect_set((1, 3))
        with pytest.raises(MalformedDefectSet):
            make_finite_defect_set((0, 3, 3))
        with pytest.raises(MalformedDefectSet):
            make_finite_defect_set(())


class TestInfiniteDefectSet:
    def test_superscript_pattern(self):
        fam = make_infinite_defect_set((0, "inf"))
        assert [fam.superscript(n) for n in range(1, 7)] == [0, 0, 1, 0, 1, 2]
        assert [fam.superscript(n) for n in range(7, 11)] == [0, 1, 2, 3]

    def test_worked_vectors(self):
        fam = make_infinite_defect_set((0, "inf"))
        # interleaved layout: f_1 at coordinate 1, e_1 at coordinate 2
        assert fam.vector(1) == SparseVector.from_pairs([(1, Q(2)), (2, Q(1))])
        fam2 = make_infinite_defect_set((0, 2, "inf"))
        # x_3 has superscript 1, so k_1 = 2 and only f_3 survives
        assert fam2.vector(3) == SparseVector.from_pairs([(5, Q(8, 9)), (6, Q(1))])

    def test_biorthogonal(self):
        assert_biorthogonal(make_infinite_defect_set((0, 2, "inf")), 8)

    def test_witness_for_sigma_fin1(self):
        fam = make_infinite_defect_set((0, "inf"))
        witnesses = fam.witness_space(parse_set("fin(1)"), 10, window=1)
        # f_1 - 2 e_1 kills the only sigma-member x_1 = 2 f_1 + e_1
        assert witnesses == [SparseVector.from_pairs([(1, Q(1)), (2, Q(-2))])]

    def test_predicted_defects(self):
        fam = make_infinite_defect_set((0, 2, "inf"))
        assert fam.predicted_defect(parse_set("fin(1,2,3)")) == math.inf
        assert fam.predicted_defect(parse_set("all")) == 0
        assert fam.witnesses_unbounded(parse_set("fin(2)"))
        assert not fam.witnesses_unbounded(parse_set("all"))

    def test_requires_infinity_marker(self):
        with pytest.raises(MalformedDefectSet):
            make_infinite_defect_set((0, 2))


class TestRandomFinite:
    def test_deterministic_per_seed(self):
        a = make_random_finite(5, 3, seed=42)
        b = make_random_finite(5, 3, seed=42)
        for k in range(1, 4):
            assert a.vector(k) == b.vector(k)
            assert a.dual(k) == b.dual(k)

    def test_biorthogonal_both_styles(self):
        for style in ("span", "perturbed"):
            fam = make_random_finite(6, 4, seed=7, dual_style=style)
            assert_biorthogonal(fam, 4)

    def test_independent(self):
        fam = make_random_finite(6, 5, seed=1)
        assert rank_of_vectors([fam.vector(k) for k in range(1, 6)]) == 5

    def test_count_exceeds_dim_rejected(self):
        with pytest.raises(ValueError):
            make_random_finite(3, 4, seed=0)

    def test_no_defect_prediction(self):
        fam = make_random_finite(4, 4, seed=0)
        with pytest.raises(UnsupportedFamily):
            fam.predicted_defect(parse_set("none"))

    def test_keywords_and_pickle(self):
        fam = RandomFiniteFamily(dim=5, count=3, seed=4, dual_style="perturbed")
        assert (fam.kind, fam.index_offset, fam.max_index()) == ("random", 0, 3)
        copy = pickle.loads(pickle.dumps(fam))
        assert copy.descriptor() == fam.descriptor()
        for k in range(1, 4):
            assert (copy.vector(k), copy.dual(k)) == (fam.vector(k), fam.dual(k))


class TestDescriptorGrammar:
    def test_round_trip(self):
        for text in [
            "e1-plus-ek",
            "young(w=2)",
            "defect-pair(m=3)",
            "finite-set(0,1,3)",
            "infinite-set(0,2,inf)",
            "random(d=5,n=3,seed=9,dual=perturbed)",
        ]:
            fam = parse_family(text)
            assert parse_family(fam.descriptor()).descriptor() == fam.descriptor()

    def test_errors(self):
        with pytest.raises(FamilySyntaxError):
            parse_family("nope(m=1)")
        with pytest.raises(FamilySyntaxError):
            parse_family("young(w=two)")
        with pytest.raises(FamilySyntaxError):
            parse_family("defect-pair")
        with pytest.raises(MalformedDefectSet):
            parse_family("finite-set(1,2)")
        with pytest.raises(MalformedDefectSet):
            parse_family("infinite-set(0,2)")
