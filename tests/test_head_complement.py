"""The two routes of `span_dist_sq` and `span_projections`: a
HeadFamily's head-dimensional complement against the Gram side of the
base class and the sympy oracles (distance tables, projections,
convergence tables), and which route runs."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defectlab.exact as exact
import defectlab.families as families
import defectlab.heads as heads
import defectlab.topology as topology
from conftest import (
    oracle_convergence,
    oracle_dist_sq,
    oracle_span_projections,
    union_sigma_m,
)
from defectlab.cli import main
from defectlab.exact import SparseVector, _idot, bordered_elimination, project_many
from defectlab.families import SystemFamily, parse_family
from defectlab.heads import DefectPairFamily, E1PlusEkFamily, FiniteDefectSetFamily, YoungFamily
from defectlab.indexsets import EventuallyPeriodicSet, parse_set
from defectlab.infiniteset import InfiniteDefectSetFamily
from defectlab.mixed import distance_profile, mixed_vectors
from defectlab.topology import convergence_probe

Q = Fraction

_FAMILIES = [E1PlusEkFamily(), YoungFamily(1), YoungFamily(2), DefectPairFamily(2),
             DefectPairFamily(3), FiniteDefectSetFamily((0, 1, 3)),
             FiniteDefectSetFamily((0, 2))]


@st.composite
def _sigmas(draw):
    """A finite, cofinite or residue-class σ, the last with exceptions."""
    small = st.frozensets(st.integers(1, 10), max_size=4)
    kind = draw(st.sampled_from(["finite", "cofinite", "residue"]))
    if kind == "finite":
        return EventuallyPeriodicSet.finite(draw(small))
    if kind == "cofinite":
        return EventuallyPeriodicSet.make(1, (0,), removed=draw(small))
    period = draw(st.integers(2, 4))
    residues = draw(st.frozensets(st.integers(0, period - 1), min_size=1))
    return EventuallyPeriodicSet.make(period, residues, draw(small), draw(small))


def _vector(draw, ambient):
    """A sparse rational vector on coordinates 1..ambient."""
    pairs = draw(st.lists(st.tuples(st.integers(1, ambient), st.integers(-4, 4),
                                     st.integers(1, 3)), max_size=4))
    return SparseVector.from_pairs((i, Q(a, b)) for i, a, b in pairs)


@st.composite
def _distance_cases(draw):
    family = draw(st.sampled_from(_FAMILIES))
    sigma = draw(_sigmas())
    n_list = sorted(draw(st.sets(st.integers(0, 7), min_size=1, max_size=3)))
    taken = draw(st.sets(st.integers(1, family.head), max_size=family.head))
    witnesses = [SparseVector.unit(i) for i in sorted(taken)]
    ambient = family.ambient(n_list[-1])
    # unit probes on the head and past it, and one vector reaching two
    # coordinates past the largest truncation
    probes = [SparseVector.unit(i) for i in range(1, min(ambient, 5) + 1)]
    probes.append(_vector(draw, ambient + 2))
    return family, sigma, n_list, witnesses, probes


@settings(max_examples=60, deadline=None)
@given(_distance_cases())
def test_complement_distances_match_gram_side_and_sympy(case):
    family, sigma, n_list, witnesses, probes = case
    rows = distance_profile(family, sigma, probes, n_list, [min(w.coords) for w in witnesses])
    gram = bordered_elimination(witnesses + mixed_vectors(family, sigma, n_list[-1]),
                                probes, cuts=[len(witnesses) + n for n in n_list]).dist_sq
    assert [d for _, _, d in rows] == [dists[i] for i in range(len(probes)) for dists in gram]
    for (_, n, d), (i, _) in zip(rows, [(i, n) for i in range(len(probes)) for n in n_list]):
        gens = witnesses + mixed_vectors(family, sigma, n)
        ambient = max([family.ambient(n)] + [j for v in probes for j in v.coords])
        assert d == oracle_dist_sq(probes[i], gens, ambient)


@st.composite
def _block_cases(draw):
    """A chain of (primal, duals) blocks over indices 1..8, some blocks
    empty and some indices in none, with head coordinates taken, now and
    then one past the head, and probes on the coordinates and past them."""
    family = draw(st.sampled_from(_FAMILIES + [YoungFamily(0)]))
    blocks = [([], []) for _ in range(draw(st.integers(1, 4)))]
    for k in range(1, draw(st.integers(0, 8)) + 1):
        j = draw(st.integers(0, len(blocks)))
        if j < len(blocks):
            blocks[j][draw(st.integers(0, 1))].append(k)
    bits = draw(st.lists(st.booleans(), min_size=family.head, max_size=family.head))
    taken = [i for i, bit in enumerate(bits, start=1) if bit]
    if draw(st.integers(0, 4)) == 0:
        taken.append(family.head + draw(st.integers(1, 9)))
    ambient = family.ambient(9)
    probes = [SparseVector.unit(i) for i in range(1, draw(st.integers(1, 5)) + 1)]
    probes.append(_vector(draw, ambient + 2))
    return family, blocks, taken, probes


@settings(max_examples=60, deadline=None)
@given(_block_cases())
def test_span_dist_sq_routes_match_each_other_and_sympy(case):
    family, blocks, taken, probes = case
    table = family.span_dist_sq(blocks, probes, taken)
    assert table == SystemFamily.span_dist_sq(family, blocks, probes, taken)
    assert len(table) == len(blocks)
    gens = [SparseVector.unit(i) for i in taken]
    ambient = max([family.ambient(9)] + [j for v in probes + gens for j in v.coords])
    for (primal, duals), row in zip(blocks, table):
        gens += family.vectors(primal) + [family.dual(k) for k in duals]
        assert row == [oracle_dist_sq(p, gens, ambient) for p in probes]


@pytest.mark.parametrize("family, sigma, passes", [
    ("defect-pair(m=2)", "none", 3), ("infinite-set(0,1,inf)", "all", 1)])
def test_repeated_cut_repeats_its_row(monkeypatch, capsys, family, sigma, passes):
    # a head family makes one pass per block, the repeated cut's included,
    # of its head rows less the taken ones (here both are taken); the Gram
    # route one pass in all.  Probes past ambient(4) keep a distance at n = 4
    sizes = _record_rows(monkeypatch)
    assert main(["defect", "--family", family, "--sigma", sigma, "--n-list", "4,4,8",
                 "--n", "8", "--probe-window", "8"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]["decay_table"]
    assert len(sizes) == passes
    assert [row["n"] for row in rows[:3]] == [4, 4, 8]
    assert rows[0::3] == rows[1::3]
    assert any(row["dist_sq"]["value"] != "0" for row in rows[0::3])


@st.composite
def _projection_cases(draw):
    family = draw(st.sampled_from(_FAMILIES))
    sigma = draw(_sigmas())
    n = draw(st.integers(0, 7))
    # targets past the truncation too, and one vector reaching past them
    targets = family.vectors(range(1, draw(st.integers(1, 9)) + 1))
    targets.append(_vector(draw, family.ambient(n) + 2))
    return family, sigma, n, targets


@settings(max_examples=60, deadline=None)
@given(_projection_cases())
def test_complement_projections_match_gram_side_and_sympy(case):
    family, sigma, n, targets = case
    primal = sigma.truncate(family.truncation(n))
    projections = family.span_projections(primal, targets)
    gram = SystemFamily.span_projections(family, primal, targets)
    assert gram == project_many(targets, family.vectors(primal))
    assert projections == gram == oracle_span_projections(family, sigma, n, targets)


@st.composite
def _convergence_cases(draw):
    family = draw(st.sampled_from(_FAMILIES + [YoungFamily(0)]))
    n = draw(st.integers(1, 7))
    # m_max both below and above truncation(n), where the rows repeat sigma's
    m_max = draw(st.integers(1, 2 * n + 2))
    return (family, draw(_sigmas()), m_max, n, draw(st.integers(1, 9)),
            draw(st.integers(1, 40)))


class _GramSide(SystemFamily):
    """A head family's vectors without its head layout, so that
    convergence_probe takes the nested-order Gram route."""

    def __init__(self, family):
        self.family = family

    def vector(self, k):
        return self.family.vector(k)

    def truncation(self, n):
        return self.family.truncation(n)

    def default_probe_window(self):
        return self.family.default_probe_window()


@settings(max_examples=40, deadline=None)
@given(_convergence_cases())
def test_complement_convergence_matches_gram_side_and_sympy(case):
    family, sigma, m_max, n, K, precision = case
    targets = family.vectors(range(1, K + 1))
    # each span on its own: sigma, then sigma_m for m = m_max..1
    spans = [sigma] + [union_sigma_m(sigma, m) for m in range(m_max, 0, -1)]
    alone = [family.span_dist_sq([(s.truncate(n), ())], targets)[0] for s in spans]
    blocks = [(block, ()) for block in topology._sigma_m_blocks(family, sigma, m_max, n)]
    complement = family.span_dist_sq(blocks, targets)
    assert complement == SystemFamily.span_dist_sq(family, blocks, targets) == alone
    probe = convergence_probe(*case)
    assert probe == convergence_probe(_GramSide(family), sigma, m_max, n, K, precision)
    assert probe == oracle_convergence(*case)


@pytest.mark.parametrize("family", _FAMILIES + [YoungFamily(3)], ids=lambda f: f.descriptor())
def test_head_complement_is_orthogonal_to_the_mixed_system(monkeypatch, family):
    # the rows that _moments hands bareiss_pass after each block are the
    # Gram matrix and border of the integer complement basis d_i w_i,
    # w_i = e_i - sum_{k in primal} h_k[i] e_{head+k}, which is orthogonal
    # to the span; young's d_i grow with the blocks
    sigma, n = parse_set("res(3;1)|fin(2)"), 9
    blocks = [([k for k in ks if k in sigma], [k for k in ks if k not in sigma])
              for ks in ([1, 2, 3], [4], [], [5, 6, 7, 8, 9])]
    ambient = family.ambient(n)
    # every unit vector on the coordinates and two past them, and one vector on all
    probes = [SparseVector.unit(i) for i in range(1, ambient + 3)]
    probes.append(SparseVector.from_pairs((i, Q(i, 1 + i % 3)) for i in range(1, ambient + 3)))
    passes, real = [], exact.bareiss_pass

    def recording(rows, *args, **kwargs):
        passes.append([list(row) for row in rows])
        return real(rows, *args, **kwargs)

    monkeypatch.setattr(heads, "bareiss_pass", recording)
    for taken in (set(), {1}):
        passes.clear()
        moments = [(list(d), list(r)) for _, d, r in family._moments(blocks, probes, taken)]
        span = [SparseVector.unit(i) for i in taken]
        primal, named = [], set()
        for (more_primal, duals), rows, (d, rest) in zip(blocks, passes, moments):
            primal += more_primal
            named.update(more_primal, duals)
            span += family.vectors(more_primal) + [family.dual(k) for k in duals]
            # rest: each probe's integer ||part||^2 on the e_{head+k}, k in no block
            assert rest == [sum(x * x for i, x in p.coords.items()
                                if i > family.head and i - family.head not in named)
                            for p in probes]
            basis = [SparseVector.from_pairs([(i, Q(1))] + [
                (family.head + k, -x) for k in primal for j, x in family.head_pairs(k) if j == i])
                for i in range(1, family.head + 1) if i not in taken]
            assert all(w.dot(v) == 0 for w in basis for v in span)
            assert d == [w.den for w in basis]
            assert rows == [[_idot(w.coords, v.coords) for v in basis]
                            + [_idot(w.coords, p.coords) for p in probes] for w in basis]
        if family.kind == "young" and family.head > 1:
            assert moments[0][0] != moments[-1][0]


def _record_rows(monkeypatch):
    """Replaces bareiss_pass, in exact and in heads, by a wrapper that
    records the number of rows of each pass."""
    sizes, real = [], exact.bareiss_pass

    def recording(rows, *args, **kwargs):
        sizes.append(len(rows))
        return real(rows, *args, **kwargs)

    for module in (exact, heads):
        monkeypatch.setattr(module, "bareiss_pass", recording)
    return sizes


def _record_generators(monkeypatch, *modules):
    """Replaces bordered_elimination in the modules by a wrapper that
    records the number of generators of each call."""
    sizes, real = [], exact.bordered_elimination

    def recording(generators, *args, **kwargs):
        sizes.append(len(generators))
        return real(generators, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "bordered_elimination", recording)
    return sizes


@pytest.mark.parametrize("family, sigma", [
    ("young(w=2)", "all"), ("defect-pair(m=3)", "none"), ("e1-plus-ek", "res(2;1)"),
    ("finite-set(0,1,3)", "res(3;2)"),
])
def test_head_family_distances_eliminate_at_most_head_generators(monkeypatch, capsys,
                                                                 family, sigma):
    sizes = _record_rows(monkeypatch)
    assert main(["defect", "--family", family, "--sigma", sigma, "--n", "30"]) == 0
    capsys.readouterr()
    assert len(sizes) == 6  # one pass per block, a block per cut of the default n_list
    assert max(sizes) <= parse_family(family).head


def test_infinite_set_distances_eliminate_the_mixed_family(monkeypatch, capsys):
    sizes = _record_generators(monkeypatch, families)
    assert main(["defect", "--family", "infinite-set(0,1,inf)", "--sigma", "all",
                 "--n", "30"]) == 0
    capsys.readouterr()
    family = InfiniteDefectSetFamily((0, 1))
    assert sizes == [len(family.witness_space(parse_set("all"), 30)) + 30]


def test_head_family_projections_eliminate_at_most_head_generators(monkeypatch, capsys):
    sizes = _record_rows(monkeypatch)
    assert main(["metric", "--family", "defect-pair(m=2)", "--sigma", "res(2;1)",
                 "--tau", "all", "--n", "30", "--terms", "6"]) == 0
    capsys.readouterr()
    assert sizes == [2, 2]  # one pass per span


@pytest.mark.parametrize("family, sigma", [
    ("e1-plus-ek", "none"), ("young(w=2)", "res(2;1)"), ("defect-pair(m=3)", "fin(1,2)"),
    ("finite-set(0,1,3)", "all"),
])
@pytest.mark.parametrize("m_max", [6, 20])
def test_head_family_convergence_eliminates_at_most_head_generators(monkeypatch, capsys,
                                                                    family, sigma, m_max):
    sizes = _record_rows(monkeypatch)
    assert main(["converge", "--family", family, "--sigma", sigma, "--m-max", str(m_max),
                 "--n", "12"]) == 0
    capsys.readouterr()
    # one pass per block: sigma, then sigma_m for m = m_max..1
    assert len(sizes) == m_max + 1
    assert max(sizes) <= parse_family(family).head


@pytest.mark.parametrize("family", _FAMILIES, ids=lambda f: f.descriptor())
def test_head_family_spans_build_no_vector(monkeypatch, family):
    # distances and projections read the head parts h_k alone: no x_k,
    # no w_i and no Gram-route elimination
    blocks = [([1, 3], [2]), ([], [4]), ([5, 6, 7], [])]
    probes = [SparseVector.unit(i) for i in range(1, family.ambient(7) + 3)]
    targets = family.vectors(range(1, 6))
    table = SystemFamily.span_dist_sq(family, blocks, probes, [1])
    projections = SystemFamily.span_projections(family, [1, 2, 4, 5, 7], targets)

    def refuse(*args, **kwargs):
        raise AssertionError("the head route built a vector or took the Gram route")

    monkeypatch.setattr(SparseVector, "from_pairs", refuse)
    for name in ("bordered_elimination", "project_many"):
        monkeypatch.setattr(families, name, refuse)
    assert family.span_dist_sq(blocks, probes, [1]) == table
    assert family.span_projections([1, 2, 4, 5, 7], targets) == projections


@pytest.mark.parametrize("family", ["infinite-set(0,1,inf)", "random(d=6,n=5,seed=3)"])
def test_gram_families_converge_in_one_elimination(monkeypatch, capsys, family):
    sizes = _record_generators(monkeypatch, exact, families)
    assert main(["converge", "--family", family, "--sigma", "res(2;1)", "--m-max", "6",
                 "--n", "8"]) == 0
    capsys.readouterr()
    assert len(sizes) == 1
