"""Compositions, ranks, tableaux, labels, and critical pairs."""

from fractions import Fraction
from math import comb as binom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singjack import combinatorics as comb
from singjack.combinatorics import (
    DegreeMismatch,
    ParameterViolation,
    SearchBudgetExceeded,
    ShapeViolation,
)
from singjack.exactarith import KAPPA, kappa_linear

import reference as ref


def test_pad_and_weight():
    assert comb.pad((2, 1), 4) == (2, 1, 0, 0)
    assert comb.pad((2, 1, 0), 2) == (2, 1)
    with pytest.raises(ParameterViolation):
        comb.pad((2, 1, 1), 2)
    assert comb.comp_weight((3, 0, 2)) == 5
    assert comb.comp_length((3, 0, 2)) == 3
    assert comb.comp_length((3, 2, 0)) == 2


def test_rank():
    # stable decreasing sort positions, ties resolved left to right
    assert [comb.rank((0, 1, 0), i) for i in (1, 2, 3)] == [2, 1, 3]
    assert [comb.rank((1, 1, 0), i) for i in (1, 2, 3)] == [1, 2, 3]
    assert [comb.rank((2, 5, 5, 1), i) for i in (1, 2, 3, 4)] == [3, 1, 2, 4]
    lam = (4, 3, 1, 0)
    assert [comb.rank(lam, i) for i in range(1, 5)] == [1, 2, 3, 4]


def test_spectral_vector():
    # xi_i = (N - r)kappa + alpha_i + 1, stored as the (N - r, alpha_i+1) pair
    assert comb.spectral_vector((1, 0)) == ((1, 2), (0, 1))
    assert comb.spectral_vector((0, 1)) == ((0, 1), (1, 2))
    assert ref.xi_poly((1, 0), 1) == kappa_linear(1, 2)


def test_spectral_vectors_distinct_across_down_set():
    alpha = (2, 1, 0)
    sv = comb.spectral_vector(alpha)
    for beta in ref.down_set(alpha):
        if beta != alpha:
            assert comb.spectral_vector(beta) != sv


def test_triangle_order():
    assert comb.triangle_greater((1, 0), (0, 1))
    assert not comb.triangle_greater((0, 1), (1, 0))
    assert comb.triangle_greater((2, 0), (1, 1))
    assert comb.triangle_greater((2, 1, 0), (1, 1, 1))
    assert not comb.triangle_greater((1, 1), (1, 1))
    # rearrangements of the same partition: the partition is the maximum
    for sig in ((1, 2, 0), (0, 2, 1), (2, 0, 1)):
        assert comb.triangle_greater((2, 1, 0), sig)


def test_down_set():
    ds = ref.down_set((2, 0))
    assert set(ds) == {(2, 0), (0, 2), (1, 1)}
    assert ds[0] == (2, 0)
    for beta in ref.down_set((2, 1, 0)):
        assert beta == (2, 1, 0) or comb.triangle_greater((2, 1, 0), beta)


def test_tilde():
    assert comb.tilde((0, 2, 1)) == (0, 0, 2)
    assert comb.tilde((1, 0)) == (0, 0)
    assert comb.tilde((3, 2)) == (1, 3)
    with pytest.raises(comb.ZeroComposition):
        comb.tilde((0, 0))


def test_perm_helpers():
    n = 4
    e = comb.identity_perm(n)
    t = comb.transposition(n, 2, 4)
    assert comb.compose(t, t) == e
    assert comb.invert(t) == t
    u = comb.theta_perm(n, 3)
    assert comb.compose(u, comb.invert(u)) == e
    with pytest.raises(comb.IndexOutOfRange):
        comb.transposition(2, 1, 3)


def test_perm_on_comp_is_an_action():
    alpha = (3, 1, 0, 2)
    u = comb.transposition(4, 1, 3)
    v = comb.theta_perm(4, 4)
    uv = comb.compose(u, v)
    assert comb.perm_on_comp(uv, alpha) == comb.perm_on_comp(
        u, comb.perm_on_comp(v, alpha))
    assert comb.sort_desc(comb.perm_on_comp(v, alpha)) == comb.sort_desc(alpha)


def test_hook_product_values():
    t = kappa_linear(1, 1)  # k + 1
    assert comb.hook_product((1,), t) == t
    assert comb.hook_product((2,), t) == t * kappa_linear(1, 2)
    assert comb.hook_product((1, 1), t) == t * kappa_linear(2, 1)
    # (2,1): nodes (1,1),(1,2),(2,1) -> (2k+2)(k+1)(k+1)
    h = comb.hook_product((2, 1), t)
    assert h == 2 * t * t * t
    # the decremented weight (1,1) is where the singular value shows up
    h2 = comb.hook_product((1, 1), t)
    assert h2.eval_at(Fraction(-1, 2)) == 0


def test_pochhammer():
    # (t)_(n) over one row is the ordinary rising factorial
    t = kappa_linear(0, 3)
    assert comb.pochhammer(t, (3,)) == KappaPoly_const(3 * 4 * 5)
    # second row shifts by -kappa
    p = comb.pochhammer(kappa_linear(2, 1), (1, 1))
    assert p == kappa_linear(2, 1) * kappa_linear(1, 1)


def KappaPoly_const(c):
    from singjack.exactarith import KappaPoly
    return KappaPoly.const(c)


def test_compositions_and_rearrangements():
    cs = list(comb.compositions_of(3, 2))
    assert len(cs) == binom(3 + 1, 1)
    assert set(cs) == {(3, 0), (2, 1), (1, 2), (0, 3)}
    rs = list(comb.rearrangements((2, 1, 0), 3))
    assert len(rs) == 6
    rs2 = list(comb.rearrangements((1, 1, 0), 3))
    assert len(rs2) == 3


def test_partitions_of():
    ps = comb.partitions_of(5, max_len=4)
    assert (5,) in ps and (2, 2, 1) in ps and (1, 1, 1, 1, 1) not in ps
    assert all(comb.is_partition(p) for p in ps)


def test_resolve_label_families():
    lab = comb.resolve_label(2, 6, 7)
    assert lab.family == "two_part"
    assert lab.tau == (5, 2)
    assert lab.lam == (2, 2, 0, 0, 0, 0, 0)
    assert lab.kappa0 == Fraction(-1, 3)
    lab2 = comb.resolve_label(1, 2, 5)
    assert lab2.family == "multi"
    assert lab2.tau == (1, 1, 1, 1, 1)
    assert lab2.lam == (4, 3, 2, 1, 0)
    lab3 = comb.resolve_label(1, 3, 3)
    assert lab3.tau == (2, 1) and lab3.lam == (1, 0, 0)


def test_resolve_label_errors():
    with pytest.raises(ParameterViolation):
        comb.resolve_label(2, 2, 5)  # integral m/n
    with pytest.raises(ParameterViolation):
        comb.resolve_label(1, 5, 4)  # n > N
    with pytest.raises(ParameterViolation):
        comb.resolve_label(0, 2, 4)


def test_build_lambda():
    assert comb.build_lambda(1, 0, 2, 1, 1) == (3, 2, 1, 0)
    assert comb.build_lambda(2, 0, 1, 1, 1) == (2, 1, 1, 0, 0)
    lam = comb.build_lambda(3, 4, 4, 2, 3)
    assert lam[:5] == (27, 27, 24, 24, 24)
    assert len(lam) == 33 and comb.comp_length(lam) == 14


def test_omega_eigenvalue():
    assert comb.omega_eigenvalue((1, 1, 1)) == 6
    assert comb.omega_eigenvalue((2, 1)) == 3
    assert comb.omega_eigenvalue((3,)) == 0
    # degree law |lam| = -kappa0 * tau(omega) on two labels
    for (m, n, N) in ((1, 3, 3), (1, 2, 4)):
        lab = comb.resolve_label(m, n, N)
        assert comb.comp_weight(lab.lam) == -lab.kappa0 * comb.omega_eigenvalue(
            lab.tau)


def test_isotype_of():
    assert comb.isotype_of((1, 0, 0)) == (2, 1)
    assert comb.isotype_of((2, 2, 0, 0)) == (2, 2)
    with pytest.raises(ShapeViolation):
        comb.isotype_of((2, 2, 2, 0, 0))  # multiplicities (2,3) not sorted


def test_content_sequence():
    assert tuple(comb.content_sequence((2, 1, 0), Fraction(-1, 2))) == (
        -2, -1, 0)


def test_tableaux():
    t = comb.Tableau.from_rows(((1, 2), (3,)))
    assert t.is_standard()
    assert (t.rw(3), t.cm(3)) == (2, 1)
    assert [t.eta(i) for i in (1, 2, 3)] == [0, 1, -1]
    t2 = t.swap_values(2, 3)
    assert t2.rows() == ((1, 3), (2,))
    assert not comb.Tableau.from_rows(((1, 3), (2,))).swap_values(
        1, 2).is_standard()


def test_syt_enumerate():
    assert len(ref.syt_enumerate((2, 1))) == 2
    assert len(ref.syt_enumerate((3, 2))) == 5
    assert len(ref.syt_enumerate((5, 2))) == 14
    for t in ref.syt_enumerate((3, 2)):
        assert t.is_standard()


def test_rlp_enumerate():
    lam = (1, 1, 0, 0, 0)
    rlps = comb.rlp_enumerate(lam)
    assert len(rlps) == 5
    assert rlps[0] == lam  # descending lex, partition first
    assert rlps == sorted(rlps, reverse=True)
    assert all(comb.sort_desc(s) == comb.sort_desc(lam) for s in rlps)


def test_tableau_from_rlp():
    lam = (1, 0, 0)
    w, t = comb.tableau_from_rlp(lam, (1, 0, 0))
    assert w == (1, 2, 3) and t.rows() == ((1, 2), (3,))
    w2, t2 = comb.tableau_from_rlp(lam, (0, 1, 0))
    assert w2 == (2, 1, 3) and t2.rows() == ((1, 3), (2,))
    with pytest.raises(ShapeViolation):
        comb.tableau_from_rlp(lam, (0, 0, 2))


def test_rlp_tableau_bijection():
    lam = (2, 2, 0, 0)
    rlps = comb.rlp_enumerate(lam)
    tabs = {comb.tableau_from_rlp(lam, s)[1] for s in rlps}
    assert len(tabs) == len(rlps) == len(ref.syt_enumerate((2, 2)))


def test_is_critical_pair():
    lam = (2, 2, 1, 0, 0, 0)
    beta = (0, 0, 2, 1, 1, 1)
    assert comb.is_critical_pair(lam, beta, 1, 2)
    assert not comb.is_critical_pair(lam, (1, 0, 2, 1, 1, 0), 1, 2)
    with pytest.raises(DegreeMismatch):
        comb.is_critical_pair(lam, (1, 0), 1, 2)
    with pytest.raises(ParameterViolation):
        comb.is_critical_pair(lam, beta, 2, 4)  # gcd != 1
    for m, n in ((1, 0), (0, 1), (-1, 2)):
        with pytest.raises(ParameterViolation):
            comb.is_critical_pair(lam, beta, m, n)
        with pytest.raises(ParameterViolation):
            comb.find_critical_partners(lam, m, n, max_len=6)


def test_critical_partner_small():
    assert comb.critical_partner(1, 0, 2, 1, 1, 0) == (0, 0, 2, 1, 1, 1)
    with pytest.raises(ParameterViolation):
        comb.critical_partner(1, 0, 2, 1, 1, 2)  # k = l not allowed


def test_find_critical_partners():
    found = comb.find_critical_partners((2, 2, 1), 1, 2, max_len=7)
    assert found == [(0, 0, 2, 1, 1, 1, 0)]
    assert comb.find_critical_partners((2, 2, 1), 1, 2, max_len=5) == []
    with pytest.raises(SearchBudgetExceeded):
        comb.find_critical_partners((2, 2, 1), 1, 2, max_len=7, budget=3)


def test_bigdiff_plan_consistency():
    plan = comb.bigdiff_plan((2, 1, 0))
    assert plan.points == (1, 2)
    assert plan.M == 2
    for lam in ((3, 2, 1, 0), (2, 2, 1, 0)):
        plan = comb.bigdiff_plan(lam)
        for j in range(plan.M):
            assert plan.nu[(0, j + 1)] == comb.tilde(plan.mu[(j + 1, plan.M)])


small_comp = st.lists(st.integers(min_value=0, max_value=5),
                      min_size=1, max_size=5).map(tuple)


@settings(max_examples=80, deadline=None)
@given(small_comp)
def test_rank_is_a_bijection(alpha):
    rv = comb.rank_vector(alpha)
    assert sorted(rv) == list(range(1, len(alpha) + 1))
    # value order respected: higher entries get smaller ranks
    for i in range(len(alpha)):
        for j in range(len(alpha)):
            if alpha[i] > alpha[j]:
                assert rv[i] < rv[j]


@settings(max_examples=80, deadline=None)
@given(small_comp)
def test_sort_desc_is_partition(alpha):
    lam = comb.sort_desc(alpha)
    assert comb.is_partition(lam)
    assert comb.comp_weight(lam) == comb.comp_weight(alpha)


@settings(max_examples=50, deadline=None)
@given(small_comp)
def test_triangle_partition_is_max(alpha):
    lam = comb.sort_desc(alpha)
    if tuple(alpha) != lam:
        assert comb.triangle_greater(lam, alpha)
        assert not comb.triangle_greater(alpha, lam)
