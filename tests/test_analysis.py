from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

import modlat.analysis
import modlat.bol
from modlat.algebra import parse_group, subgroup_lattice
from modlat.analysis import (
    ClaimViolated,
    NotALineTop,
    analysis_context,
    check_clean_cycles,
    check_interval_bounds,
    check_point_count,
    component_count,
    cyclic_localization_witness,
    is_clean_cycle,
    is_locally_acyclic,
    params,
    params_to_json,
    tight_below,
    tight_comparable,
    top_cycles,
    triangle_configurations,
    verdict_suite,
)
from modlat.bol import canonical_bol, localize
from modlat.corpus import (
    boolean_lattice,
    chain,
    m_n,
    random_distributive,
    seven_point_lattice,
    standard_corpus,
)
from modlat.lattice import CapExceeded, NotModular, build_lattice
from modlat.pls import components, find_cycle, rstar

from oracles import union_find_components


def z2_cubed():
    return subgroup_lattice(parse_group("2,2,2"))


def z4_squared():
    return subgroup_lattice(parse_group("4,4"))


def _verdict(verdicts, name):
    hits = [v for v in verdicts if v.name == name]
    assert len(hits) == 1, f"expected one verdict named {name!r}"
    return hits[0]


# -- parameter profiles ----------------------------------------------------


PROFILES = {
    # name: (j, delta, s, i, o, mu, rstar, acyclic, locally_acyclic)
    "boolean3": (3, 3, 3, 0, 1, 0, 0, True, True),
    "m3": (3, 2, 1, 1, 2, 3, 0, True, True),
    "m4": (4, 2, 1, 1, 3, 4, 0, True, True),
    "chain5": (4, 4, 4, 0, 1, 0, 0, True, True),
    "seven-point": (7, 4, 1, 3, 2, 9, 0, True, True),
}


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_parameter_profiles(name):
    builders = {
        "boolean3": lambda: boolean_lattice(3),
        "m3": lambda: m_n(3),
        "m4": lambda: m_n(4),
        "chain5": lambda: chain(5),
        "seven-point": seven_point_lattice,
    }
    rep = params(builders[name]())
    assert (
        rep.j,
        rep.delta,
        rep.s,
        rep.i,
        rep.o,
        rep.mu,
        rep.rstar_canonical,
        rep.acyclic,
        rep.locally_acyclic,
    ) == PROFILES[name]
    assert rep.ok


def test_profile_of_z2_cubed():
    rep = params(z2_cubed())
    assert (rep.j, rep.delta, rep.s, rep.i, rep.o, rep.mu) == (7, 3, 1, 7, 2, 21)
    assert rep.rstar_canonical == 8
    assert not rep.acyclic
    assert rep.locally_acyclic is False
    assert rep.ok


def test_profile_of_z4_squared():
    rep = params(z4_squared())
    assert (rep.j, rep.delta, rep.s, rep.i, rep.o, rep.mu) == (9, 4, 1, 5, 2, 15)
    assert rep.rstar_canonical == 2
    assert not rep.acyclic
    assert rep.locally_acyclic is True
    assert rep.ok


@pytest.mark.parametrize("seed", range(8))
def test_distributive_profiles(seed):
    rep = params(random_distributive(seed))
    assert rep.i == 0 and rep.mu == 0 and rep.o == 1
    assert rep.s == rep.delta
    assert rep.acyclic and rep.rstar_canonical == 0
    assert rep.ok


def test_params_requires_modularity():
    pentagon = build_lattice(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
    with pytest.raises(NotModular):
        params(pentagon)


def test_component_count_values():
    for L, want in [(m_n(3), 1), (boolean_lattice(3), 3), (seven_point_lattice(), 1)]:
        assert component_count(analysis_context(L), canonical_bol(L)) == want


# -- individual checks -----------------------------------------------------


def test_point_count_verdict_names_and_details():
    verdicts = check_point_count(analysis_context(m_n(3)))
    assert [v.name for v in verdicts] == [
        "point count bound",
        "point count equality iff acyclic",
        "acyclicity agrees across bases",
    ]
    assert all(v.passed for v in verdicts)
    assert "j=3 <= mu-i+s=3" in verdicts[0].detail


def test_point_count_detects_strictness_on_cyclic_lattices():
    verdicts = check_point_count(analysis_context(z2_cubed()))
    eq = _verdict(verdicts, "point count equality iff acyclic")
    assert eq.passed
    assert "j=7" in eq.detail and "mu-i+s=15" in eq.detail and "acyclic=False" in eq.detail


def test_interval_bounds_on_z2_cubed():
    L = z2_cubed()
    verdicts = check_interval_bounds(analysis_context(L), canonical_bol(L))
    assert [v.name for v in verdicts] == [
        "interval count lower bound",
        "point count lower bound",
        "split-adjusted point bound",
        "split count range",
    ]
    assert all(v.passed for v in verdicts)
    assert _verdict(verdicts, "split-adjusted point bound").detail == (
        "j=7 >= 2i+s-r*=7 >= 2delta-s=5"
    )
    assert _verdict(verdicts, "split count range").detail == "8 <= r*=8 <= 10"


def test_interval_bounds_on_seven_point():
    L = seven_point_lattice()
    verdicts = check_interval_bounds(analysis_context(L), canonical_bol(L))
    names = {v.name for v in verdicts}
    assert {
        "locally acyclic interval identity",
        "locally acyclic point identity",
        "acyclic interval identity",
        "acyclic point identity",
    } <= names
    assert all(v.passed for v in verdicts)
    assert _verdict(verdicts, "acyclic point identity").detail == "j=7 = 2delta-s=7"


def test_interval_bounds_skip_tight_clauses_for_wide_lines():
    verdicts = check_interval_bounds(analysis_context(m_n(4)), canonical_bol(m_n(4)))
    names = {v.name for v in verdicts}
    assert "split-adjusted point bound" not in names
    assert "acyclic point identity" not in names
    assert "acyclic interval identity" in names
    assert all(v.passed for v in verdicts)


# -- local acyclicity --------------------------------------------------------


def test_is_locally_acyclic():
    assert is_locally_acyclic(boolean_lattice(3))
    assert is_locally_acyclic(chain(4))
    assert not is_locally_acyclic(z2_cubed())
    assert is_locally_acyclic(z4_squared(), cap=100)
    # acyclic, so no base is enumerated and no cap applies
    assert is_locally_acyclic(seven_point_lattice(), cap=2)


def test_locally_acyclic_cap_is_enforced():
    # Z4 x Z4 is cyclic with 64 bases, none with a cyclic localization
    with pytest.raises(CapExceeded):
        is_locally_acyclic(z4_squared(), cap=2)


def test_acyclic_lattice_is_locally_acyclic_under_any_cap():
    # cap 0 leaves the bases sample truncated, but M3 is acyclic
    rep = params(m_n(3), bols_cap=0)
    assert rep.locally_acyclic is True
    assert "locally acyclic interval identity" in {v.name for v in rep.verdicts}
    assert rep.ok


def test_shared_localization_pass_matches_localize():
    lattices = [L for _, L in standard_corpus()] + [subgroup_lattice(parse_group("4,8"))]
    seen = set()
    for L in lattices:
        ctx = analysis_context(L, 50)
        for B in ctx.sample:
            comps, r = ctx.base_facts(B)
            assert sorted(comps) == sorted(
                sum(1 << p for p in comp) for comp in union_find_components(B.pls)
            ), L
            assert r == rstar(B.pls) and (r == 0) == (find_cycle(B.pls) is None), L
            first, cyclic = None, False
            for u, v in L.covers:
                P = localize(B, u, v)
                c = len(union_find_components(P))
                if first is None and c != 1:
                    first = (u, v, c)
                cyclic = cyclic or find_cycle(P) is not None
                seen.add((len(P.lines) > 1, find_cycle(P) is not None))
            # the summary may stop early once both answers are known
            got_first, got_cyclic = ctx.localization_summary(B)
            assert got_cyclic == cyclic and got_first == first, (L, B)
    assert seen == {(False, False), (True, False), (True, True)}


def test_localization_summaries_are_computed_once_per_base(monkeypatch):
    # Z4 x Z8 has more bases than the default cap and no cyclic
    # localization among them, so locally_acyclic reads every summary
    # before verdict_suite's connectivity check does
    L = subgroup_lattice(parse_group("4,8"))
    counts = {}
    summarize = modlat.analysis._summarize_localizations

    def counted(coverings, masks):
        key = tuple(masks)
        counts[key] = counts.get(key, 0) + 1
        return summarize(coverings, masks)

    monkeypatch.setattr(modlat.analysis, "_summarize_localizations", counted)
    ctx = analysis_context(L)
    assert ctx.truncated and ctx.locally_acyclic is None
    counts.clear()
    verdict_suite(L)
    assert len(counts) == len(ctx.sample) == 1000
    assert set(counts.values()) == {1}


# -- triangle configurations -------------------------------------------------


def test_small_bases_have_no_triangles():
    assert triangle_configurations(canonical_bol(m_n(3))) == []
    assert triangle_configurations(canonical_bol(seven_point_lattice())) == []


def test_fano_base_has_84_configurations():
    cfgs = triangle_configurations(canonical_bol(z2_cubed()))
    assert len(cfgs) == 84


def test_configuration_geometry():
    B = canonical_bol(z2_cubed())
    for cfg in triangle_configurations(B):
        corners = {cfg.s, cfg.p1, cfg.p2}
        assert len(corners) == 3
        assert cfg.l1 & cfg.l2 == {cfg.s}
        assert cfg.l1 & cfg.l3 == {cfg.p1}
        assert cfg.l2 & cfg.l3 == {cfg.p2}
        assert cfg.q in cfg.l1 & cfg.l4
        assert cfg.r in cfg.l2 & cfg.l4
        assert cfg.p3 in cfg.l3 & cfg.l4
        assert corners.isdisjoint({cfg.q, cfg.r, cfg.p3})


def test_every_fano_configuration_yields_a_cyclic_covering():
    L = z2_cubed()
    B = canonical_bol(L)
    seen = set()
    for cfg in triangle_configurations(B):
        a, b = cyclic_localization_witness(L, B, cfg)
        assert b == L.top
        assert b in L.upper_covers(a)
        seen.add(a)
    assert seen == set(L.coatoms)


def test_witness_rejects_a_doctored_configuration():
    L = z2_cubed()
    B = canonical_bol(L)
    cfg = triangle_configurations(B)[0]
    broken = dataclasses.replace(cfg, s=cfg.q)
    with pytest.raises(ClaimViolated):
        cyclic_localization_witness(L, B, broken)


# -- cycles of line-tops -------------------------------------------------


def test_tight_comparability_on_z4_squared():
    L = z4_squared()
    pairs = {
        (x, y)
        for x, y in itertools.combinations([5, 11, 12, 13, 14], 2)
        if tight_comparable(L, x, y)
    }
    assert pairs == {(5, 11), (5, 12), (5, 13), (11, 14), (12, 14), (13, 14)}
    assert tight_below(L, 5, 11) and not tight_below(L, 11, 5)


def test_tight_queries_reject_non_tops():
    L = z2_cubed()
    some_top = sorted(L.coatoms)[0]
    with pytest.raises(NotALineTop):
        tight_below(L, L.bottom, some_top)
    with pytest.raises(NotALineTop):
        tight_comparable(L, some_top, L.top)


def test_incomparable_tops_never_cycle():
    assert top_cycles(z2_cubed()) == []
    assert top_cycles(boolean_lattice(3)) == []


def test_top_cycles_of_z4_squared():
    L = z4_squared()
    cycles = top_cycles(L)
    assert sorted(c.tops for c in cycles) == [
        (5, 11, 14, 12),
        (5, 11, 14, 13),
        (5, 12, 14, 13),
    ]
    for c in cycles:
        assert c.directions == ("up", "up", "down", "down")
        assert len(c) == 4
        assert c.tops[0] == min(c.tops)
        assert c.tops[1] < c.tops[-1]
        assert is_clean_cycle(L, c)
    assert top_cycles(L, maxlen=3) == []


def test_clean_cycle_input_validation():
    L = z4_squared()
    with pytest.raises(ValueError):
        is_clean_cycle(L, (5, 11))
    with pytest.raises(ValueError):
        is_clean_cycle(L, (5, 11, 12))
    with pytest.raises(NotALineTop):
        is_clean_cycle(L, (5, 11, L.bottom))
    assert is_clean_cycle(L, (5, 11, 5)) is False


def test_clean_cycle_verdicts():
    v = check_clean_cycles(analysis_context(z4_squared()))
    assert v.passed
    assert "3 clean of 3" in v.detail and "cyclic=True" in v.detail
    v2 = check_clean_cycles(analysis_context(boolean_lattice(3)))
    assert v2.passed and "untriggered" in v2.detail


# -- the full suite --------------------------------------------------------


@pytest.mark.parametrize(
    "name,L",
    standard_corpus(),
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_verdict_suite_is_clean_on_the_corpus(name, L):
    for v in verdict_suite(L):
        assert v.passed, str(v)


def test_verdict_suite_survives_an_empty_bases_sample():
    # an interval of Z4 x Z4 has two lines, so cap 1 stops all_bols before
    # it yields a base; the suite then runs on the canonical base alone
    verdicts = verdict_suite(z4_squared(), bols_cap=1)
    assert all(v.passed for v in verdicts), [str(v) for v in verdicts if not v.passed]
    assert "1 bases (truncated)" in _verdict(verdicts, "split counts observed").detail


@pytest.mark.parametrize("run", [params, verdict_suite], ids=["params", "suite"])
def test_shared_facts_are_computed_once(monkeypatch, run):
    L = subgroup_lattice(parse_group("2,2,4"))
    calls = {"all_bols": 0, "projectivity_classes": 0, "localize": 0, "line_intervals": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(modlat.bol, "all_bols", counted("all_bols", modlat.bol.all_bols))
    monkeypatch.setattr(
        modlat.analysis,
        "projectivity_classes",
        counted("projectivity_classes", modlat.analysis.projectivity_classes),
    )
    monkeypatch.setattr(modlat.analysis, "localize", counted("localize", modlat.analysis.localize))
    line_intervals = counted("line_intervals", modlat.bol.line_intervals)
    monkeypatch.setattr(modlat.bol, "line_intervals", line_intervals)
    monkeypatch.setattr(modlat.analysis, "line_intervals", line_intervals)
    run(L)
    # localizations are read off the context's coverings, never rebuilt
    assert calls == {"all_bols": 1, "projectivity_classes": 1, "localize": 0, "line_intervals": 1}


def test_component_count_does_not_build_the_bases_sample(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bases sample was built")

    monkeypatch.setattr(modlat.analysis, "bol_sample", refuse)
    for L, want in [(m_n(3), 1), (seven_point_lattice(), 1), (z4_squared(), 1)]:
        assert component_count(analysis_context(L), canonical_bol(L)) == want
    with pytest.raises(AssertionError, match="bases sample"):
        analysis_context(z4_squared()).sample


def test_verdict_rendering():
    rep = params(m_n(3))
    lines = [str(v) for v in rep.verdicts]
    assert all(line.startswith("[pass] ") for line in lines)


def test_params_report_serializes():
    rep = params(seven_point_lattice())
    data = params_to_json(rep)
    assert set(data) == {
        "j", "delta", "s", "i", "o", "mu",
        "rstar_canonical", "acyclic", "locally_acyclic", "verdicts",
    }
    assert data["j"] == 7 and data["mu"] == 9
    assert all(set(v) == {"name", "passed", "detail"} for v in data["verdicts"])
    json.dumps(data)
