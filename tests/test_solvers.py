"""Degree-by-degree solvers and the axiom checkers."""
import random
from fractions import Fraction

import pytest

from kvlie import linalg, solvers
from kvlie.automorphisms import TAutElem, taut_exp, taut_log
from kvlie.derivations import (TDer, braid_bracket_basis, strand_coords, tder_coords,
                               tder_extend)
from kvlie.lie import LieSeries
from kvlie.solvers import (_associator_operator, _bch_chain, _braid_tders,
                           _linear_residuals,
                           _log_residuals, _residual_vector,
                           check_associator_axioms,
                           check_f_symmetries, solve_associator, solve_kv,
                           tder_bch)
from kvlie.words import Alphabet

from test_derivations import rand_tder

A2 = Alphabet(2)


def test_kv_symmetric_anchors():
    f, report = solve_kv(4, gauge="symmetric")
    assert report.all_zero()
    assert report.notes["defining_residual_zero"]
    assert report.notes["j_in_h_subspace"]
    log = taut_log(f)
    assert log.components[0].homogeneous(1) == \
        LieSeries.generator(A2, 4, 1).scale(Fraction(-1, 4))
    assert log.components[1].homogeneous(1) == \
        LieSeries.generator(A2, 4, 0).scale(Fraction(1, 4))
    assert report.notes["h_coefficients"][2] == Fraction(-1, 48)
    assert report.notes["h_coefficients"][3] == 0
    assert report.notes["h_coefficients"][4] == Fraction(1, 1920)


def test_kv_minimal_gauge_also_solves():
    f, report = solve_kv(3, gauge="minimal-norm")
    assert report.all_zero()
    assert report.notes["defining_residual_zero"]
    assert report.notes["j_in_h_subspace"]


@pytest.mark.parametrize("degree, part", [(2, "h"), (3, "h"), (3, "step")])
def test_kv_records_flag_a_perturbed_step_at_its_degree(monkeypatch, degree, part):
    """A wrong tr-power coefficient h_d leaves the ch equation alone and
    shows only in the J residual at degree d; a wrong derivation
    coefficient at degree d shows in the ch residual at degree d + 1.
    Either way the record of degree d is flagged, and no other."""
    pick = linalg.min_norm_pick
    calls = []

    def perturbed(particular, null):
        solution = list(pick(particular, null))
        calls.append(None)
        if len(calls) == degree:
            solution[-1 if part == "h" else 0] += Fraction(1, 7)
        return solution

    monkeypatch.setattr(linalg, "min_norm_pick", perturbed)
    f, report = solve_kv(4, gauge="symmetric")
    assert [r.degree for r in report.records if not r.residual_zero] == [degree]
    assert report.notes["defining_residual_zero"] is (part == "h")


def test_kv_rejects_unknown_gauge():
    with pytest.raises(ValueError):
        solve_kv(3, gauge="bogus")


def test_tder_bch_matches_group_composition():
    rng = random.Random(71)
    degree = 5
    for _ in range(4):
        u = rand_tder(rng, A2, degree)
        v = rand_tder(rng, A2, degree)
        composed = taut_exp(u).compose(taut_exp(v))
        # at ambient cap N the composed log is recoverable through
        # derivation degree N-1
        assert taut_log(composed) == tder_bch(u, v, degree - 1)


def test_associator_degree_three():
    cand, report = solve_associator(3)
    assert report.all_zero()
    # re-derive the log from the images alone, without the certificate
    assert taut_log(TAutElem(cand.element.images)) == cand.log
    nonzero = {d: {lbl: c for lbl, c in lst if c}
               for d, lst in cand.tn_coordinates.items()}
    assert nonzero[1] == {}
    assert nonzero[2] == {((1, 2), (1, 3)): Fraction(-1, 24)}
    assert nonzero[3] == {}


def test_associator_passes_independent_checker():
    cand, _report = solve_associator(3)
    check = check_associator_axioms(cand, "all")
    assert check.notes == {"duality": True, "pentagon": True,
                           "hexagon+": True, "hexagon-": True}
    assert check.all_zero()


AXIOMS = ("duality", "pentagon", "hexagon+", "hexagon-")


@pytest.fixture(scope="module")
def phi3():
    return solve_associator(3)[0].element


def _notes(report):
    return {name: report.notes[name] for name in AXIOMS}


def test_checker_rejects_non_associators(phi3):
    log = taut_log(phi3)
    identity = TAutElem.identity(Alphabet(3), phi3.degree)
    fails_hexagons = {"duality": True, "pentagon": True,
                      "hexagon+": False, "hexagon-": False}
    for element in (identity, taut_exp(log.scale(2))):
        report = check_associator_axioms(element, "all")
        assert _notes(report) == fails_hexagons
        assert not report.all_zero()
    shifted = taut_exp(log + _braid_tders(phi3.degree)["t12"])
    assert _notes(check_associator_axioms(shifted, "all")) == dict.fromkeys(AXIOMS, False)


def test_single_selector_reports_match_all(phi3):
    # exp(2 log Phi) passes duality and pentagon but fails both hexagons
    element = taut_exp(taut_log(phi3).scale(2))
    full = check_associator_axioms(element, "all")
    per_axiom = len(full.records) // len(AXIOMS)
    for k, name in enumerate(AXIOMS):
        single = check_associator_axioms(element, name)
        assert single.records == full.records[k * per_axiom:(k + 1) * per_axiom]
        assert single.notes == {name: full.notes[name]}
    hexagon = check_associator_axioms(element, "hexagon")
    assert hexagon.notes == {"hexagon+": False}
    assert hexagon.records == full.records[2 * per_axiom:3 * per_axiom]


def test_checker_degree_bounds(phi3):
    assert check_associator_axioms(phi3, "pentagon", degree=2).notes == {"pentagon": True}
    for degree in (0, -1, phi3.degree):
        with pytest.raises(ValueError, match="check degree"):
            check_associator_axioms(phi3, "pentagon", degree=degree)
    with pytest.raises(ValueError, match="selector"):
        check_associator_axioms(phi3, "hexagon0")


def test_associator_negative_hexagon_sign():
    cand, report = solve_associator(3, hexagon_sign=-1)
    assert report.all_zero()
    nonzero = {lbl: c for lbl, c in cand.tn_coordinates[2] if c}
    assert nonzero == {((1, 2), (1, 3)): Fraction(-1, 24)}


def test_associator_input_validation():
    with pytest.raises(ValueError):
        solve_associator(1)
    with pytest.raises(ValueError):
        solve_associator(3, parity="odd")
    with pytest.raises(ValueError):
        solve_associator(3, hexagon_sign=2)


def test_f_symmetries_of_symmetric_solution():
    f, _report = solve_kv(4, gauge="symmetric")
    report = check_f_symmetries(f)
    for name in ("eyelid_plus", "eyelid_minus", "tau_invariance"):
        assert all(report.notes[name].values()), name
    for degree in (0, -1, f.degree + 1):
        with pytest.raises(ValueError, match="check degree"):
            check_f_symmetries(f, degree)


def _full_ambient_residuals(phi, d, hexagon_sign):
    """Reference: the axiom residual logs at phi's own ambient, not at d."""
    phi = phi.truncated(d).truncated(phi.degree)

    def ext(pattern, arity):
        return tder_extend(phi, pattern, arity)

    t = _braid_tders(phi.degree)
    half = Fraction(hexagon_sign, 2)
    duality = _bch_chain([ext("3,2,1", 3), ext("1,2,3", 3)], d)
    lhs = _bch_chain([ext("1,2,34", 4), ext("12,3,4", 4)], d)
    rhs = _bch_chain([ext("2,3,4", 4), ext("1,23,4", 4), ext("1,2,3", 4)], d)
    pentagon = tder_bch(-rhs, lhs, d)
    lhs = _bch_chain([
        t["t12"].scale(half), ext("3,1,2", 3),
        t["t13"].scale(half), ext("2,3,1", 3),
        t["t23"].scale(half), ext("1,2,3", 3)], d)
    central = (t["t12"] + t["t13"] + t["t23"]).scale(half)
    hexagon = tder_bch(-central, lhs, d)
    return {"duality": duality, "pentagon": pentagon, "hexagon": hexagon}


SOLVES = [("even", 1), ("even", -1), ("unconstrained", 1), ("unconstrained", -1)]


@pytest.mark.parametrize("parity,sign", SOLVES)
def test_operator_columns_match_finite_differences(parity, sign):
    """Every coordinate of the linear residuals is a finite difference,
    and the operator's columns are their strand rows."""
    def every_coordinate(res, d):
        return [c for name in ("duality", "pentagon", "hexagon")
                for c in tder_coords(res[name], d)]

    log = solve_associator(3, parity, sign)[0].log
    for d in (2, 3):
        phi = log.truncated(d - 1).truncated(log.degree)
        r0 = every_coordinate(_full_ambient_residuals(phi, d, sign), d)
        columns = []
        for _lbl, e in braid_bracket_basis(3, d, log.degree):
            r = every_coordinate(_full_ambient_residuals(phi + e, d, sign), d)
            linear = _linear_residuals(e.truncated(d))
            assert every_coordinate(linear, d) == [ri - r0i for ri, r0i in zip(r, r0)]
            columns.append(_residual_vector(linear, d))
        assert any(any(c) for c in columns)
        assert [list(c) for c in zip(*_associator_operator(d))] == columns


def test_strand_rows_are_injective_on_tn():
    # dim t_n strand rows read the braid bracket basis with no kernel, so
    # the solver's rows have the null space of every-coordinate rows
    for n, top in ((3, 6), (4, 4)):
        for d in range(1, top + 1):
            basis = braid_bracket_basis(n, d, d)
            columns = [[c for i in range(n - 1) for c in strand_coords(e, i, d)]
                       for _lbl, e in basis]
            assert len(columns[0]) == len(basis)
            assert linalg.nullspace([list(r) for r in zip(*columns)]) == [], (n, d)
    # dim t_4 + 2 dim t_3 operator rows
    assert [len(_associator_operator(d)) for d in range(2, 6)] == [6, 14, 27, 66]
    e = braid_bracket_basis(3, 6, 6)[0][1]
    assert len(_residual_vector(_linear_residuals(e), 6)) == 143


def _with_stray_last_component(monkeypatch, at):
    """Patch the solver's residuals to carry, in degree ``at``, one Lyndon
    term in the last component of the duality residual, which no strand
    row reads."""
    log_residuals = solvers._log_residuals

    def patched(phi, d, hexagon_sign):
        res = log_residuals(phi, d, hexagon_sign)
        if d == at:
            u = res["duality"]
            stray = LieSeries(u.alphabet, u.degree, {(0,) + (1,) * (d - 1): 1})
            res["duality"] = TDer([*u.components[:-1], u.components[-1] + stray])
        return res

    monkeypatch.setattr(solvers, "_log_residuals", patched)


def test_residual_outside_the_strand_rows_is_reported(monkeypatch):
    clean = solve_associator(3, "unconstrained")[0]
    _with_stray_last_component(monkeypatch, 2)
    cand, report = solve_associator(3, "unconstrained")
    assert [r.residual_zero for r in report.records] == [True, False, True]
    assert cand.tn_coordinates == clean.tn_coordinates
    _with_stray_last_component(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="odd degree 3"):
        solve_associator(3, "even")


def test_each_degree_folds_its_residuals_once(monkeypatch):
    log_residuals = solvers._log_residuals
    degrees = []

    def counted(phi, d, hexagon_sign):
        degrees.append(d)
        return log_residuals(phi, d, hexagon_sign)

    monkeypatch.setattr(solvers, "_log_residuals", counted)
    solve_associator(4, "even")
    assert degrees == [1, 2, 3, 4]


@pytest.mark.parametrize("parity", ["even", "unconstrained"])
def test_wrong_step_is_reported(monkeypatch, parity):
    # the degree-2 step is the only one-element solution, and its nullity
    # is 0, so the shifted step leaves a residual the record must show
    min_norm_pick = linalg.min_norm_pick

    def shifted(particular, null):
        solution = min_norm_pick(particular, null)
        return [solution[0] + 1] if len(solution) == 1 else solution

    monkeypatch.setattr(linalg, "min_norm_pick", shifted)
    report = solve_associator(2, parity)[1]
    assert [r.residual_zero for r in report.records] == [True, False]


@pytest.mark.parametrize("parity,sign", SOLVES)
def test_graded_residual_matches_full_ambient(parity, sign):
    log = solve_associator(3, parity, sign)[0].log
    steps = [e for d in (1, 2, 3)
             for _lbl, e in braid_bracket_basis(3, d, log.degree)[:1]]
    for phi in [log] + [log + e for e in steps]:
        for d in (1, 2, 3):
            graded = _log_residuals(phi, d, sign)
            full = _full_ambient_residuals(phi, d, sign)
            for name in ("duality", "pentagon", "hexagon"):
                assert graded[name].degree == d
                for k in range(1, d + 1):
                    assert tder_coords(graded[name], k) == \
                        tder_coords(full[name], k), (name, d, k)


@pytest.mark.parametrize("parity,sign", SOLVES)
def test_checker_and_solver_residuals_agree_off_solutions(parity, sign):
    """The group-level checker and the tder_bch residual give the same
    coordinates, on a solved log and on logs pushed off it by one braid
    bracket of degree d (whose residual is nonzero in degree d)."""
    from kvlie.solvers import _axiom_residuals
    log = solve_associator(3, parity, sign)[0].log
    hexagon = "hexagon+" if sign > 0 else "hexagon-"
    keys = {"duality": "duality", "pentagon": "pentagon", hexagon: "hexagon"}
    cases = [(log, 3)] + [(log + braid_bracket_basis(3, d, log.degree)[0][1], d)
                          for d in (1, 2, 3)]
    for phi, d in cases:
        checked = _axiom_residuals(phi, d, tuple(keys))
        solved = _log_residuals(phi, d, sign)
        for key, name in keys.items():
            for k in range(1, d + 1):
                assert tder_coords(checked[key], k) == \
                    tder_coords(solved[name], k), (key, d, k)
        assert any(checked.values()) is (phi is not log)


def test_unconstrained_nullity_is_grt1_dimension():
    # the kernel of the linearised axioms in degree d is grt_1 in degree
    # d: zero in degrees 1, 2 and 4, and spanned by sigma_3 and sigma_5
    # in degrees 3 and 5
    _cand, report = solve_associator(5, "unconstrained")
    assert [r.dimension - r.rank for r in report.records] == [0, 0, 1, 0, 1]
    assert report.all_zero()
