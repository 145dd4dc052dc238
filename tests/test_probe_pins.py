"""Exact values of the six regularity probes, the zero-trace Poincare ratio
and the coercivity check, pinned with ==.

The state is the n = 32 minimiser of the trace sin(pi x) y, for a
space-varying phase and for the constant (2, 3, 3) phase with mu = (1, 0).
A refactor of the probes that keeps every sum in its order keeps these
values to the last bit; a change to the minimiser or to the quadrature
moves them and has to pin them again.  On the constant phase the sums of
phi(|grad u|) and its powers run over a cell measure, one point per
triangle: the ball's cell measure for the ball probes and the mesh's
degree-1 quadrature, weighted by the triangle areas, for the zero-trace
Poincare ratio and the coercivity check.  Every other sum runs over the
points of a quadrature.  Every mean divides by its measure's total_mass.
P1 values at the points are one BLAS product per triangle block, each
value a three-term dot that no thread split divides, and the sums are
einsum contractions, not BLAS dots, so the values hold under any BLAS
thread count.

Regenerate the table by running this file as a script:
    PYTHONPATH=src python tests/test_probe_pins.py
"""

import numpy as np
import pytest

from multiphase import (Ball, BallFamily, ExponentTriple, FeFunction,
                        FluxParams, ScalarField, UNIT_SQUARE, WeightPair,
                        boundary_higher_integrability_probe,
                        caccioppoli_ratio, caccioppoli_truncation_ratio,
                        higher_integrability_probe, interpolate,
                        minimize_dirichlet, poincare_w0_ratio,
                        sobolev_poincare_ratio, sobolev_poincare_zero_set,
                        structured_mesh)
from multiphase.modular import PhaseFunction
from multiphase.operator import check_coercive


def _trace(x, y):
    return np.sin(np.pi * x) * y


def _variable_phase():
    # the variable_phase fixture of conftest.py, built here so the table can
    # be regenerated without pytest
    exp = ExponentTriple.sample(ScalarField.affine(2.0, 0.2, 0.0),
                                ScalarField.affine(2.3, 0.2, 0.1),
                                ScalarField.affine(2.6, 0.2, 0.2),
                                UNIT_SQUARE)
    w = WeightPair.sample(ScalarField.expression("max(0, x1 - 0.5)"),
                          ScalarField.constant(0.25), UNIT_SQUARE)
    return PhaseFunction(exp, w)


PHASES = {
    "variable": _variable_phase,
    "constant": lambda: PhaseFunction(ExponentTriple.constants(2, 3, 3),
                                      WeightPair.constants(1.0, 0.0)),
}

CENTER = (Ball((0.5, 0.5), 0.1), Ball((0.5, 0.5), 0.2))
CORNER = (Ball((0.3, 0.7), 0.05), Ball((0.3, 0.7), 0.15))
M_GRID = (0.05, 0.2)


def probe_values(tf):
    """Every pinned output for the phase tf, as Python floats."""
    fp = FluxParams(tf, eps=0.0)
    mesh = structured_mesh(UNIT_SQUARE, 32)
    u = minimize_dirichlet(fp, mesh, _trace)
    lift = interpolate(_trace, mesh)
    # u minus its trace's interpolant vanishes on every boundary node
    z = FeFunction(mesh, u.nodal_values - lift.nodal_values)
    # u truncated at its largest nodal value on y <= 0.5 vanishes there
    level = float(np.max(u.nodal_values[mesh.vertices[:, 1] <= 0.5]))
    trunc = FeFunction(mesh, np.maximum(u.nodal_values - level, 0.0))
    fam = BallFamily.concentric_pairs([(0.5, 0.5), (0.3, 0.7)], [(0.1, 0.2)])
    hi = higher_integrability_probe(fp, u, fam, list(M_GRID))
    bhi = boundary_higher_integrability_probe(fp, u, lift, [CENTER, CORNER],
                                              m_grid=M_GRID)
    return {
        "caccioppoli": [caccioppoli_ratio(fp, u, p) for p in (CENTER, CORNER)],
        "truncation": [caccioppoli_truncation_ratio(fp, u, CENTER, 0.25, s)
                       for s in (+1, -1)],
        "sobolev_poincare": [
            sobolev_poincare_ratio(fp, u, CENTER[1], 0.75),
            sobolev_poincare_ratio(fp, u, CORNER[1], 0.5)],
        "zero_set": sobolev_poincare_zero_set(
            fp, trunc, CENTER[1], lambda x, y: y <= 0.5, 0.75, 0.4),
        "higher": [float(r) for _, _, r in hi.per_ball]
                  + [float(hi.empirical_constant)],
        "largest_stable_m": hi.parameters["largest_stable_m"],
        "boundary": [float(r) for _, _, r in bhi.per_ball]
                    + [float(bhi.empirical_constant)],
        "poincare_w0": float(poincare_w0_ratio(fp, z)),
        "coercive": [tuple(float(v) for v in row)
                     for row in check_coercive(fp, z, (0.5, 1.0, 2.0))],
    }


PINNED = {
    "variable": {'caccioppoli': [0.22924765124131102, 0.19360140057003936],
                 'truncation': [0.25110358978320546, 0.1849479718760468],
                 'sobolev_poincare': [0.08919078519538731,
                                      0.15602871840032395],
                 'zero_set': 0.23915459891182472,
                 'higher': [0.37694164959872833,
                            0.37932869102358086,
                            0.6307919319920252,
                            0.6355712136542432,
                            0.6355712136542432],
                 'largest_stable_m': 0.2,
                 'boundary': [0.1983194929116785,
                              0.18397300453096807,
                              0.32252179128021274,
                              0.3136968691365581,
                              0.32252179128021274],
                 'poincare_w0': 0.21646299751390488,
                 'coercive': [(0.5, 0.31908186923088117, 0.15922195002905942),
                              (1.0, 0.7507129750625275, 0.6368878001162028),
                              (2.0, 1.839741978256426, 1.5961050092223956)]},
    "constant": {'caccioppoli': [0.21314859256579988, 0.1918294768524407],
                 'truncation': [0.1984473216505689, 0.2350122700268837],
                 'sobolev_poincare': [0.10906037696496278, 0.15990757712682924],
                 'zero_set': 0.22310276137741328,
                 'higher': [0.4964167706763269,
                            0.4992469342981309,
                            0.709364155497954,
                            0.7154573009632351,
                            0.7154573009632351],
                 'largest_stable_m': 0.2,
                 'boundary': [0.23996052471473986,
                              0.2273187783824063,
                              0.33679017109310544,
                              0.32400937641117755,
                              0.33679017109310544],
                 'poincare_w0': 0.22482274341005584,
                 'coercive': [(0.5, 0.290640669874978, 0.16323295804182147),
                              (1.0, 0.7350049666157555, 0.6529318321560593),
                              (2.0, 2.084904440674378, 1.6160839485079643)]},
}


@pytest.mark.parametrize("phase", sorted(PHASES))
def test_probe_values_pinned(phase):
    got = probe_values(PHASES[phase]())
    want = PINNED[phase]
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    import pprint
    pprint.pprint({name: probe_values(build()) for name, build in PHASES.items()},
                  sort_dicts=False, width=78)
