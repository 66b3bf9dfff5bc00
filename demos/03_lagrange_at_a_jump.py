#!/usr/bin/env python3
"""Lagrange interpolation of a unit step at Chebyshev nodes, watched at the jump.

Away from the jump the interpolants converge uniformly.  At the jump the
sequence L_n h(x0) never settles: when the jump angle is a rational multiple
p/q of pi, the values cluster at q points (the step's own value d on node
hits, and the profile at the q-1 nonzero offsets), each cluster carrying
index of convergence 1/q.  Explicit subsequences realize each cluster.
"""
import math

import numpy as np

from conidx import (
    ExperimentSpec,
    PointSpec,
    cluster_witness,
    eval_jump_decomposed,
    jump_sequence,
    lagrange_jump_profile,
    run_index_experiment,
    scan_decreasing,
    uniform_convergence_scan,
)

spec = PointSpec.rational(1, 3)          # jump angle pi/3, i.e. x0 = 1/2
x0 = math.cos(math.pi * spec.value)

print("first values of L_n h(x0) for the jump step with d = 1:")
values = jump_sequence(spec, 1.0, 3000)
for n in range(2, 14):
    print(f"  n={n:2d}  L_n h = {values[n - 1]:+.6f}")
print("  ... the three arms settle near",
      f"1, {lagrange_jump_profile(1/3):.4f}, {lagrange_jump_profile(2/3):.4f}")

# the decomposed evaluation (boundary + partial profile series + correction)
# is an independent route to the same numbers
worst = max(abs(values[n - 1] - eval_jump_decomposed(spec, 1.0, n))
            for n in range(2, 3001))
print(f"max disagreement with the decomposed evaluation: {worst:.2e}")

exp = ExperimentSpec(operator="lagrange1d", spec_x=spec, d=1.0, window=3000,
                     tolerance=0.02)
result = run_index_experiment(exp)
print(f"\nindex estimates over a {exp.window}-term window (eps = {result.epsilon}):")
for rep in result.reports:
    print(f"  {rep.label:>14}: estimated {rep.estimate.lower_est:.4f}"
          f"  predicted {rep.predicted:.4f}  [{rep.verdict}]")
print(f"  residual mass outside all clusters: {result.residual_mass:.4f}")

print("\nexplicit subsequences realizing each cluster (window 2000):")
wit_exp = ExperimentSpec(operator="lagrange1d", spec_x=spec, d=1.0, window=2000)
for m in range(3):
    wit = cluster_witness(wit_exp, m)
    print(f"  offset {m}/3: limit {wit.limit:.4f}, tail value {wit.tail_value:.4f}"
          f" (dev {wit.tail_deviation:.1e}), subsequence density {wit.density_estimate:.4f}")

# irrational angle: the whole profile appears, and interval indices are
# preimage measures
irr = ExperimentSpec(operator="lagrange1d", spec_x=PointSpec.irrational("inv_sqrt2"),
                     window=5000, tolerance=0.02, targets=[(0.3, 0.6)])
rep = run_index_experiment(irr).reports[0]
print(f"\nirrational angle, A = [0.3, 0.6]: estimated {rep.estimate.lower_est:.4f}"
      f" vs preimage measure {rep.predicted:.4f}  [{rep.verdict}]")

rows = uniform_convergence_scan(exp, [(-1.0, x0 - 0.2), (x0 + 0.2, 1.0)],
                                [250, 500, 1000, 2000])
print("\nuniform convergence away from the jump (sup errors):")
for row in rows:
    print(f"  region {row['region']}, n={row['n']:4d}: {row['sup_error']:.5f}")
print(f"nonincreasing within slack: {scan_decreasing(rows)}")
