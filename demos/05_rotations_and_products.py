#!/usr/bin/env python3
"""Rotation sequences, the product rule, and the uniform-limit rule.

Fractional parts of n*alpha for irrational alpha equidistribute, so their
index of convergence to any interval is its length.  Products of two such
sequences follow the pushforward measure under (x, y) -> x y, and a double
sequence converging uniformly to a single sequence inherits its indices.
"""
import math

from conidx import (
    SeqWindow,
    Target,
    check_product_rule,
    check_uniform_limit_rule,
    default_checkpoints,
    index_to_target,
    product_measure,
    rotation_sequence,
    sum_rule_check,
)

win = rotation_sequence("sqrt2_minus_1", 0.0, 5000)
cps = default_checkpoints(5000)
for a, b in [(0.0, 0.5), (0.25, 0.4), (0.0, 1.0)]:
    rep = index_to_target(win, Target.interval_union([(a, b)]), 0.005, cps)
    print(f"rotation index to [{a}, {b}]: {rep.estimate.lower_est:.4f}"
          f"   (interval length {b - a})")

shifted = rotation_sequence("sqrt2_minus_1", 0.37, 5000)
rep = index_to_target(shifted, Target.interval_union([(0.0, 0.5)]), 0.005, cps)
print(f"same with a phase shift: {rep.estimate.lower_est:.4f}")

print("\nproduct rule: x_n y_m for two rotations, A = [0, 1/2]")
rep = check_product_rule("sqrt2_minus_1", "golden_frac", (0.0, 0.5), 1500)
print(f"  estimated {rep.estimate.lower_est:.4f} vs closed form "
      f"{product_measure(0.0, 0.5):.4f}  [{rep.verdict}]"
      f"   ((1 + ln 2)/2 = {(1 + math.log(2)) / 2:.4f})")

print("\ndisjoint targets obey the sum rule:")
u = rotation_sequence("sqrt2_minus_1", 0.0, 1200).values
v = rotation_sequence("golden_frac", 0.0, 1200).values
prod_win = SeqWindow.from_product(u, v)
targets = [Target.interval_union([(0.0, 0.2)]), Target.interval_union([(0.5, 0.7)])]
print(f"  sum of index estimates <= 1 + 0.02: {sum_rule_check(prod_win, targets, 0.02, 0.02)}")

print("\nuniform-limit rule: x[n,m] = y_n + 1/m inherits the index of y_n")
rep = check_uniform_limit_rule(2000)
print(f"  2-d index {rep.estimate.lower_est:.4f} >= 1-d index "
      f"{rep.predicted:.4f} - 0.02  [{rep.verdict}]")
