"""
Cauchy and Poisson transforms on the truncated word space
=========================================================

The analytic layer: expand a vector against the weighted orbit of a
family, square up the defect, and watch the kernel reproduce the
operators it came from.
"""

import numpy as np

from raamkit import (
    Graph,
    ball,
    build_fock,
    cauchy_apply,
    clique_number,
    generator,
    identity,
    nica_covariance_check,
    normal_form,
    poisson_kernel,
    poisson_reproduce_check,
    tail_bound,
    truncated_shift_family,
    unit_resolution_check,
    vn_certificate,
)

g = Graph.from_edges(4, [(1, 2), (1, 4), (2, 4), (3, 4)])
level = 4

# The compressed shifts act on the ball of words of norm <= level.
fk = build_fock(g, level)
print("basis words through norm", level, ":", fk.dim)

# Away from the truncation boundary they satisfy the exact covariance
# relations: adjoints slide past generators or annihilate.
worst = max(r.residual for r in nica_covariance_check(fk))
print("covariance residual on the interior:", worst)

f = truncated_shift_family(g, 2, scale=0.9)
r = 0.9

# The Cauchy expansion of a unit vector: block q carries r^|q| T_q* h.
rng = np.random.default_rng(7)
h = rng.normal(size=f.dim) + 1j * rng.normal(size=f.dim)
h /= np.linalg.norm(h)
v = cauchy_apply(f, r, h, level)
omega = clique_number(g)
print(f"\n||C h||^2 = {np.linalg.norm(v)**2:.4f}",
      f"vs bound {1/(1-r*r)**omega:.2f}  (omega = {omega})")

# How much of the infinite sum the truncation misses is controlled by
# a clique-counting tail.
print("tail bound at this level:", tail_bound(omega, r, level))

# The Poisson kernel is the Cauchy expansion against the square root
# of the defect; for a family with positive defect it is an isometry
# up to the tail.  One kernel holds the whole state at this radius
# (defect, its square root, adjoint orbit) and feeds every check below.
k = poisson_kernel(f, r, level)
gram = k.matrix.conj().T @ k.matrix
print("\n||K*K - I|| =", float(np.linalg.norm(gram - np.eye(f.dim), 2)))

rep = unit_resolution_check(k)
print("unit resolution residual:", rep.residual,
      "| allowance:", rep.parameters["allowance"],
      "| increments monotone:", rep.parameters["monotone"])

# Compressing a rank-one word pair through the kernel returns the
# corresponding operator word, weighted by r.
p = normal_form(g, [1, 2])
q = generator(g, 4)
rep = poisson_reproduce_check(k, p, q)
print(f"\nreproduce {p} x {q}: residual {rep.residual:.2e}")

worst = 0.0
for p in ball(g, 2):
    for q in ball(g, 2):
        worst = max(worst, poisson_reproduce_check(k, p, q).residual)
print("worst over all norm-2 pairs:", f"{worst:.2e}")

# One-sided norm certificates: the truncated word-operator norm only
# undershoots, so domination by it is conclusive.
e = identity(g)
rep = vn_certificate(f, [(1.0, generator(g, 1), e)], level=3)
print("\nsingle generator certificate:", rep.parameters["outcome"],
      f"(lambda side {rep.parameters['lambda_norm_lower']:.4f},",
      f"family side {rep.parameters['family_norm']:.4f})")

mix = [(0.5, generator(g, 1), e), (0.5j, normal_form(g, [2, 4]), generator(g, 4))]
rep = vn_certificate(f, mix, level=3)
print("two-term certificate:", rep.parameters["outcome"])
