"""Build a concrete operator model for a two-variable stationary process.

Starting from the joint cumulants of a correlated semicircle pair we
assemble polynomial-space embeddings, tensor them against step functions
in time, and realize the increments as operators on a truncated Fock
space, applied to state vectors level by level.  The axiom report
verifies marginals, stationarity, freeness of disjoint increments, and
the semigroup scaling in t.
"""

from fractions import Fraction as F

from freeprob.fock import build_fock_model, verify_levy_axioms
from freeprob.functionals import moments_to_cumulants
from freeprob.models import semicircle_family


def main():
    cov = [[F(1), F(1, 2)], [F(1, 2), F(1)]]
    cf = moments_to_cumulants(semicircle_family(cov, 9))
    model = build_fock_model(cf, d_H=4, n_max=4)
    for key, value in model.summary().items():
        print("%-10s %s" % (key, value))
    print()
    report = verify_levy_axioms(model, order=4)
    print(report.to_text())


if __name__ == "__main__":
    main()
