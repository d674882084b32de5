"""The package's lazy public names, and the layers each command loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freeprob
from freeprob import models
from freeprob.jsonio import write_functional

REPO_ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = """
CapacityError DomainError FreeprobError ParseError StructuralError
ValidationError NcPartition catalan_number enumerate_nc full interval
is_noncrossing join leq meet mobius singletons CumulantFunctional
MomentFunctional as_scalar block_cumulant_product block_moment_product
cumulant_mobius_sum cumulants_to_moments moment_lattice_sum
moments_to_cumulants FreenessReport check_freeness free_product
CovarianceMatrix PoissonSpec bernoulli compound_free_poisson
compound_free_poisson_cumulants free_poisson projection_family
projection_functional sandwich_cumulants semicircle semicircle_family
ConvergenceReport PoissonApproximation array_cumulants
compound_limit_check dilate free_sum_moments multi_poisson_limit_check
poisson_approximation poisson_limit_check sequence_limit_check GramMatrix
InfdivVerdict check_infdiv gram_matrix is_psd kappa_functional_checks
monomial_basis psd_certificate FockModel FockOperator LevyReport PolySpace
TimeComponent build_fock_model build_poly_space verify_levy_axioms Session
evaluate parse pretty run_source functional_from_dict functional_to_dict
read_functional write_functional
""".split()


def test_public_names_are_their_layers_own_and_kept_after_first_use():
    assert freeprob.__all__ == PUBLIC_NAMES
    assert set(freeprob.__all__) <= set(dir(freeprob))
    for name in freeprob.__all__:
        value = getattr(freeprob, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert vars(freeprob)[name] is value


def test_a_name_is_read_from_its_layer_at_first_use(monkeypatch):
    # a function rebound in its layer before first use, as the benchmark's
    # tracer rebinds them, is the one the package hands out
    def marker():
        pass

    monkeypatch.delitem(vars(freeprob), "semicircle", raising=False)
    monkeypatch.setattr(models, "semicircle", marker)
    assert freeprob.semicircle is marker


def test_an_unknown_name_is_refused_by_its_name():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        freeprob.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from freeprob import no_such_name  # noqa: F401


PROBE = r"""
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("freeprob."))

import freeprob
seen = [loaded()]
from freeprob import cli
for argv in (["nc", "enumerate", "4", "--count-only"], ["transform", "m2c", "--in", sys.argv[1]]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    seen.append(loaded())
print(json.dumps(seen))
"""


def test_each_command_loads_only_its_layers(tmp_path):
    path = tmp_path / "m.json"
    write_functional(path, models.semicircle(order=4))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    bare, nc, transform = json.loads(proc.stdout)
    assert bare == ["freeprob.errors"]
    assert "numpy" not in nc
    assert "freeprob.functionals" in transform
    unused = {"freeprob.%s" % m for m in ("dsl", "fock", "infdiv", "limits", "models")}
    assert not unused & set(transform)
