import io
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from freeprob import cli, partitions
from freeprob.cli import main
from freeprob.errors import CapacityError
from freeprob.functionals import (
    CumulantFunctional,
    MomentFunctional,
    cumulants_to_moments,
    iter_words_upto,
    moments_to_cumulants,
)
from freeprob.jsonio import (
    dumps_canonical,
    functional_from_dict,
    functional_to_dict,
    load_schema,
    read_functional,
    write_functional,
)
from freeprob.models import (
    bernoulli,
    compound_free_poisson_cumulants,
    free_poisson,
    semicircle,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- nc ---------------------------------------------------------------------


def test_nc_enumerate(capsys):
    code, out, _ = run_cli(capsys, "nc", "enumerate", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15  # 14 partitions plus the summary
    assert lines[-1] == "NC(4): 14 partitions (Catalan number 14)"
    assert "1 2 3 4" in lines

    code, out, _ = run_cli(capsys, "nc", "enumerate", "4", "--count-only")
    assert out.splitlines() == ["NC(4): 14 partitions (Catalan number 14)"]

    code, out, _ = run_cli(capsys, "nc", "enumerate", "3", "--json")
    payload = json.loads(out)
    assert payload["count"] == 5
    assert "1 3|2" in payload["partitions"]


def test_nc_mobius_single_pair(capsys):
    code, out, _ = run_cli(capsys, "nc", "mobius", "3", "--pi", "1|2|3")
    assert code == 0
    assert out.strip() == "mobius(1|2|3, 1 2 3) = 2"

    code, out, _ = run_cli(
        capsys, "nc", "mobius", "4", "--pi", "1 2|3 4", "--sigma", "1 2 3 4"
    )
    assert out.strip() == "mobius(1 2|3 4, 1 2 3 4) = -1"

    code, out, err = run_cli(
        capsys, "nc", "mobius", "3", "--pi", "1 3|2", "--sigma", "1 2|3"
    )
    assert code == 1  # incomparable pair is a domain error
    assert "error" in err


def test_nc_mobius_table(capsys):
    code, out, _ = run_cli(capsys, "nc", "mobius", "3")
    assert code == 0
    assert len(out.splitlines()) == 5
    code, out, _ = run_cli(capsys, "nc", "mobius", "3", "--json")
    payload = json.loads(out)
    assert payload["sigma"] == "1 2 3"
    assert len(payload["values"]) == 5
    total = sum(v["mobius"] for v in payload["values"])
    assert total == 0  # mu sums to zero over a nontrivial interval


def test_nc_mobius_table_below_sigma(capsys):
    code, out, _ = run_cli(capsys, "nc", "mobius", "3", "--sigma", "1 2|3")
    assert code == 0
    assert out.splitlines() == ["1|2|3  -1", "1 2|3  1"]
    code, out, _ = run_cli(capsys, "nc", "mobius", "4", "--sigma", "1 2|3 4", "--json")
    payload = json.loads(out)
    assert payload["sigma"] == "1 2|3 4"
    assert [v["partition"] for v in payload["values"]] == [
        "1|2|3|4",
        "1|2|3 4",
        "1 2|3|4",
        "1 2|3 4",
    ]
    assert [v["mobius"] for v in payload["values"]] == [1, -1, -1, 1]
    code, _, err = run_cli(capsys, "nc", "mobius", "0")
    assert code == 1 and "n >= 1" in err


def test_nc_mobius_refuses_beyond_the_cap(capsys):
    # the table lists [0_16, 1_16], beyond the cap; one value lists nothing
    code, out, err = run_cli(capsys, "nc", "mobius", "16")
    assert code == 1 and out == ""
    assert "cap" in err
    bottom = "|".join(str(i) for i in range(1, 17))
    top = " ".join(str(i) for i in range(1, 17))
    code, out, err = run_cli(capsys, "nc", "mobius", "16", "--pi", bottom)
    assert code == 0 and err == ""
    assert out == "mobius(%s, %s) = -9694845\n" % (bottom, top)  # -C_15


def test_nc_mobius_table_checks_the_listing_before_building_one_n(capsys, monkeypatch):
    with pytest.raises(CapacityError, match="cap"):
        partitions._check_listing(10**9)

    def no_top(n):
        raise AssertionError("built 1_%d before the listing checks" % n)

    monkeypatch.setattr(cli, "full", no_top)
    code, out, err = run_cli(capsys, "nc", "mobius", "1000000000")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: listing may exceed the cap of 9694845 partitions, |NC(15)|"
    ]


def test_nc_mobius_of_a_partition_missing_almost_every_element(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "nc", "mobius", "1000000000", "--pi", "1")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: not a partition of 1..1000000000: 999999999 missing, the first 2"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "semicircle", "--order", "33"],
        ["model", "semicircle", "--order", "65"],
        ["model", "semicircle", "--order", "100000000"],
        ["limit", "poisson", "--spec", "SPEC", "--order", "65"],
    ],
)
def test_orders_past_the_word_table_maximum_end_in_one_error_line(tmp_path, capsys, argv):
    spec = tmp_path / "spec.json"
    spec.write_text("{}")
    argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: order must be in 1..32, got %s" % argv[-1]]


def test_nc_enumerate_count_only_checks_without_listing(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "nc", "enumerate", "16", "--count-only")
    assert code == 1 and out == "" and "cap" in err
    code, out, err = run_cli(capsys, "nc", "enumerate", "0", "--count-only")
    assert code == 1 and out == "" and "n >= 1" in err

    def no_listing(n):
        raise AssertionError("listed NC(%d) to count it" % n)

    monkeypatch.setattr(partitions, "_nc_partitions", no_listing)
    code, out, _ = run_cli(capsys, "nc", "enumerate", "12", "--count-only")
    assert code == 0
    assert out == "NC(12): 208012 partitions (Catalan number 208012)\n"
    code, out, _ = run_cli(capsys, "nc", "enumerate", "12", "--count-only", "--json")
    assert code == 0 and json.loads(out) == {"n": 12, "count": 208012}


def test_bad_partition_text(capsys):
    code, _, err = run_cli(capsys, "nc", "mobius", "3", "--pi", "1 a|2")
    assert code == 2
    assert "non-integer" in err


# -- model and transform ----------------------------------------------------


def test_model_semicircle_text(capsys):
    code, out, _ = run_cli(capsys, "model", "semicircle", "--order", "4")
    assert code == 0
    assert "phi(s s) = 1" in out
    assert "phi(s s s s) = 2" in out


def test_model_free_poisson_json(capsys):
    code, out, _ = run_cli(
        capsys, "model", "free_poisson", "--rate", "1", "--jump", "1",
        "--order", "4", "--json",
    )
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("functional"))
    assert payload["vars"] == ["x"]
    assert payload["table"]["x x x x"] == "14"


def test_model_family_and_projection(capsys):
    code, out, _ = run_cli(
        capsys, "model", "semicircle_family", "--cov", "1,1/2;1/2,1",
        "--names", "u,v", "--order", "2", "--json",
    )
    payload = json.loads(out)
    assert payload["vars"] == ["u", "v"]
    assert payload["table"]["u v"] == "1/2"

    code, out, _ = run_cli(
        capsys, "model", "projection", "--trace", "1/3", "--order", "3"
    )
    assert "phi(p p p) = 1/3" in out


def test_model_writes_file(tmp_path, capsys):
    out_path = tmp_path / "sc.json"
    code, out, _ = run_cli(
        capsys, "model", "semicircle", "--order", "6", "--out", str(out_path)
    )
    assert code == 0
    assert "wrote 6 entries" in out
    assert read_functional(out_path) == semicircle(2, 6)


def test_transform_roundtrip(tmp_path, capsys):
    m_path = tmp_path / "m.json"
    c_path = tmp_path / "c.json"
    back_path = tmp_path / "back.json"
    run_cli(capsys, "model", "semicircle", "--order", "6", "--out", str(m_path))

    code, _, _ = run_cli(
        capsys, "transform", "m2c", "--in", str(m_path), "--out", str(c_path)
    )
    assert code == 0
    assert read_functional(c_path) == moments_to_cumulants(semicircle(2, 6))

    code, _, _ = run_cli(
        capsys, "transform", "c2m", "--in", str(c_path), "--out", str(back_path)
    )
    assert code == 0
    assert read_functional(back_path) == semicircle(2, 6)

    # direction must match the file kind
    code, _, err = run_cli(capsys, "transform", "c2m", "--in", str(m_path))
    assert code == 2
    assert "kind" in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("kind", [], "kind must be one of cumulants, moments"),
        ("order", 2**70, "table is not total: 2 entries, need at least 1180591620717411303424"),
    ],
)
def test_transform_refuses_a_malformed_document_with_one_error_line(
    tmp_path, capsys, field, value, message
):
    payload = functional_to_dict(semicircle(1, 2))
    payload[field] = value
    path = tmp_path / "bad.json"
    write_json(path, payload)
    code, out, err = run_cli(capsys, "transform", "m2c", "--in", str(path))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: bad functional file: " + message]


def test_compound_model_from_base_file(tmp_path, capsys):
    base_path = tmp_path / "base.json"
    run_cli(
        capsys, "model", "projection", "--trace", "1/2", "--order", "4",
        "--out", str(base_path),
    )
    code, out, _ = run_cli(
        capsys, "model", "compound_free_poisson", "--rate", "2",
        "--base", str(base_path), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    # kappa_n = rate * trace = 1 for every n, so moments count NC(n)
    assert payload["kind"] == "moments"
    assert payload["table"]["p p p"] == "5"


# -- limit ------------------------------------------------------------------


def write_json(path, payload):
    path.write_text(dumps_canonical(payload))


def test_limit_poisson(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_json(spec, {"rate": "1", "jump": "1"})
    code, out, _ = run_cli(
        capsys, "limit", "poisson", "--spec", str(spec),
        "--schedule", "10,100", "--order", "3",
    )
    assert code == 0
    assert "poisson convergence" in out

    code, out, _ = run_cli(
        capsys, "limit", "poisson", "--spec", str(spec),
        "--schedule", "10,100", "--order", "3", "--json",
    )
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("convergence_report"))
    assert payload["schedule"] == ["10", "100"]


def test_limit_multi_and_compound(tmp_path, capsys):
    spec = tmp_path / "multi.json"
    write_json(spec, {"rates": ["1", "2"], "jumps": ["1", "1"], "model": "orthogonal"})
    code, out, _ = run_cli(
        capsys, "limit", "multi", "--spec", str(spec),
        "--schedule", "10,100", "--order", "3",
    )
    assert code == 0

    spec2 = tmp_path / "compound.json"
    write_json(
        spec2,
        {
            "rates": ["2"],  # one rate per base variable
            "model": "equal",
            "base": functional_to_dict(semicircle(2, 3)),
        },
    )
    code, out, _ = run_cli(
        capsys, "limit", "compound", "--spec", str(spec2),
        "--schedule", "10,100", "--order", "3",
    )
    assert code == 0


def test_limit_spec_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "limit", "poisson", "--spec", str(missing))
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    code, _, _ = run_cli(capsys, "limit", "poisson", "--spec", str(bad))
    assert code == 2

    spec = tmp_path / "nomodel.json"
    write_json(spec, {"rates": ["1"]})
    code, _, err = run_cli(capsys, "limit", "multi", "--spec", str(spec))
    assert code == 2
    assert "model" in err


# -- infdiv and fock --------------------------------------------------------


def test_infdiv_check(tmp_path, capsys):
    ok_path = tmp_path / "sc.json"
    run_cli(capsys, "model", "semicircle", "--order", "4", "--out", str(ok_path))
    code, out, _ = run_cli(
        capsys, "infdiv", "check", "--in", str(ok_path), "--degree", "2"
    )
    assert code == 0
    assert out.startswith("PASS")

    bad_path = tmp_path / "bern.json"
    run_cli(capsys, "model", "bernoulli", "--order", "4", "--out", str(bad_path))
    code, out, _ = run_cli(
        capsys, "infdiv", "check", "--in", str(bad_path), "--degree", "2"
    )
    assert code == 0  # a FAIL verdict is still a successful run
    assert out.startswith("FAIL")
    assert "witness" in out

    code, out, _ = run_cli(
        capsys, "infdiv", "check", "--in", str(bad_path), "--degree", "2", "--json"
    )
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("infdiv_verdict"))
    assert payload["verdict"] == "FAIL"

    for degree in ("0", "-1"):
        code, out, err = run_cli(
            capsys, "infdiv", "check", "--in", str(ok_path), "--degree", degree
        )
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: degree must be >= 1"]


def test_fock_verify(tmp_path, capsys):
    path = tmp_path / "sc.json"
    run_cli(capsys, "model", "semicircle", "--order", "5", "--out", str(path))
    code, out, _ = run_cli(capsys, "fock", "verify", "--in", str(path), "--order", "2")
    assert code == 0
    assert "[PASS]" in out
    assert "FAIL" not in out

    code, out, _ = run_cli(
        capsys, "fock", "verify", "--in", str(path), "--order", "2", "--json"
    )
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("levy_report"))
    assert payload["passed"] is True

    # a table of order 5 cannot support order-3 verification
    code, _, err = run_cli(capsys, "fock", "verify", "--in", str(path), "--order", "3")
    assert code == 1
    assert "order" in err


def test_fock_verify_builds_only_the_particles_it_reads(tmp_path, capsys):
    # compound free Poisson law, rate 3, over the tracial state of two 4 x 4
    # matrices: poly dimension 16, so a model at n_max = order = 4 exceeds
    # the Fock dimension cap (69,905 > 60,000), while n_max = 2 reads every
    # particle level the order-4 check needs
    mats = [
        np.array(m, dtype=object)
        for m in (
            [[1, 2, 0, -1], [2, -1, 1, 0], [0, 1, 2, 1], [-1, 0, 1, -2]],
            [[0, 1, -1, 2], [1, 3, 0, 1], [-1, 0, -2, 1], [2, 1, 1, 0]],
        )
    ]

    def phi(w):
        prod = np.eye(4, dtype=int).astype(object)
        for c in w:
            prod = prod.dot(mats[c - 1])
        return F(int(np.trace(prod)), 4 * 2 ** len(w))

    base = MomentFunctional.from_function(("x", "y"), 9, phi)
    path = tmp_path / "k.json"
    write_functional(path, compound_free_poisson_cumulants(3, base))
    code, out, err = run_cli(
        capsys, "fock", "verify", "--in", str(path), "--order", "4", "--json"
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["summary"]["n_max"] == 2
    assert payload["summary"]["dim_fock"] == 1 + 16 + 16**2


def test_fock_verify_reports_an_overflow_in_one_error_line(tmp_path, capsys):
    # variance 10**200 is a float, the fourth moment 2 * 10**400 is not;
    # the finiteness check reports it, and numpy warns of nothing
    path = tmp_path / "wide.json"
    table = {(1,) * n: int(n == 2) * 10**200 for n in range(1, 10)}
    write_functional(path, CumulantFunctional(("x",), 9, table))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "fock", "verify", "--in", str(path), "--order", "4")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: vacuum moment of x x x x is inf"]


def test_fock_verify_refuses_a_law_outside_the_float_range(tmp_path):
    # kappa_n = 10**(100 n): the Gram pivot of x x is 10**400, past the
    # largest float, which is a library error and not a traceback
    path = tmp_path / "huge.json"
    table = {(1,) * n: 10 ** (100 * n) for n in range(1, 6)}
    write_functional(path, CumulantFunctional(("x",), 5, table))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "freeprob.cli", "fock", "verify", "--in", str(path), "--order", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Gram pivot at x x" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_asymmetric_table_is_refused_by_its_words(tmp_path, capsys):
    # moments constant on each length, except phi(x x y) != phi(y x x)
    table = {w: F(len(w), 2) for w in iter_words_upto(2, 5)}
    table[(1, 1, 2)] = F(7)
    path = tmp_path / "asym.json"
    write_functional(path, MomentFunctional(("x", "y"), 5, table))
    message = "error: Gram matrix not symmetric: kappa(x x y) != kappa(y x x)"
    for argv in (
        ["infdiv", "check", "--in", str(path), "--degree", "2"],
        ["fock", "verify", "--in", str(path), "--order", "2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.splitlines() == [message]


# -- approx -----------------------------------------------------------------


def test_approx(tmp_path, capsys):
    target = tmp_path / "fp.json"
    run_cli(capsys, "model", "free_poisson", "--order", "4", "--out", str(target))
    code, out, _ = run_cli(
        capsys, "approx", "--target", str(target), "--j", "1,10", "--order", "3"
    )
    assert code == 0
    assert "convergence" in out

    bern = tmp_path / "b.json"
    run_cli(capsys, "model", "bernoulli", "--order", "4", "--out", str(bern))
    code, out, _ = run_cli(
        capsys, "approx", "--target", str(bern), "--j", "1,4", "--order", "4"
    )
    assert code == 0
    assert "not positive at j = 4" in out

    # order 1 reads no moment beyond length 1: the base Gram is the 1 x 1
    # Gram of the empty word
    code, out, err = run_cli(
        capsys, "approx", "--target", str(target), "--j", "1,10,100", "--order", "1"
    )
    assert code == 0, err
    assert "convergence, order 1" in out


def test_approx_notes_a_base_that_is_no_state(tmp_path, capsys):
    # kappa(x) = 1, kappa(x x) = -1: the base at j = 1 has moments 1 and 0,
    # so variance -1, and every 1/j dilation has a negative variance too
    target = tmp_path / "t.json"
    write_functional(target, CumulantFunctional(("x",), 2, {(1,): 1, (1, 1): -1}))
    code, out, _ = run_cli(capsys, "approx", "--target", str(target), "--j", "1,2,4")
    assert code == 0
    assert "note: base law not positive at j = 1, 2, 4" in out


# -- run --------------------------------------------------------------------


def test_run_script(tmp_path, capsys):
    script = tmp_path / "session.fp"
    script.write_text(
        "let s = semicircle()\nlet x = free_poisson()\n"
        "free(s, x)\nphi(s*x*s*x)\nkappa(x, x)\n"
    )
    code, out, _ = run_cli(capsys, "run", str(script), "--order", "4")
    assert code == 0
    assert out.splitlines() == ["phi = 1", "kappa = 1"]

    code, out, _ = run_cli(capsys, "run", str(script), "--order", "4", "--json")
    payload = json.loads(out)
    assert [p["kind"] for p in payload] == ["let", "let", "free", "phi", "kappa"]
    assert payload[3]["result"] == "1"


def test_run_demo_session_json(capsys):
    code, out, _ = run_cli(capsys, "run", str(REPO_ROOT / "demos" / "session.fp"), "--json")
    assert code == 0
    payload = json.loads(out)
    (moments,) = [p for p in payload if p["kind"] == "moments"]
    assert moments["statement"] == "moments(s, order=4)"
    assert functional_from_dict(moments["result"]) == semicircle(2, 4, name="s")


def test_run_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("phi(1/2 + 1/3)\n"))
    code, out, _ = run_cli(capsys, "run", "-")
    assert code == 0
    assert out.strip() == "phi = 5/6"


def test_run_error_codes(tmp_path, capsys, monkeypatch):
    code, _, _ = run_cli(capsys, "run", str(tmp_path / "absent.fp"))
    assert code == 2

    bad = tmp_path / "bad.fp"
    bad.write_text("phi(s +)\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "expected" in err

    unbound = tmp_path / "unbound.fp"
    unbound.write_text("phi(z)\n")
    code, _, err = run_cli(capsys, "run", str(unbound))
    assert code == 1
    assert "unbound" in err

    for source in (
        "let p = projection(2)",
        "let x = free_poisson(lambda=-1)",
        "let s = semicircle(0)",
        "let b = bernoulli(t=2)",
    ):
        bad_value = tmp_path / "bad_value.fp"
        bad_value.write_text(source + "\n")
        code, _, err = run_cli(capsys, "run", str(bad_value))
        assert code == 1
        assert source in err

    script = tmp_path / "fine.fp"
    script.write_text("phi(1)\n")
    code, _, _ = run_cli(capsys, "run", str(script), "--order", "99")
    assert code == 1  # session order cap
    code, _, err = run_cli(capsys, "run", str(script), "--order", "0")
    assert code == 1
    assert "session order" in err

    monkeypatch.setenv("FREEPROB_ORDER_CAP", "abc")
    code, _, err = run_cli(capsys, "run", str(script))
    assert code == 1
    assert "FREEPROB_ORDER_CAP" in err


def test_argparse_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["model", "semicircle", "--radius", "abc"])
    assert info.value.code == 2


def test_json_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "model", "semicircle", "--order", "6", "--json")
    _, second, _ = run_cli(capsys, "model", "semicircle", "--order", "6", "--json")
    assert first == second


def _declared_script(name):
    """The ``[project.scripts]`` target for ``name`` in the repository's pyproject."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script_entry_point(tmp_path):
    # Run the declared target the way an installer's generated wrapper does,
    # so the check needs no installed package.
    module, _, attr = _declared_script("freeprob").partition(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'freeprob'\n"
        f"sys.exit({attr}())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "nc", "enumerate", "3", "--count-only"],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert "5 partitions" in proc.stdout


@pytest.mark.skipif(
    shutil.which("freeprob") is None, reason="freeprob is not installed on PATH"
)
def test_installed_console_script_on_path():
    proc = subprocess.run(
        ["freeprob", "nc", "enumerate", "3", "--count-only"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "5 partitions" in proc.stdout
