"""Every job oracle accepts the program's output and rejects it once one
value is perturbed (typically by 1/1000).

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

import dataclasses
import json
import os
import random
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads as wl  # noqa: E402
from oracles import Reject  # noqa: E402

fp = wl.load_program(os.path.join(ROOT, "src"))
EPS = F(1, 1000)


def bump(table, word, delta=EPS):
    """Same functional with one entry moved by delta."""
    entries = dict(table.items())
    entries[word] += delta
    return type(table)(table.alphabet, table.order, entries)


class OracleCase(unittest.TestCase):
    ctx = {}

    def job(self, kind, seed=7, **size):
        d = wl.KINDS[kind].draw(random.Random(seed), **size)
        inp = wl.KINDS[kind].build(d, self.ctx)
        out = wl.KINDS[kind].run(inp, self.ctx)
        wl.KINDS[kind].check(d, inp, out, self.ctx)  # the true output passes
        return d, inp, out

    def rejects(self, kind, d, inp, out):
        with self.assertRaises(Reject):
            wl.KINDS[kind].check(d, inp, out, self.ctx)


class TablesOracles(OracleCase):
    def test_roundtrip(self):
        d, mf, (cf, back) = self.job("roundtrip", k=2, order=6)
        self.rejects("roundtrip", d, mf, (cf, bump(back, (1, 2, 2))))
        self.rejects("roundtrip", d, mf, (bump(cf, d["probes"][0]), back))

    def test_free_product(self):
        d, inp, (joint, rep) = self.job("free", ka=1, kb=1, order=5)
        self.rejects("free", d, inp, (bump(joint, (1, 2, 1)), rep))  # mixed word
        self.rejects("free", d, inp, (bump(joint, (2, 2)), rep))  # restriction
        failed = dataclasses.replace(rep, violations=(((1, 2), EPS),))
        self.rejects("free", d, inp, (joint, failed))

    def test_limit(self):
        for model in ("free", "equal"):
            d, inp, rep = self.job("limit", order=4, model=model)
            rows = list(rep.rows)
            r = rows[5]
            rows[5] = dataclasses.replace(r, values=(r.values[0] + EPS,) + r.values[1:],
                                          errors=(abs(r.values[0] + EPS - r.target),) + r.errors[1:])
            self.rejects("limit", d, inp, dataclasses.replace(rep, rows=tuple(rows)))
            rows[5] = dataclasses.replace(r, target=r.target + EPS)
            self.rejects("limit", d, inp, dataclasses.replace(rep, rows=tuple(rows)))

    def test_infdiv(self):
        d, inp, v = self.job("infdiv", k=2, d=2, verdict="FAIL")
        self.rejects("infdiv", d, inp, dataclasses.replace(v, witness_value=v.witness_value + EPS))
        self.rejects("infdiv", d, inp, dataclasses.replace(v, verdict="PASS"))
        d, inp, v = self.job("infdiv", k=2, d=2, verdict="PASS")
        self.rejects("infdiv", d, inp, dataclasses.replace(v, rank=5))


class LatticeOracles(OracleCase):
    def test_enumerate(self):
        d, n, listing = self.job("enumerate", n=6)
        self.rejects("enumerate", d, n, listing[1:])
        crossing = fp.NcPartition._trusted(6, ((1, 3), (2, 4), (5,), (6,)))
        self.rejects("enumerate", d, n, [crossing] * len(listing))

    def test_pairs(self):
        d, inp, (results, mu01) = self.job("pairs", n=7, count=5)
        self.rejects("pairs", d, inp, (results, mu01 + 1))
        j, m, mu_pj, mu_mr = results[0]
        self.rejects("pairs", d, inp, ([(j, m, mu_pj + 1, mu_mr)] + results[1:], mu01))
        self.rejects("pairs", d, inp, ([(m, m, mu_pj, mu_mr)] + results[1:], mu01))

    def test_convolution(self):
        d, inp, out = self.job("convolution", n=7, lo=5, hi=40)
        r, v = out[0]
        self.rejects("convolution", d, inp, [(r, v + 1)] + out[1:])

    def test_lattice_sums(self):
        for direction in ("m2c", "c2m"):
            d, inp, value = self.job("lattice_sum", direction=direction, n=5)
            self.rejects("lattice_sum", d, inp, value + EPS)


class FockOracles(OracleCase):
    def test_levy(self):
        d, inp, (poly, rep) = self.job("levy", law="semicircle")
        sec = dataclasses.replace(rep.sections[0], passed=False)
        self.rejects("levy", d, inp, (poly, dataclasses.replace(rep, sections=(sec,) + rep.sections[1:])))

    def test_increments(self):
        d, inp, table = self.job("increments", points=3)
        self.rejects("increments", d, inp, bump(table, (1, 2)))


class CliOracles(OracleCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_test_")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.ctx = {"root": ROOT, "workdir": self.workdir, "traced": False, "env": env,
                    "job_index": 0}

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_transform_chain(self):
        self.job("cli_model", chain=0, ctor="bernoulli")
        d, argv, out = self.job("cli_transform", chain=0, direction="m2c")
        d, argv, out = self.job("cli_transform", chain=0, direction="c2m")
        with open(argv[-1], "a", encoding="utf-8") as fh:
            fh.write(" ")
        self.rejects("cli_transform", d, argv, out)
        self.rejects("cli_transform", d, argv, (1, "", "error"))

    def test_model_and_m2c_values(self):
        d, argv, out = self.job("cli_model", chain=1, ctor="free_poisson")
        path = argv[-1]
        table = fp.read_functional(path)
        fp.write_functional(path, bump(table, (1, 1)))
        self.rejects("cli_model", d, argv, out)
        d, argv, out = self.job("cli_transform", chain=2, direction="m2c", source="random")
        fp.write_functional(argv[-1], bump(fp.read_functional(argv[-1]), (1,)))
        self.rejects("cli_transform", d, argv, out)

    def test_json_verdicts(self):
        def perturb(kind, edit, **size):
            d, argv, (code, stdout, err) = self.job(kind, **size)
            payload = json.loads(stdout)
            edit(payload)
            self.rejects(kind, d, argv, (code, json.dumps(payload), err))

        perturb("cli_infdiv", lambda v: v["witness"].update(form_value="-1/1000"),
                k=2, verdict="FAIL")
        perturb("cli_infdiv", lambda v: v.update(verdict="FAIL"), k=2, verdict="PASS")
        perturb("cli_nc", lambda v: v.update(count=v["count"] + 1), what="enumerate", n=6)
        perturb("cli_nc", lambda v: v.update(mobius=v["mobius"] + 1), what="mobius", n=7)
        perturb("cli_limit", lambda v: v["rows"][0].update(target="1/1000"), model="free")
        perturb("cli_fock", lambda v: v.update(passed=False))
        perturb("cli_session", lambda v: v[-1].update(result=str(F(v[-1]["result"]) + EPS)))

    def test_demo_session(self):
        d, argv, (code, stdout, err) = self.job("cli_session", demo=True)
        self.rejects("cli_session", d, argv, (code, stdout.replace("phi = 7", "phi = 7001/1000"), err))


if __name__ == "__main__":
    unittest.main()
