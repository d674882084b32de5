"""The four workloads: job kinds, their sizes, and their oracles.

A job kind has four steps:

* ``draw(rng, **size)`` makes the job's data from the seed (bench code
  only, timed apart from set-up);
* ``build(d, ctx)`` turns the data into freeprob objects or input files
  (part of set-up);
* ``run(inp, ctx)`` is the timed request to the program;
* ``check(d, inp, out, ctx)`` is the independent oracle, untimed; it
  raises ``oracles.Reject`` on a wrong result.

A workload is a fixed round of (kind, size) pairs repeated ``ROUNDS``
times; only the values change with the seed.  freeprob is imported after
the draws, so the draws never touch the program.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import gen
import oracles as o
from oracles import require

fp = None  # the freeprob package, bound by load_program()


def load_program(src_dir):
    global fp
    sys.path.insert(0, src_dir)
    import freeprob

    fp = freeprob
    return freeprob


def names(prefix, k):
    return tuple("%s%d" % (prefix, i + 1) for i in range(k))


def table_moment(table):
    return lambda w: table[w] if w else Fraction(1)


def scaled(table, factor):
    return {w: factor * v for w, v in table.items()}


# -- tables -------------------------------------------------------------------


class RoundTrip:
    """moments -> cumulants -> moments on a random rational table."""

    @staticmethod
    def draw(rng, k, order):
        table = gen.random_table(rng, k, order)
        probes = [tuple(rng.randint(1, k) for _ in range(n)) for n in (5, 6)]
        return {"k": k, "order": order, "table": table, "probes": probes}

    @staticmethod
    def build(d, ctx):
        return fp.MomentFunctional(names("x", d["k"]), d["order"], d["table"])

    @staticmethod
    def run(mf, ctx):
        cf = fp.moments_to_cumulants(mf)
        return cf, fp.cumulants_to_moments(cf)

    @staticmethod
    def check(d, mf, out, ctx):
        cf, back = out
        require(back == mf, "round trip changed the table")
        for w in d["probes"]:
            want = o.lattice_cumulant(table_moment(d["table"]), w)
            require(cf.cumulant(w) == want, "cumulant of %r off the lattice sum" % (w,))


class FreeProduct:
    """free_product of two random tracial laws, then check_freeness."""

    @staticmethod
    def draw(rng, ka, kb, order):
        a = gen.tracial_state(rng, ka, 2, order)
        b = gen.tracial_state(rng, kb, 3, order)
        k = ka + kb
        probes = [tuple(rng.randint(1, k) for _ in range(order)) for _ in range(4)]
        return {"ka": ka, "kb": kb, "order": order, "a": a, "b": b, "probes": probes}

    @staticmethod
    def build(d, ctx):
        return (
            fp.MomentFunctional(names("a", d["ka"]), d["order"], d["a"]),
            fp.MomentFunctional(names("b", d["kb"]), d["order"], d["b"]),
        )

    @staticmethod
    def run(inp, ctx):
        a, b = inp
        joint = fp.free_product([a, b])
        return joint, fp.check_freeness(joint, [a.alphabet, b.alphabet])

    @staticmethod
    def check(d, inp, out, ctx):
        joint, report = out
        ka, kb, order = d["ka"], d["kb"], d["order"]
        k = ka + kb
        family = {c: int(c > ka) for c in range(1, k + 1)}
        pure = sum(ka**n + kb**n for n in range(1, order + 1))
        total = sum(k**n for n in range(1, order + 1))
        require(report.passed, "check_freeness rejected a free product")
        require(report.checked_words == total - pure, "wrong mixed-word count")
        for w, v in d["a"].items():
            require(joint.moment(w) == v, "product does not restrict to factor a")
        for w, v in d["b"].items():
            require(joint.moment(tuple(c + ka for c in w)) == v,
                    "product does not restrict to factor b")
        for w in list(gen.words_upto(k, 4)) + d["probes"]:
            if len({family[c] for c in w}) > 1:
                require(o.centred_product(joint.moment, w, family) == 0,
                        "centred alternating product of %r is not zero" % (w,))


class Limit:
    """multi_poisson_limit_check of a row of two projections."""

    @staticmethod
    def draw(rng, order, model, schedule=(10, 100, 1000)):
        rate = gen.positive_rational(rng)
        rates = [rate, rate] if model == "equal" else [rate, gen.positive_rational(rng)]
        jumps = [gen.positive_rational(rng, 3, 3) * rng.choice((1, -1)) for _ in rates]
        return {"order": order, "model": model, "rates": rates, "jumps": jumps,
                "schedule": list(schedule)}

    @staticmethod
    def build(d, ctx):
        spec = fp.PoissonSpec.of(d["rates"], d["jumps"])
        return spec, d["model"], d["schedule"], d["order"]

    @staticmethod
    def run(inp, ctx):
        return fp.multi_poisson_limit_check(*inp)

    @staticmethod
    def check(d, inp, report, ctx):
        check_limit_rows(d, [(r.word, r.values, r.target, r.errors) for r in report.rows])


def limit_expectation(d, word):
    """Closed-form target and the exact finite-N values on words of
    length <= 2: N * kappa of the scaled projection row."""
    rates, jumps, model = d["rates"], d["jumps"], d["model"]
    scale = Fraction(1)
    for c in word:
        scale *= jumps[c - 1]
    pure = len(set(word)) == 1
    if model == "equal":
        rate = rates[0]
    elif pure:
        rate = rates[word[0] - 1]
    else:
        return Fraction(0), lambda n: Fraction(0)
    if len(word) == 1:
        return rate * scale, lambda n: rate * scale
    if len(word) == 2:
        return rate * scale, lambda n: rate * scale * (1 - rate / n)
    return rate * scale, None


def check_limit_rows(d, rows):
    k = len(d["rates"])
    want_words = list(gen.words_upto(k, d["order"]))
    require([tuple(r[0]) for r in rows] == want_words, "report rows are not every word")
    for word, values, target, errors in rows:
        want, finite = limit_expectation(d, tuple(word))
        require(target == want, "target of %r is not the closed-form limit" % (word,))
        require(len(values) == len(d["schedule"]), "one value per schedule entry")
        for n, v, e in zip(d["schedule"], values, errors):
            require(e == abs(v - target), "error column inconsistent")
            if finite is not None:
                require(v == finite(n), "finite-N cumulant of %r at N=%d" % (word, n))


class Infdiv:
    """check_infdiv at degree 3.  The compound free Poisson law over a
    tracial matrix state passes with rank <= d^2; the state itself fails
    with an exact witness."""

    @staticmethod
    def draw(rng, k, d, verdict):
        state = gen.tracial_state(rng, k, d, 6)
        return {"k": k, "d": d, "verdict": verdict, "state": state,
                "rate": gen.positive_rational(rng)}

    @staticmethod
    def build(d, ctx):
        alphabet = names("v", d["k"])
        if d["verdict"] == "PASS":
            return fp.CumulantFunctional(alphabet, 6, scaled(d["state"], d["rate"]))
        return fp.MomentFunctional(alphabet, 6, d["state"])

    @staticmethod
    def run(table, ctx):
        return fp.check_infdiv(table, degree=3)

    @staticmethod
    def check(d, table, v, ctx):
        k = d["k"]
        require(v.verdict == d["verdict"], "verdict %s, expected %s" % (v.verdict, d["verdict"]))
        require(v.dimension == k + k * k + k**3, "wrong Gram dimension")
        if v.verdict == "PASS":
            require(v.rank <= d["d"] ** 2, "rank above d^2 for a matrix law")
            require(all(p > 0 for _, p in v.pivot_trace), "non-positive pivot")
            return
        letter = {name: i + 1 for i, name in enumerate(v.alphabet)}
        coeffs = [(tuple(letter[c] for c in w.split()), c) for w, c in v.witness]
        check_witness(table_moment(d["state"]), v.alphabet, coeffs, v.witness_value)


def check_witness(moment, alphabet, coeffs, value):
    """Re-evaluate a FAIL witness exactly on Gram entries recomputed by
    the lattice sum, through GramMatrix.quadratic_form."""
    require(coeffs and value is not None and value < 0, "FAIL without a negative witness")
    words = tuple(w for w, _ in coeffs)
    entries = tuple(
        tuple(o.lattice_cumulant(moment, w + v[::-1]) for v in words) for w in words
    )
    gram = fp.GramMatrix(alphabet=alphabet, degree=max(map(len, words)),
                         words=words, entries=entries)
    require(gram.quadratic_form([c for _, c in coeffs]) == value,
            "witness form value does not re-evaluate")


# -- lattice ------------------------------------------------------------------


class Enumerate:
    @staticmethod
    def draw(rng, n):
        return {"n": n, "probes": [rng.random() for _ in range(20)]}

    @staticmethod
    def build(d, ctx):
        return d["n"]

    @staticmethod
    def run(n, ctx):
        return fp.enumerate_nc(n)

    @staticmethod
    def check(d, n, listing, ctx):
        require(len(listing) == o.catalan(n), "|NC(%d)| is not the Catalan number" % n)
        for u in d["probes"]:
            p = listing[int(u * len(listing))]
            require(o.is_nc_partition(p.blocks, n), "listed a crossing partition")


# A Mobius value the program has not cached costs about Bell(j) steps, j the
# number of lower blocks inside one upper block.  Draws keep j <= MAX_INNER
# so that cache fills cost about the same from seed to seed.
MAX_INNER = 6


class Pairs:
    """join, meet and mobius on random pairs, plus mu(0, 1)."""

    @staticmethod
    def draw(rng, n, count):
        pairs = []
        while len(pairs) < count:
            p, r = gen.random_nc_blocks(rng, n), gen.random_nc_blocks(rng, n)
            if o.max_inner(o.meet(p, r), r) <= MAX_INNER and len(p) <= MAX_INNER:
                pairs.append((p, r))
        return {"n": n, "pairs": pairs}

    @staticmethod
    def build(d, ctx):
        n = d["n"]
        return [(fp.NcPartition(n, p), fp.NcPartition(n, r)) for p, r in d["pairs"]]

    @staticmethod
    def run(pairs, ctx):
        n = pairs[0][0].n
        out = []
        for p, r in pairs:
            j = fp.join(p, r)
            m = fp.meet(p, r)
            out.append((j, m, fp.mobius(p, j), fp.mobius(m, r)))
        return out, fp.mobius(fp.singletons(n), fp.full(n))

    @staticmethod
    def check(d, pairs, out, ctx):
        results, mu01 = out
        require(mu01 == o.signed_catalan(d["n"]), "mu(0, 1) is not the signed Catalan number")
        for (p, r), (j, m, mu_pj, mu_mr) in zip(d["pairs"], results):
            require(o.leq(p, j.blocks) and o.leq(r, j.blocks), "join is not an upper bound")
            require(o.leq(m.blocks, p) and o.leq(m.blocks, r), "meet is not a lower bound")
            require(o.is_nc_partition(j.blocks, d["n"]), "join is crossing")
            require(mu_pj == o.mobius(p, j.blocks), "mobius(p, join) off Kreweras")
            require(mu_mr == o.mobius(m.blocks, r), "mobius(meet, r) off Kreweras")


class Convolution:
    """mobius(p, r) over the whole interval [p, q].  The pair is redrawn
    until the interval size lies in [lo, hi], so jobs of one size cost
    about the same whatever the seed."""

    @staticmethod
    def draw(rng, n, lo, hi):
        while True:
            q = gen.random_nc_blocks(rng, n, 0.5)
            p = gen.random_refinement(rng, q, 0.2)
            if o.max_inner(p, q) <= MAX_INNER and lo <= o.interval_size(p, q) <= hi:
                return {"n": n, "p": p, "q": q}

    @staticmethod
    def build(d, ctx):
        return fp.NcPartition(d["n"], d["p"]), fp.NcPartition(d["n"], d["q"])

    @staticmethod
    def run(inp, ctx):
        p, q = inp
        return [(r, fp.mobius(p, r)) for r in fp.interval(p, q)]

    @staticmethod
    def check(d, inp, out, ctx):
        p, q = inp
        members = [r for r, _ in out]
        require(len(members) == o.interval_size(d["p"], d["q"]), "interval size off Kreweras")
        require(p in members and q in members, "interval misses an end point")
        require(sum(v for _, v in out) == (1 if p == q else 0),
                "Mobius convolution over [p, q] is not delta")
        for r, _ in out[:: max(1, len(out) // 16)]:
            require(o.leq(p.blocks, r.blocks) and o.leq(r.blocks, q.blocks),
                    "interval member outside [p, q]")


class LatticeSum:
    """The slow one-word lattice sums on a random table."""

    @staticmethod
    def draw(rng, direction, n):
        return {"direction": direction, "table": gen.random_table(rng, 2, n),
                "word": tuple(rng.randint(1, 2) for _ in range(n))}

    @staticmethod
    def build(d, ctx):
        cls = fp.MomentFunctional if d["direction"] == "m2c" else fp.CumulantFunctional
        return cls(("a", "b"), len(d["word"]), d["table"]), d["word"]

    @staticmethod
    def run(inp, ctx):
        table, word = inp
        if isinstance(table, fp.MomentFunctional):
            return fp.cumulant_mobius_sum(table, word)
        return fp.moment_lattice_sum(table, word)

    @staticmethod
    def check(d, inp, value, ctx):
        f = table_moment(d["table"])
        want = (o.lattice_cumulant if d["direction"] == "m2c" else o.lattice_moment)(f, d["word"])
        require(value == want, "lattice sum differs from the set-partition sum")


# -- fock ---------------------------------------------------------------------


class Levy:
    """PolySpace plus verify_levy_axioms.  ``law`` is "matrix" (compound
    free Poisson over a random 2x2 matrix state, d_H = order = 3) or one of
    the two shapes of acceptance criterion 11 with random parameters
    (d_H = n_max = order = 4)."""

    @staticmethod
    def draw(rng, law, k=2):
        if law == "matrix":
            return {"law": law, "order": 3, "k": k, "rate": gen.positive_rational(rng),
                    "state": gen.tracial_state(rng, k, 2, 7)}
        if law == "semicircle":
            a, b = gen.positive_rational(rng), gen.positive_rational(rng)
            c = Fraction(rng.randint(-3, 3), 4)
            cov = [[a, c * min(a, b)], [c * min(a, b), b]]  # |c| < 1: positive definite
            return {"law": law, "order": 4, "cov": cov}
        rates = [gen.positive_rational(rng) for _ in range(2)]
        jumps = [gen.positive_rational(rng, 3, 2) for _ in range(2)]
        return {"law": law, "order": 4, "rates": rates, "jumps": jumps}

    @staticmethod
    def cumulants(d):
        order = 2 * d["order"] + 1
        if d["law"] == "matrix":
            return scaled(d["state"], d["rate"])
        table = {}
        for w in gen.words_upto(2, order):
            if d["law"] == "semicircle":
                table[w] = d["cov"][w[0] - 1][w[1] - 1] if len(w) == 2 else Fraction(0)
            elif len(set(w)) == 1:
                table[w] = d["rates"][w[0] - 1] * d["jumps"][w[0] - 1] ** len(w)
            else:
                table[w] = Fraction(0)
        return table

    @staticmethod
    def build(d, ctx):
        alphabet = names("x", d.get("k", 2))
        cf = fp.CumulantFunctional(alphabet, 2 * d["order"] + 1, Levy.cumulants(d))
        return cf, d["order"]

    @staticmethod
    def run(inp, ctx):
        cf, order = inp
        poly = fp.PolySpace(cf, order)
        model = fp.FockModel(poly, fp.TimeComponent((0, 1)), order)
        return poly, fp.verify_levy_axioms(model, order)

    @staticmethod
    def check(d, inp, out, ctx):
        poly, report = out
        require(report.passed, "Levy axioms failed: %s" % report.to_text())
        if d["law"] == "matrix":
            require(poly.dim <= 4, "poly space of a 2x2 matrix law above rank 4")


class Increments:
    """moment_table of levy_increments over a random registered interval,
    against the lattice moments of the dilated cumulants."""

    @staticmethod
    def draw(rng, points):
        bps = set()
        while len(bps) < points:
            bps.add(Fraction(rng.randint(0, 24), rng.choice((1, 2, 3, 4))))
        bps = sorted(bps)
        i, j = sorted(rng.sample(range(points), 2))
        return {"rate": gen.positive_rational(rng), "state": gen.tracial_state(rng, 2, 2, 7),
                "breakpoints": bps, "s": bps[i], "t": bps[j]}

    @staticmethod
    def build(d, ctx):
        cf = fp.CumulantFunctional(("x", "y"), 7, scaled(d["state"], d["rate"]))
        return cf, d["breakpoints"], d["s"], d["t"]

    @staticmethod
    def run(inp, ctx):
        cf, breakpoints, s, t = inp
        poly = fp.PolySpace(cf, 3)
        model = fp.FockModel(poly, fp.TimeComponent(breakpoints), 3)
        ops = [model.levy_increment(i, s, t) for i in (1, 2)]
        return model.moment_table(ops, ("x", "y"), 3)

    @staticmethod
    def check(d, inp, table, ctx):
        length = d["t"] - d["s"]
        kappa = table_moment(scaled(d["state"], d["rate"] * length))
        for w in gen.words_upto(2, 3):
            want = o.lattice_moment(kappa, w)
            require(abs(float(table.moment(w) - want)) <= 1e-9,
                    "increment moment of %r off by more than 1e-9" % (w,))


# -- cli-cold -----------------------------------------------------------------


def cli_path(ctx, name):
    return os.path.join(ctx["workdir"], name)


def run_cli(argv, ctx):
    """One fresh interpreter per job.  Traced runs go through
    cli_traced.py, which installs the same wrappers and saves its spans."""
    if ctx["traced"]:
        spans = cli_path(ctx, "spans-%d.json" % ctx["job_index"])
        ctx["span_files"].append(spans)
        cmd = [sys.executable, ctx["traced_cli"], spans] + argv
    else:
        cmd = [sys.executable, "-m", "freeprob.cli"] + argv
    proc = subprocess.run(cmd, cwd=ctx["root"], env=ctx["env"],
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def cli_ok(out):
    code, stdout, stderr = out
    require(code == 0, "exit %d: %s" % (code, stderr.strip()[-200:]))
    return stdout


def read_entries(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["kind"], data["vars"], {k: Fraction(v) for k, v in data["table"].items()}


class CliModel:
    """model ... --out FILE, the first link of a transform chain."""

    @staticmethod
    def draw(rng, chain, ctor):
        if ctor == "free_poisson":
            params = {"rate": gen.positive_rational(rng), "jump": gen.positive_rational(rng, 3, 3)}
        else:
            params = {"trace": Fraction(rng.randint(1, 5), 6), "up": gen.rational(rng, 3, 2),
                      "down": gen.rational(rng, 3, 2)}
        return {"chain": chain, "ctor": ctor, "params": params, "order": 6}

    @staticmethod
    def build(d, ctx):
        argv = ["model", d["ctor"], "--order", str(d["order"]), "--name", "x"]
        argv += ["--%s=%s" % kv for kv in d["params"].items()]
        return argv + ["--out", cli_path(ctx, "chain%d-m.json" % d["chain"])]

    run = staticmethod(run_cli)

    @staticmethod
    def check(d, argv, out, ctx):
        cli_ok(out)
        _, _, entries = read_entries(argv[-1])
        p = d["params"]
        for n in range(1, d["order"] + 1):
            if d["ctor"] == "free_poisson":
                want = o.free_poisson_moment(p["rate"], p["jump"], n)
            else:
                want = o.bernoulli_moment(p["trace"], p["up"], p["down"], n)
            require(entries[" ".join(["x"] * n)] == want, "model moment of order %d" % n)


class CliTransform:
    """transform m2c / c2m along a chain of files.  c2m(m2c(file)) must
    give the moment file back byte for byte."""

    @staticmethod
    def draw(rng, chain, direction, source=None):
        d = {"chain": chain, "direction": direction}
        if source == "random":
            d["table"] = gen.random_table(rng, 2, 5)
        return d

    @staticmethod
    def build(d, ctx):
        m, c, b = (cli_path(ctx, "chain%d-%s.json" % (d["chain"], s)) for s in "mcb")
        if "table" in d:
            fp.write_functional(m, fp.MomentFunctional(("x", "y"), 5, d["table"]))
        if d["direction"] == "m2c":
            return ["transform", "m2c", "--in", m, "--out", c]
        return ["transform", "c2m", "--in", c, "--out", b]

    run = staticmethod(run_cli)

    @staticmethod
    def check(d, argv, out, ctx):
        cli_ok(out)
        if d["direction"] == "m2c":
            kind, letters, kappa = read_entries(argv[-1])
            _, _, phi = read_entries(argv[-3])
            require(kind == "cumulants", "m2c wrote kind %s" % kind)
            word = lambda s: tuple(letters.index(c) + 1 for c in s.split())
            moment = {word(s): v for s, v in phi.items()}
            for s in list(kappa)[:: max(1, len(kappa) // 12)]:
                want = o.lattice_cumulant(table_moment(moment), word(s))
                require(kappa[s] == want, "m2c cumulant of %s" % s)
            return
        m = argv[-3].replace("-c.json", "-m.json")
        with open(m, "rb") as fh_m, open(argv[-1], "rb") as fh_b:
            require(fh_m.read() == fh_b.read(), "c2m(m2c(file)) is not the file")


class CliInfdiv:
    """infdiv check --json on a written law at degree 2."""

    @staticmethod
    def draw(rng, k, verdict):
        return {"k": k, "verdict": verdict, "state": gen.tracial_state(rng, k, 2, 4),
                "rate": gen.positive_rational(rng)}

    @staticmethod
    def build(d, ctx):
        path = cli_path(ctx, "law-%d.json" % ctx["job_index"])
        alphabet = names("v", d["k"])
        if d["verdict"] == "PASS":
            table = fp.CumulantFunctional(alphabet, 4, scaled(d["state"], d["rate"]))
        else:
            table = fp.MomentFunctional(alphabet, 4, d["state"])
        fp.write_functional(path, table)
        return ["infdiv", "check", "--in", path, "--degree", "2", "--json"]

    run = staticmethod(run_cli)

    @staticmethod
    def check(d, argv, out, ctx):
        v = json.loads(cli_ok(out))
        require(v["verdict"] == d["verdict"], "verdict %s, expected %s" % (v["verdict"], d["verdict"]))
        if v["verdict"] == "FAIL":
            letter = {name: i + 1 for i, name in enumerate(v["vars"])}
            coeffs = [(tuple(letter[c] for c in e["word"].split()), Fraction(e["value"]))
                      for e in v["witness"]["coefficients"]]
            check_witness(table_moment(d["state"]), tuple(v["vars"]), coeffs,
                          Fraction(v["witness"]["form_value"]))


class CliNc:
    """nc enumerate --count-only and nc mobius --pi --sigma."""

    @staticmethod
    def draw(rng, what, n):
        return {"what": what, "n": n, "pi": gen.random_nc_blocks(rng, n),
                "r": gen.random_nc_blocks(rng, n, 0.5)}

    @staticmethod
    def build(d, ctx):
        n = d["n"]
        if d["what"] == "enumerate":
            return ["nc", "enumerate", str(n), "--count-only", "--json"]
        pi = fp.NcPartition(n, d["pi"])
        sigma = fp.join(pi, fp.NcPartition(n, d["r"]))
        return ["nc", "mobius", str(n), "--pi", str(pi), "--sigma", str(sigma), "--json"]

    run = staticmethod(run_cli)

    @staticmethod
    def check(d, argv, out, ctx):
        payload = json.loads(cli_ok(out))
        if d["what"] == "enumerate":
            require(payload["count"] == o.catalan(d["n"]), "count is not Catalan")
            return
        parse = lambda s: tuple(tuple(int(x) for x in b.split()) for b in s.split("|"))
        want = o.mobius(parse(payload["pi"]), parse(payload["sigma"]))
        require(payload["mobius"] == want, "mobius off Kreweras")


class CliLimit:
    """limit multi --spec FILE --json."""

    @staticmethod
    def draw(rng, model):
        return Limit.draw(rng, 4, model, schedule=(10, 100))

    @staticmethod
    def build(d, ctx):
        path = cli_path(ctx, "spec-%d.json" % ctx["job_index"])
        spec = {"rates": [str(r) for r in d["rates"]], "jumps": [str(j) for j in d["jumps"]],
                "model": d["model"]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return ["limit", "multi", "--spec", path, "--schedule", "10,100",
                "--order", str(d["order"]), "--json"]

    run = staticmethod(run_cli)

    @staticmethod
    def check(d, argv, out, ctx):
        report = json.loads(cli_ok(out))
        letter = {"p1": 1, "p2": 2}
        rows = [
            (tuple(letter[c] for c in r["word"].split()), [Fraction(v) for v in r["values"]],
             Fraction(r["target"]), [Fraction(e) for e in r["errors"]])
            for r in report["rows"]
        ]
        check_limit_rows(d, rows)


class CliFock:
    """fock verify --json on a compound free Poisson law over a 2x2 state."""

    @staticmethod
    def draw(rng):
        return {"state": gen.tracial_state(rng, 2, 2, 5), "rate": gen.positive_rational(rng)}

    @staticmethod
    def build(d, ctx):
        path = cli_path(ctx, "fock-%d.json" % ctx["job_index"])
        fp.write_functional(path, fp.CumulantFunctional(("x", "y"), 5, scaled(d["state"], d["rate"])))
        return ["fock", "verify", "--in", path, "--order", "2", "--json"]

    run = staticmethod(run_cli)

    @staticmethod
    def check(d, argv, out, ctx):
        require(json.loads(cli_ok(out))["passed"], "fock verify did not pass")


SESSION_LAWS = ("semicircle", "free_poisson", "bernoulli")

# demos/session.fp: s semicircle, x free Poisson with rate 2, free.  The
# limit rows at N = 10, 100 have errors 2 * 2/N exactly for the word x x.
DEMO_LINES = (
    "phi = 1",  # phi(s*s)
    "phi = 7",  # phi((s+x)^2) = 1 + rate + rate^2
    "kappa = 2",  # kappa(x, x, x)
    "phi(s s s s) = 2",  # Catalan number C_2
    "infdiv PASS at degree 3",
    "[x] target 2 errors 0, 0",
    "[x x] target 2 errors 2/5, 1/25 decay~1.00",
)


class CliSession:
    """run FILE.fp --order 6 --json: three free variables and a few
    queries.  Or the shipped demos/session.fp, as its header says to run
    it: in text mode, because ``run --json`` cannot serialize the table a
    ``moments(...)`` query returns."""

    @staticmethod
    def draw(rng, demo=False):
        if demo:
            return {"demo": True}
        laws = {
            "s": {"radius": Fraction(rng.randint(1, 6), 2)},
            "x": {"lambda": gen.positive_rational(rng), "alpha": gen.positive_rational(rng, 3, 3)},
            "b": {"t": Fraction(rng.randint(1, 3), 4), "alpha": gen.rational(rng, 3, 2),
                  "beta": gen.rational(rng, 3, 2)},
        }
        powers = {v: rng.randint(3, 6) for v in laws}
        pair = rng.sample(sorted(laws), 2)
        return {"demo": False, "laws": laws, "powers": powers, "pair": pair}

    @staticmethod
    def moment(d, var, n):
        p = d["laws"][var]
        if var == "s":
            return o.semicircle_moment(p["radius"] ** 2 / 4, n)
        if var == "x":
            return o.free_poisson_moment(p["lambda"], p["alpha"], n)
        return o.bernoulli_moment(p["t"], p["alpha"], p["beta"], n)

    @staticmethod
    def build(d, ctx):
        if d["demo"]:
            return ["run", os.path.join("demos", "session.fp")]
        ctors = dict(zip("sxb", SESSION_LAWS))
        lines = ["# generated session"]
        for var, params in d["laws"].items():
            args = ", ".join("%s=%s" % kv for kv in params.items())
            lines.append("let %s = %s(%s)" % (var, ctors[var], args))
        lines.append("free(s, x, b)")
        for var, n in d["powers"].items():
            lines.append("phi(%s)" % "*".join([var] * n))
        u, v = d["pair"]
        lines.append("phi(%s*%s)" % (u, v))
        lines.append("kappa(%s, %s)" % (u, v))
        lines.append("kappa(x, x, x)")
        path = cli_path(ctx, "session-%d.fp" % ctx["job_index"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return ["run", path, "--order", "6", "--json"]

    run = staticmethod(run_cli)

    @staticmethod
    def check(d, argv, out, ctx):
        if d["demo"]:
            lines = [line.strip() for line in cli_ok(out).splitlines()]
            for want in DEMO_LINES:
                require(want in lines, "demo session lacks %r" % want)
            return
        results = json.loads(cli_ok(out))
        got = [Fraction(r["result"]) for r in results if r["kind"] in ("phi", "kappa")]
        u, v = d["pair"]
        x = d["laws"]["x"]
        want = [CliSession.moment(d, var, n) for var, n in d["powers"].items()]
        want.append(CliSession.moment(d, u, 1) * CliSession.moment(d, v, 1))
        want.append(Fraction(0))
        want.append(x["lambda"] * x["alpha"] ** 3)
        require(got == want, "session values %s, expected %s" % (got, want))


# -- the workloads ----------------------------------------------------------

KINDS = {
    "roundtrip": RoundTrip,
    "free": FreeProduct,
    "limit": Limit,
    "infdiv": Infdiv,
    "enumerate": Enumerate,
    "pairs": Pairs,
    "convolution": Convolution,
    "lattice_sum": LatticeSum,
    "levy": Levy,
    "increments": Increments,
    "cli_model": CliModel,
    "cli_transform": CliTransform,
    "cli_infdiv": CliInfdiv,
    "cli_nc": CliNc,
    "cli_limit": CliLimit,
    "cli_fock": CliFock,
    "cli_session": CliSession,
}

# One round per workload: (kind, size).  Rounds repeat ROUNDS[w] times with
# fresh values; the chain index of a cli transform chain is filled in per
# round.  A round of ten has three light, three medium and four heavier
# jobs, the lighter two of the heavier ones alike.  So the median falls
# among the medium jobs and p75 between the two alike heavier ones, not on
# the edge between two kinds.  Lattice has three alike heavier jobs and one
# heavy one instead, since its cold-cache first jobs also land at the top.
# The classes alternate, so a partial last round does not shift the
# percentiles.
ROUND = {
    "tables": [
        ("infdiv", dict(k=3, d=2, verdict="PASS")),
        ("free", dict(ka=1, kb=1, order=8)),
        ("roundtrip", dict(k=2, order=8)),
        ("limit", dict(order=6, model="free")),
        ("free", dict(ka=2, kb=1, order=6)),
        ("roundtrip", dict(k=3, order=6)),
        ("limit", dict(order=6, model="equal")),
        ("infdiv", dict(k=3, d=2, verdict="FAIL")),
        ("roundtrip", dict(k=2, order=8)),
        ("roundtrip", dict(k=3, order=6)),
    ],
    "lattice": [
        ("lattice_sum", dict(direction="c2m", n=9)),
        ("pairs", dict(n=10, count=300)),
        ("enumerate", dict(n=12)),
        ("lattice_sum", dict(direction="m2c", n=7)),
        ("convolution", dict(n=11, lo=20, hi=80)),
        ("enumerate", dict(n=12)),
        ("enumerate", dict(n=11)),
        ("convolution", dict(n=11, lo=80, hi=200)),
        ("enumerate", dict(n=12)),
        ("convolution", dict(n=12, lo=50, hi=150)),
    ],
    "fock": [
        ("increments", dict(points=4)),
        ("levy", dict(law="semicircle")),
        ("levy", dict(law="matrix")),
        ("increments", dict(points=4)),
        ("levy", dict(law="poisson")),
        ("levy", dict(law="matrix")),
        ("increments", dict(points=4)),
        ("levy", dict(law="semicircle")),
        ("levy", dict(law="matrix")),
        ("levy", dict(law="matrix", k=3)),
    ],
    "cli-cold": [
        ("cli_model", dict(ctor="free_poisson")),
        ("cli_nc", dict(what="enumerate", n=10)),
        ("cli_transform", dict(direction="m2c")),
        ("cli_infdiv", dict(k=2, verdict="PASS")),
        ("cli_transform", dict(direction="c2m")),
        ("cli_session", dict()),
        ("cli_transform", dict(direction="m2c", source="random")),
        ("cli_limit", dict(model="free")),
        ("cli_transform", dict(direction="c2m")),
        ("cli_nc", dict(what="mobius", n=11)),
        ("cli_fock", dict()),
        ("cli_model", dict(ctor="bernoulli")),
        ("cli_infdiv", dict(k=3, verdict="FAIL")),
        ("cli_transform", dict(direction="m2c")),
        ("cli_session", dict(demo=True)),
        ("cli_transform", dict(direction="c2m")),
    ],
}

ROUNDS = {"tables": 8, "lattice": 10, "fock": 8, "cli-cold": 6}

CHAINED = {"cli_model", "cli_transform"}


def draw(workload, seed):
    """The seeded job list: [(kind, data), ...]."""
    rng = gen.seeded(seed, workload)
    jobs = []
    chain = -1
    for _ in range(ROUNDS[workload]):
        for kind, size in ROUND[workload]:
            size = dict(size)
            if kind in CHAINED:
                if kind == "cli_model" or size.get("source") == "random":
                    chain += 1
                size["chain"] = chain
            jobs.append((kind, KINDS[kind].draw(rng, **size)))
    return jobs


def build(jobs, ctx):
    """Set-up: freeprob objects and files for every job."""
    built = []
    for i, (kind, d) in enumerate(jobs):
        ctx["job_index"] = i
        built.append(KINDS[kind].build(d, ctx))
    return built
