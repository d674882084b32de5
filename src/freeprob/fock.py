"""Truncated full Fock space realization of free Levy processes.

Given a cumulant functional kappa on k variables, the one-particle space
is (a time component) tensor (the span of monomials of degree <= d_H under
the inner product <X_w, X_v> = kappa(w . reverse(v))), and the process
increment over (s, t) in variable i is

    (t - s) kappa_1(i) + creation + annihilation + gauge

of the vector (indicator of (s,t)) tensor X_i, with the gauge part acting
by multiplication by the indicator on time and by the compressed left
multiplication by X_i on polynomials.  Vacuum expectations of products of
at most min(n_max, d_H) increments are exact up to float roundoff: every
operator factor raises polynomial degree and particle number by at most
one, so within that budget no state ever leaves the modeled subspace and
the compressions act as identities.

Operators are held as their one-particle data (drift, creation and
annihilation vectors, gauge matrix) and applied to stacks of float state
vectors over the truncated tensor basis level by level, a moment table
taking one step per operator per word length; a dense matrix is built
only on request.  The Gram cut from the stored integer levels and its
pivoted elimination stay exact, and square roots enter only when the
orthonormal basis is finally written down.  The float Gram and
multiplication tables are Hankel cuts (``infdiv._hankel``) of whole
cumulant levels, each level converted to float once.

*Light cone.*  Every operator changes particle number by at most one, so
in a vacuum moment of r factors the state after j of them has no level
above j and reaches the vacuum through the remaining r - j factors only
from its levels <= r - j.  Moment tables and vacuum moments therefore
keep each state as its prefix of levels 0..min(j, r - j, n_max), never
above r // 2, and each step computes just those levels from the ones it
reads.  The results equal those on full states bit for bit, and a word
of length <= order needs no more than order // 2 particles.

*Sections over stored levels.*  Every error the Levy check reports is
|a(w) - c b(w)| for tables a, b and a rational c, taken for a whole level
at once from the stored integers with one correctly rounded int division
per word; a section names only its worst three words.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, DomainError, StructuralError, ValidationError
from .functionals import (
    CumulantFunctional,
    MomentFunctional,
    as_scalar,
    cumulants_to_moments,
    moments_to_cumulants,
)
from .infdiv import _eliminate, _hankel, _integer_hankel, _word_pairs, monomial_basis

DEFAULT_PIVOT_TOLERANCE = Fraction(1, 10**10)
TOL_MOMENTS = 1e-9  # marginal moments and the semigroup in t
TOL_STATIONARITY = 1e-12
TOL_FREENESS = 1e-9
MAX_DENSE_BYTES = 2**30  # largest dense operator matrix ``.matrix`` builds
MAX_FOCK_DIM = 60000  # longest state vector a FockModel allows


class PolySpace:
    """Orthonormalized quotient of the monomial span of degree <= d_H.

    Built from exact rational data: the cumulant Gram matrix is cut from
    the stored integer levels and eliminated exactly with diagonal pivoting
    (``infdiv._eliminate``, fraction-free, pivots and basis as Fractions),
    pivots below the cutoff count as kernel, and only the final
    normalization by 1/sqrt(pivot) produces floats.  Since the cutoff is
    positive, the PSD check behind a built space is only approximate: the
    uneliminated block is zero within the cutoff, not exactly.  Also
    carries, per variable, the compressed left multiplication table and
    the coordinates of X_i itself, which is everything the Fock
    construction consumes.  The float Gram and the lifted tables are
    Hankel cuts (``infdiv._hankel``) of the float cumulant levels.
    """

    def __init__(self, cf, d_H):
        if not isinstance(cf, CumulantFunctional):
            raise StructuralError("PolySpace needs a CumulantFunctional")
        if d_H < 1:
            raise ValidationError("d_H must be >= 1")
        if cf.order < 2 * d_H + 1:
            raise ValidationError(
                "multiplication tables need cumulants to order %d, table stops at %d"
                % (2 * d_H + 1, cf.order)
            )
        self.cf = cf
        self.d_H = d_H
        self.arity = cf.arity
        self.monomials = monomial_basis(cf.arity, d_H)
        self._mono_index = {w: i for i, w in enumerate(self.monomials)}

        rows, scale = _integer_hankel(cf, cf.arity, range(1, d_H + 1))
        cert = _eliminate(rows, scale, DEFAULT_PIVOT_TOLERANCE, _word_pairs(cf, self.monomials))
        if not cert.psd:
            names = [cf.word_name(w) for w in self.monomials]
            combo = ", ".join(
                "%s*(%s)" % (c, names[i])
                for i, c in enumerate(cert.witness)
                if c
            )
            raise ValidationError(
                "Gram matrix is not positive semidefinite; witness %s has "
                "form value %s" % (combo, cert.witness_value)
            )
        self.pivot_values = tuple(value for _, value in cert.pivots)
        self.dim = len(cert.pivots)
        self.kernel_dim = len(self.monomials) - self.dim

        basis = np.zeros((self.dim, len(self.monomials)))
        for a, (i, vector, value) in enumerate(cert.basis):
            try:
                basis[a] = np.array(vector, dtype=float) * (1.0 / math.sqrt(float(value)))
            except OverflowError:
                pivot = "Gram pivot at %s" % cf.word_name(self.monomials[i])
                raise DomainError(pivot + " is outside the float range") from None
        self.basis = basis  # rows: orthonormal vectors in monomial coordinates

        # each cumulant level converted to float once, letter i on axis i
        k = cf.arity
        levels = [None] + [cf._float_level(n) for n in range(1, 2 * d_H + 2)]
        degrees = range(1, d_H + 1)
        self._gram_f = _hankel(levels, k, degrees)
        self.var_embeddings = [self.project_word((i,)) for i in range(1, k + 1)]
        # <X_i X_v, X_w> = kappa(i v reverse(w)) is the Hankel cut of
        # x -> kappa(i reverse(x)): the levels with first letter i, axes
        # reversed; compress both sides
        self.var_tables = [
            basis @ _hankel([None] + [lv[i].T for lv in levels[2:]], k, degrees) @ basis.T
            for i in range(k)
        ]
        self.first_cumulants = tuple(levels[1].tolist())

    def project_word(self, word):
        """Coordinates of the image of a monomial in the orthonormal
        basis."""
        idx = self._mono_index.get(tuple(word))
        if idx is None:
            raise ValidationError("monomial %r outside degree 1..%d" % (word, self.d_H))
        return self.basis @ self._gram_f[idx]


class TimeComponent:
    """Finitely supported slice of L^2 of the half line: indicator
    functions over the elementary intervals between registered
    breakpoints, with exact rational lengths."""

    def __init__(self, breakpoints):
        pts = tuple(as_scalar(p) for p in breakpoints)
        if len(pts) < 2:
            raise ValidationError("need at least two breakpoints")
        if any(p < 0 for p in pts):
            raise ValidationError("breakpoints must be >= 0")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        self.breakpoints = pts
        self.lengths = tuple(b - a for a, b in zip(pts, pts[1:]))
        self._index = {p: i for i, p in enumerate(pts)}

    @classmethod
    def from_endpoints(cls, endpoints):
        """Union of all endpoints mentioned in a session, sorted."""
        pts = sorted({as_scalar(p) for p in endpoints})
        return cls(pts)

    @property
    def n_elem(self):
        return len(self.lengths)

    def _locate(self, s, t):
        """Indices (i0, i1) of the breakpoints s <= t: the interval covers
        the elementary intervals i0..i1 - 1."""
        s, t = as_scalar(s), as_scalar(t)
        i0, i1 = self._index.get(s), self._index.get(t)
        if i0 is None or i1 is None:
            raise ValidationError(
                "interval (%s, %s) endpoints are not registered breakpoints"
                % (s, t)
            )
        if i1 < i0:
            raise ValidationError("interval must have s <= t")
        return i0, i1

    def indicator_coeffs(self, s, t):
        """Coordinates of the indicator of (s, t) in the orthonormal basis
        of normalized elementary indicators: sqrt(length) on each covered
        elementary interval."""
        return self._indicator(*self._locate(s, t))

    def _indicator(self, i0, i1):
        out = np.zeros(self.n_elem)
        for j in range(i0, i1):
            out[j] = math.sqrt(float(self.lengths[j]))
        return out

    def multiplier_diag(self, s, t):
        """Multiplication by the indicator of (s, t) is diagonal with 0/1
        entries on elementary indicators."""
        i0, i1 = self._locate(s, t)
        out = np.zeros(self.n_elem)
        out[i0:i1] = 1.0
        return out


@dataclass(frozen=True, eq=False)
class FockOperator:
    """drift + creation + annihilation + gauge, held as one-particle data.

    Level m of a state, viewed as a (D, D^(m-1)) block whose rows index
    the first tensor factor, sends outer(x, v_m) to level m+1 (creation
    vector x), y @ v_m to level m-1 (annihilation vector y) and T @ v_m
    to level m (gauge matrix T); the drift scales v.  The step acts on a
    stack of level prefixes at once, one row per state, with the same
    products per row as on one vector; ``apply`` is the stack of one
    full state and costs O(D dim).  ``matrix`` builds the dense matrix
    on request.
    """

    levels: tuple  # slice of each particle level 0..n_max in a state
    drift: float
    creation: np.ndarray
    annihilation: np.ndarray
    gauge: np.ndarray
    label: str

    @property
    def matrix(self):
        """The dense matrix, built on each access; CapacityError before
        allocating more than MAX_DENSE_BYTES."""
        dim = self.levels[-1].stop
        if dim * dim * 8 > MAX_DENSE_BYTES:
            raise CapacityError(
                "dense Fock matrix of dimension %d exceeds %d bytes"
                % (dim, MAX_DENSE_BYTES)
            )
        M = np.zeros((dim, dim))
        for below, here in zip(self.levels, self.levels[1:]):
            cols = np.arange(below.start, below.stop)
            rows = np.arange(here.start, here.stop).reshape(-1, len(cols))
            M[rows, cols] = self.creation[:, None]
            M[cols, rows] = self.annihilation[:, None]
            M[rows[:, None], rows[None]] = self.gauge[:, :, None]
        M[np.diag_indices(dim)] += self.drift
        return M

    def adjoint(self):
        y, x = self.creation, self.annihilation
        label = "adj(%s)" % self.label
        return FockOperator(self.levels, self.drift, x, y, self.gauge.T, label)

    def selfadjoint_defect(self):
        x, y, T = self.creation, self.annihilation, self.gauge
        return float(max(np.abs(x - y).max(), np.abs(T - T.T).max()))

    def apply(self, vector):
        v = np.asarray(vector, dtype=float)
        dim = self.levels[-1].stop
        if v.shape != (dim,):
            raise StructuralError("state vector must have length %d" % dim)
        return self._apply(v[None], len(self.levels) - 1)[0]

    def _apply(self, v, top):
        """Levels 0..top of the image of each row of v, a stack of level
        prefixes (levels 0..L, each row state[:levels[L].stop]).  Output
        level m reads input levels m-1, m and m+1 only, so levels above
        top + 1 are never read, and an absent level counts as zero.  Each
        level takes its terms in the order drift, creation + gauge,
        annihilation; a row's products are those of one vector, so every
        row equals its own step bit for bit."""
        levels = self.levels
        x, y, T = self.creation, self.annihilation, self.gauge
        rows, have = v.shape
        out = np.zeros((rows, levels[top].stop))
        n = min(have, out.shape[1])
        out[:, :n] = self.drift * v[:, :n]
        for below, here in zip(levels[:top], levels[1 : top + 1]):
            if here.stop > have:  # v ends below this level: creation only
                out[:, here] = (x[:, None] * v[:, None, below]).reshape(rows, -1)
                break
            block = v[:, here].reshape(rows, len(x), -1)
            out[:, below] += y @ block
            out[:, here] += (x[:, None] * v[:, None, below] + T @ block).reshape(rows, -1)
        if have > out.shape[1]:  # v holds level top + 1
            out[:, levels[top]] += y @ v[:, levels[top + 1]].reshape(rows, len(x), -1)
        return out


class FockModel:
    """Truncated full Fock space over (time component) tensor (poly
    space), with at most n_max particles.

    The basis is the vacuum followed by all tensor words over the product
    one-particle basis, enumerated level by level in lexicographic order,
    so a word is its base-D numeral.  The total dimension 1 + D + ... +
    D^n_max, the length of a state vector, is capped by MAX_FOCK_DIM;
    exceeding the cap raises CapacityError rather than silently
    truncating further.  Dense operator matrices have their own cap,
    MAX_DENSE_BYTES.
    """

    def __init__(self, poly, time, n_max):
        if not isinstance(poly, PolySpace):
            raise StructuralError("poly must be a PolySpace")
        if not isinstance(time, TimeComponent):
            raise StructuralError("time must be a TimeComponent")
        if n_max < 1:
            raise ValidationError("n_max must be >= 1")
        self.poly = poly
        self.time = time
        self.n_max = n_max
        self.hat_dim = time.n_elem * poly.dim
        if self.hat_dim == 0:
            raise ValidationError("one-particle space is zero")
        dims = [self.hat_dim**m for m in range(n_max + 1)]
        total = sum(dims)
        if total > MAX_FOCK_DIM:
            raise CapacityError(
                "truncated Fock dimension %d exceeds cap %d" % (total, MAX_FOCK_DIM)
            )
        self.level_dims = tuple(dims)  # level 0 is the vacuum line
        offsets = [0]
        for d in dims:
            offsets.append(offsets[-1] + d)
        self.level_offsets = tuple(offsets[:-1])
        self.levels = tuple(slice(a, b) for a, b in zip(offsets, offsets[1:]))
        self.dim = total

    def summary(self):
        return {
            "k": self.poly.arity,
            "d_H": self.poly.d_H,
            "n_max": self.n_max,
            "dim_H": self.hat_dim,
            "dim_poly": self.poly.dim,
            "dim_fock": self.dim,
            "breakpoints": [str(p) for p in self.time.breakpoints],
        }

    def basis_words(self):
        """Tensor words of the basis, vacuum first, level by level."""
        yield ()
        for m in range(1, self.n_max + 1):
            yield from itertools.product(range(self.hat_dim), repeat=m)

    def vacuum(self):
        v = np.zeros(self.dim)
        v[0] = 1.0
        return v

    def hat_vector(self, var, s, t):
        """Coordinates of (indicator of (s,t)) tensor X_var in the product
        one-particle basis, time index major."""
        if not 1 <= var <= self.poly.arity:
            raise ValidationError("variable %r outside 1..%d" % (var, self.poly.arity))
        ind = self.time.indicator_coeffs(s, t)
        return np.outer(ind, self.poly.var_embeddings[var - 1]).ravel()

    def _check_hat(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.hat_dim,):
            raise StructuralError(
                "one-particle vector must have length %d" % self.hat_dim
            )
        return x

    def _operator(self, label, drift=0.0, x=None, y=None, T=None):
        zero = np.zeros(self.hat_dim)
        x = zero if x is None else x
        y = zero if y is None else y
        T = np.zeros((self.hat_dim,) * 2) if T is None else T
        return FockOperator(self.levels, drift, x, y, T, label)

    def creation(self, x, label="l*"):
        """Left creation by a one-particle vector: prepends x as the first
        tensor factor; components that would exceed n_max particles are
        dropped."""
        return self._operator(label, x=self._check_hat(x))

    def annihilation(self, x, label="l"):
        """Adjoint of creation: kills the vacuum, pairs the first tensor
        factor against x."""
        return self._operator(label, y=self._check_hat(x))

    def gauge(self, T, label="p"):
        """Second-quantized action of a one-particle operator on the first
        tensor factor only; kills the vacuum.  T is a dense hat-space
        matrix or a (time matrix, poly matrix) pair combined by tensor
        product."""
        if isinstance(T, tuple):
            t_part, p_part = T
            T = np.kron(np.asarray(t_part, dtype=float), np.asarray(p_part, dtype=float))
        T = np.asarray(T, dtype=float)
        if T.shape != (self.hat_dim, self.hat_dim):
            raise StructuralError(
                "gauge operator must be %d x %d" % (self.hat_dim, self.hat_dim)
            )
        return self._operator(label, T=T)

    def levy_increment(self, var, s, t):
        """Process increment over (s, t) in variable ``var``: drift plus
        creation plus annihilation plus gauge of the indicator-tensor-X
        data, the gauge as X_var's table in each covered time block.  The
        empty interval s == t gives the zero operator."""
        if not 1 <= var <= self.poly.arity:
            raise ValidationError("variable %r outside 1..%d" % (var, self.poly.arity))
        s_, t_ = as_scalar(s), as_scalar(t)
        i0, i1 = self.time._locate(s_, t_)
        x = np.outer(self.time._indicator(i0, i1), self.poly.var_embeddings[var - 1]).ravel()
        drift = float(t_ - s_) * self.poly.first_cumulants[var - 1]
        covered = np.arange(i0, i1)
        T = np.zeros((self.time.n_elem, self.poly.dim) * 2)  # (time, poly) squared
        T[covered, :, covered, :] = self.poly.var_tables[var - 1]
        T = T.reshape((self.hat_dim,) * 2)
        return self._operator("a[%d](%s,%s)" % (var, s_, t_), drift, x, x, T)

    def _stepper(self, op):
        """The light-cone step (v, top) -> levels 0..top of op applied to
        the level prefix v, for a FockOperator of this model."""
        if not isinstance(op, FockOperator) or op.levels != self.levels:
            raise StructuralError("operator does not act on this model's states")
        return op._apply

    def vacuum_moment(self, ops):
        """<A_1 ... A_r vacuum, vacuum> for a product applied left to
        right as written, on the light cone of ``moment_table``: after j
        of the r factors the state keeps levels 0..min(j, r - j).  A
        moment past the float range is returned as inf or nan, without a
        numpy warning."""
        steps = [self._stepper(op) for op in ops]
        r = len(steps)
        v = np.ones((1, 1))  # level 0 of the vacuum, a stack of one
        with np.errstate(over="ignore", invalid="ignore"):
            for j, step in enumerate(reversed(steps), 1):
                v = step(v, min(j, r - j, self.n_max))
        return float(v[0, 0])

    def moment_table(self, ops, names, order):
        """Joint vacuum-moment table of the given FockOperators as an exact
        MomentFunctional (floats promoted to their binary rationals).
        Levels are graded as by the constructor; DomainError names the
        first word, in canonical order, whose moment is not finite.

        The suffix states of one word length are one stack, a row per
        word in canonical order.  Level n is one step of each operator on
        the stack of level n - 1: the rows of operator c are the words
        c w' with w' in canonical order, so stacking them by c gives the
        canonical order of level n, and column 0 holds its moments.  Only
        the previous level's stack is kept.

        Light cone: every factor changes particle number by at most one,
        so the suffix state of a word of length n has no level above n,
        and the at most order - n factors still to come reach the vacuum
        from its levels <= order - n only.  Each state is therefore held
        as its levels 0..min(n, order - n, n_max), never above order // 2,
        and each step computes just those from the levels of the shorter
        suffix state.  Every entry equals, bit for bit, the one computed
        on full states.
        """
        ops = list(ops)
        if len(ops) != len(names):
            raise StructuralError("need one name per operator")
        steps = [self._stepper(op) for op in ops]
        k = len(steps)

        def graded_levels():  # read after the alphabet and order are checked
            states = np.ones((1, 1))  # level 0 of the vacuum
            for n in range(1, order + 1):
                top = min(n, order - n, self.n_max)
                with np.errstate(over="ignore", invalid="ignore"):
                    states = np.concatenate([step(states, top) for step in steps])
                values = states[:, 0]
                finite = np.isfinite(values)
                if not finite.all():
                    i = int(np.argmin(finite))
                    word = " ".join(names[c] for c in np.unravel_index(i, (k,) * n))
                    raise DomainError("vacuum moment of %s is %s" % (word, float(values[i])))
                pairs = [value.as_integer_ratio() for value in values.tolist()]
                d = math.lcm(*(q for _, q in pairs))
                graded = np.array([p * (d // q) for p, q in pairs], dtype=object)
                yield graded.reshape((k,) * n), d

        return MomentFunctional._trusted(tuple(names), order, graded_levels())


build_poly_space = PolySpace


def build_fock_model(cf, d_H, n_max, endpoints=(0, 1)):
    """Convenience constructor: poly space from the cumulant table plus a
    time component over the given endpoints."""
    poly = PolySpace(cf, d_H)
    return FockModel(poly, TimeComponent.from_endpoints(endpoints), n_max)


@dataclass(frozen=True)
class LevyAxiomSection:
    name: str
    max_error: float
    tolerance: float
    passed: bool
    detail: tuple  # ((description, error), ...) worst offenders

    def to_json_dict(self):
        return {
            "name": self.name,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "detail": [
                {"case": case, "error": err} for case, err in self.detail
            ],
        }


@dataclass(frozen=True)
class LevyReport:
    order: int
    summary: dict
    sections: tuple

    @property
    def passed(self):
        return all(s.passed for s in self.sections)

    def section(self, name):
        for s in self.sections:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_json_dict(self):
        return {
            "order": self.order,
            "summary": self.summary,
            "passed": self.passed,
            "sections": [s.to_json_dict() for s in self.sections],
        }

    def to_text(self):
        lines = [
            "Levy axiom check, order %d, dim_H %s, Fock dim %s"
            % (self.order, self.summary["dim_H"], self.summary["dim_fock"])
        ]
        for s in self.sections:
            lines.append(
                "  [%s] %-22s max error %.3e (tol %.0e)"
                % ("PASS" if s.passed else "FAIL", s.name, s.max_error, s.tolerance)
            )
        return "\n".join(lines)


def _section(name, err, case, tolerance):
    """The worst three of a float array of errors, a tie going to the
    earlier entry; only they are named, entry i as case(i)."""
    worst = tuple((case(i), float(err[i])) for i in np.argsort(-err, kind="stable")[:3])
    max_err = worst[0][1] if worst else 0.0
    return LevyAxiomSection(name, max_err, tolerance, max_err <= tolerance, worst)


def _errors(a, b, c=1):
    """|a(w) - c b(w)| on the words of ``a`` in canonical order (c = 0 gives
    |a(w)|), level n as |A q d_b - p B d_a| / (d_a q d_b) for c = p/q: one
    int true division per entry, correctly rounded as float(Fraction) is."""
    p, q = Fraction(c).as_integer_ratio()
    pairs = zip(a._graded(a.order), b._graded(a.order))
    out = [abs(A * (q * db) - B * (p * da)) / (da * q * db) for (A, da), (B, db) in pairs]
    return np.concatenate([e.ravel() for e in out]).astype(float)


def _nth_name(table, i, words=None):
    """Name of word i, from 0, of ``words`` or else of all of ``table``'s."""
    return table.word_name(next(itertools.islice(words or table.words(), i, None)))


def levy_n_max(order):
    """Particles the Levy check reads at ``order``: a word of length
    <= order reaches particle level order // 2 at most on its light
    cone, and a model needs at least one level."""
    return max(1, order // 2)


def verify_levy_axioms(model, order):
    """Check the defining properties of the realized process.

    Sections: marginal moments over (0,1) against the defining functional;
    stationarity of (0,1) vs (2,3); free independence of the increments
    over (0,1) and (1,2); vanishing at the empty interval together with
    the cumulant semigroup in t over (0, t), t = 1, 1/2, 1/4, 1/8.  The
    tolerances are TOL_MOMENTS, TOL_STATIONARITY and TOL_FREENESS.

    Each section runs in its own small model over exactly the breakpoints
    it mentions, truncated at the levy_n_max(order) particles that the
    light cone of ``moment_table`` reads; all models share the poly space
    of ``model``, whose own n_max is only copied into the summary.  Only
    order <= d_H is required.
    """
    if not isinstance(model, FockModel):
        raise StructuralError("expected a FockModel")
    poly = model.poly
    k = poly.arity
    if order > poly.d_H:
        raise ValidationError("order %d beyond d_H %d" % (order, poly.d_H))

    n_sect = levy_n_max(order)
    target_cf = poly.cf.truncate(order)
    target_mf = cumulants_to_moments(target_cf)
    sections = []

    def increment_moments(breakpoints, intervals, names=target_mf.alphabet):
        """Moment table of the increments over each interval in turn, each
        in every variable, in a model over exactly these breakpoints."""
        m = FockModel(poly, TimeComponent(breakpoints), n_sect)
        ops = [m.levy_increment(i, s, t) for s, t in intervals for i in range(1, k + 1)]
        return m.moment_table(ops, names, order)

    # marginal moments over the unit interval
    unit = increment_moments((0, 1), [(0, 1)])
    case = lambda i: _nth_name(target_mf, i)
    errors = _errors(unit, target_mf)
    sections.append(_section("marginal moments", errors, case, TOL_MOMENTS))

    # stationarity: the law over (0,1) equals the law over (2,3)
    t01 = increment_moments((0, 1, 2, 3), [(0, 1)])
    t23 = increment_moments((0, 1, 2, 3), [(2, 3)])
    sections.append(_section("stationarity", _errors(t01, t23), case, TOL_STATIONARITY))

    # free increments: mixed cumulants across (0,1) and (1,2) vanish
    names = ["a%d.early" % i for i in range(1, k + 1)]
    names += ["a%d.late" % i for i in range(1, k + 1)]
    joint = increment_moments((0, 1, 2), [(0, 1), (1, 2)], names)
    joint_cf = moments_to_cumulants(joint)
    late = (sum(np.ix_(*[np.arange(2 * k) // k] * n)) for n in range(1, order + 1))
    mixed = np.concatenate([(c % c.ndim > 0).ravel() for c in late])  # late not 0 or n
    errors = _errors(joint_cf, joint_cf, 0)[mixed]
    case = lambda i: _nth_name(joint_cf, i, itertools.compress(joint_cf.words(), mixed))
    sections.append(_section("free increments", errors, case, TOL_FREENESS))

    # zero at the start, and the cumulant semigroup along shrinking t; at
    # t = 1 the table is the marginal section's
    errors = []
    m_unit = FockModel(poly, TimeComponent((0, 1)), n_sect)
    for i in range(1, k + 1):
        zero = m_unit.levy_increment(i, 0, 0)
        data = (zero.drift, zero.creation, zero.annihilation, zero.gauge)
        errors.append([float(max(np.abs(a).max() for a in data))])
    times = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    for t in times:
        tab = unit if t == 1 else increment_moments((0, t), [(0, t)])
        errors.append(_errors(moments_to_cumulants(tab), target_cf, t))

    def case(i):  # the k zero increments, then every word at each t
        if i < k:
            return "a[%d](0,0)" % (i + 1)
        j, i = divmod(i - k, len(errors[-1]))
        return "t=%s %s" % (times[j], _nth_name(target_cf, i))

    sections.append(_section("semigroup in t", np.concatenate(errors), case, TOL_MOMENTS))

    return LevyReport(order, model.summary(), tuple(sections))
