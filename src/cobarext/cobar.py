"""Cobar complex slices in a fixed internal degree, and their cohomology.

The comodule is F2[a, u] (optionally with u inverted) over the level-n
coalgebra; the slice in homological degree s and internal degree d = (p, q)
is spanned by a^alpha u^beta [x^e1|...|x^es] with beta = p - E and
alpha = 2E - p - q for E = sum(e_i).  The differential prepends the reduced
coaction of the coefficient and splits each bar letter by the reduced
comultiplication (characteristic 2, no signs).

Slices with the same word data are shared: matrices depend on q only
through the cut E >= ceil((p+q)/2) (the alpha >= 0 constraint, stable
under the differential), and with u inverted they depend on p only mod
2^n (binomial parities below x^(2^n) see beta mod 2^n only).

A slice complex (SlicesBase: SliceComplex here, KoszulComplex in koszul.py)
memoises, per s, its chain list and index, its differential matrix, its
cohomology, and the images of its cohomology in lower complexes of its
model, keyed by the lower complex's cache key and s.  No memo holds a lower
complex.  Cobar is the reference: fixed-level Ext and every label come from
it, while limit_ext_report certifies dims on the Koszul complexes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .f2linalg import (
    CohomologyResult,
    F2Matrix,
    bits,
    echelon_insert,
    cohomology_dim,
)
from .grading import CobarMonomial, RO2Degree, binom_mod2, element_label
from .hopf import TruncationLevel, check_level, comult_reduced, letter_cap

DEFAULT_MAX_DIM = 200_000


class UnboundedBasisError(Exception):
    """The slice basis is infinite (untruncated level with u inverted)."""


class ComplexTooLargeError(Exception):
    """A slice basis exceeds the configured size cap."""


class NotStabilizedError(Exception):
    """Transition image dimensions were still moving at the deepest level."""

    def __init__(self, report: "LimitReport"):
        super().__init__(
            f"limit not certified at s={report.s}, d={report.degree}, "
            f"levels {report.levels}: dims {report.dims}, images {report.image_dims}"
        )
        self.report = report


def ceil_half(v: int) -> int:
    return -((-v) // 2)


def _words(s: int, cap: int, hi: int):
    """All words of length s with letters in 1..cap and weight <= hi, lex order."""
    if s == 0:
        if hi >= 0:
            yield ()
        return
    word = [0] * s

    def rec(pos: int, left: int):
        # each remaining slot needs at least one
        top = min(cap, left - (s - pos - 1))
        for e in range(1, top + 1):
            word[pos] = e
            if pos == s - 1:
                yield tuple(word)
            else:
                yield from rec(pos + 1, left - e)

    yield from rec(0, hi)


class SlicesBase:
    """The memos of one slice complex.  A model supplies `_chains(s)` (its
    basis in canonical order), `_assemble(s)` (d from slice s to s+1) and
    `restrict(lower, s)` (the index map into a lower complex, None for
    chains that map to 0)."""

    def __init__(self, n: TruncationLevel, invert_u: bool, p_key: int, e_floor: int,
                 max_dim: int):
        self.n = n
        self.invert_u = invert_u
        self.p_key = p_key
        self.e_floor = e_floor
        self.max_dim = max_dim
        self._words: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._index: dict[int, dict[tuple[int, ...], int]] = {}
        self._matrices: dict[int, F2Matrix] = {}
        self._cohom: dict[int, CohomologyResult] = {}
        self._images: dict[tuple, tuple[int, tuple[int, ...]]] = {}

    def words(self, s: int) -> tuple[tuple[int, ...], ...]:
        if s < 0:
            return ()
        got = self._words.get(s)
        if got is not None:
            return got
        out = []
        for w in self._chains(s):
            out.append(w)
            if len(out) > self.max_dim:
                raise ComplexTooLargeError(
                    f"slice s={s} exceeds {self.max_dim} monomials"
                )
        self._words[s] = out = tuple(out)
        self._index[s] = {w: i for i, w in enumerate(out)}
        return out

    def index(self, s: int) -> dict[tuple[int, ...], int]:
        self.words(s)
        return self._index[s]

    def matrix(self, s: int) -> F2Matrix:
        """Differential from slice s to slice s+1 in the shared chain bases."""
        got = self._matrices.get(s)
        if got is None:
            got = self._matrices[s] = self._assemble(s)
        return got

    def cohomology(self, s: int) -> CohomologyResult:
        got = self._cohom.get(s)
        if got is not None:
            return got
        if s == 0:
            d_in = F2Matrix.zero(len(self.words(0)), 0)
        else:
            d_in = self.matrix(s - 1)
        result = cohomology_dim(d_in, self.matrix(s))
        self._cohom[s] = result
        return result


class SliceComplex(SlicesBase):
    """Shared word-level cobar data for one (level, invert flag, p-key, E-cut).

    p_key is the actual p when u is not inverted (it bounds E), and
    p mod 2^n when u is inverted (only binomial parities remain).
    """

    def __init__(self, n: TruncationLevel, invert_u: bool, p_key: int, e_floor: int,
                 max_dim: int = DEFAULT_MAX_DIM):
        check_level(n)
        if invert_u and n is None:
            raise UnboundedBasisError(
                "u inverted at the untruncated level: use the limit over levels"
            )
        super().__init__(n, invert_u, p_key, e_floor, max_dim)

    def _chains(self, s: int):
        cap = letter_cap(self.n)
        if self.invert_u:
            hi = s * cap
        else:
            hi = min(self.p_key, s * cap) if cap is not None else self.p_key
        lo = max(s, self.e_floor)
        for w in _words(s, cap if cap is not None else max(hi, 1), hi):
            if sum(w) >= lo:
                yield w

    def _coaction_letters(self, beta: int):
        cap = letter_cap(self.n)
        top = cap if cap is not None else max(beta, 0)
        for i in range(1, top + 1):
            if binom_mod2(beta, i):
                yield i

    def _assemble(self, s: int) -> F2Matrix:
        src = self.words(s)
        tgt_index = self.index(s + 1)
        rows = [0] * len(tgt_index)
        for j, word in enumerate(src):
            for i in self._coaction_letters(self.p_key - sum(word)):
                t = tgt_index.get((i,) + word)
                if t is None:
                    raise AssertionError(f"coaction target missing for {word}, x^{i}")
                rows[t] ^= 1 << j
            for slot, e in enumerate(word):
                for i1, i2 in comult_reduced(e, self.n):
                    t = tgt_index.get(word[:slot] + (i1, i2) + word[slot + 1:])
                    if t is None:
                        raise AssertionError(f"split target missing for {word}")
                    rows[t] ^= 1 << j
        return F2Matrix(len(rows), len(src), tuple(rows))

    def restrict(self, lo: "SliceComplex", s: int) -> list[int | None]:
        return _truncation_map(self, lo, s)


@functools.lru_cache(maxsize=128)
def _shared_complex(n: TruncationLevel, invert_u: bool, p_key: int, e_floor: int,
                    max_dim: int) -> SliceComplex:
    return SliceComplex(n, invert_u, p_key, e_floor, max_dim)


def slice_key(d: RO2Degree, n: TruncationLevel, invert_u: bool) -> tuple:
    """Cache key (n, invert_u, p_key, e_floor) of the slice complexes of d."""
    check_level(n)
    if invert_u:
        if n is None:
            raise UnboundedBasisError(
                "u inverted at the untruncated level: use the limit over levels"
            )
        p_key = d.p % 2**n
    else:
        p_key = d.p
    e_floor = max(0, ceil_half(d.p + d.q))
    if not invert_u:
        e_floor = min(e_floor, max(d.p, 0) + 1)
    return n, invert_u, p_key, e_floor


def get_complex(d: RO2Degree, n: TruncationLevel, invert_u: bool,
                max_dim: int = DEFAULT_MAX_DIM) -> SliceComplex:
    return _shared_complex(*slice_key(d, n, invert_u), max_dim)


def _monomial(word: tuple[int, ...], d: RO2Degree) -> CobarMonomial:
    e = sum(word)
    return CobarMonomial(2 * e - d.p - d.q, d.p - e, word)


def basis(s: int, d: RO2Degree, n: TruncationLevel, invert_u: bool = False,
          max_dim: int = DEFAULT_MAX_DIM) -> list[CobarMonomial]:
    """Canonically ordered monomial basis of the slice (s, d) at level n."""
    cx = get_complex(d, n, invert_u, max_dim)
    return [_monomial(w, d) for w in cx.words(s)]


def differential(s: int, d: RO2Degree, n: TruncationLevel, invert_u: bool = False,
                 max_dim: int = DEFAULT_MAX_DIM) -> F2Matrix:
    """Cobar differential from slice s to slice s+1 in the canonical bases."""
    return get_complex(d, n, invert_u, max_dim).matrix(s)


@dataclass(frozen=True)
class ExtResult:
    """Cohomology of one slice.

    `words` is the slice's word basis in the canonical order that `basis`
    lists and that the bits of `rep_vectors` index.  Monomials are built on
    demand, only for the words a representative uses."""
    s: int
    degree: RO2Degree
    n: TruncationLevel
    invert_u: bool
    dim: int
    rep_vectors: tuple[int, ...]
    words: tuple[tuple[int, ...], ...]

    def rep_monomials(self, v: int) -> list[CobarMonomial]:
        return [_monomial(self.words[j], self.degree) for j in bits(v)]

    @property
    def rep_labels(self) -> tuple[str, ...]:
        return tuple(element_label(self.rep_monomials(v)) for v in self.rep_vectors)


def ext_dim(s: int, d: RO2Degree, n: TruncationLevel, invert_u: bool = False,
            max_dim: int = DEFAULT_MAX_DIM) -> ExtResult:
    """Cohomology of the slice at s: dimension plus representative cocycles."""
    cx = get_complex(d, n, invert_u, max_dim)
    res = cx.cohomology(s)
    return ExtResult(s, d, n, invert_u, res.dim, res.representatives, cx.words(s))


def _truncation_map(src: SliceComplex, dst: SliceComplex, s: int) -> list[int | None]:
    """Index map for slotwise reduction from a higher level to a lower one.

    Between two complexes at the same level every word survives, and the map
    is the inclusion of word bases (multiplication by a, for instance).
    Words are looked up first; only a word missing downstairs is tested
    against the letter cap, and it must exceed it."""
    cap = letter_cap(dst.n)
    dst_index = dst.index(s)
    out: list[int | None] = []
    for w in src.words(s):
        t = dst_index.get(w)
        if t is None and (cap is None or max(w, default=0) <= cap):
            raise AssertionError(f"truncated word {w} missing downstairs")
        out.append(t)
    return out


def _map_vector(index_map: list[int | None], v: int) -> int:
    out = 0
    for j in bits(v):
        t = index_map[j]
        if t is not None:
            out ^= 1 << t
    return out


@dataclass(frozen=True)
class LimitReport:
    s: int
    degree: RO2Degree
    levels: tuple[int, ...]
    dims: tuple[int, ...]
    image_dims: tuple[int, ...]
    skip_image_dim: int | None
    rule: str
    stabilized: bool
    limit_dim: int | None
    max_dim: int = field(default=DEFAULT_MAX_DIM, repr=False, compare=False)

    @functools.cached_property
    def basis_labels(self) -> tuple[str, ...]:
        """Cobar labels of a certified nonzero limit, built on first read: the
        image of the top level's cobar cohomology in the level below, which
        must have the certified dimension."""
        if not self.limit_dim:
            return ()
        top, second = (get_complex(self.degree, n, True, self.max_dim)
                       for n in self.levels[:-3:-1])
        dim, residues = _image_in_lower(top, second, self.s)
        if dim != self.limit_dim:
            raise AssertionError(
                f"cobar image dim {dim} differs from the certified limit "
                f"{self.limit_dim} at s={self.s}, d={self.degree}"
            )
        words = second.words(self.s)
        return tuple(
            element_label([_monomial(words[j], self.degree) for j in bits(v)])
            for v in residues
        )

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "p": self.degree.p,
            "q": self.degree.q,
            "levels": list(self.levels),
            "dims": list(self.dims),
            "image_dims": list(self.image_dims),
            "skip_image_dim": self.skip_image_dim,
            "rule": self.rule,
            "stabilized": self.stabilized,
            "limit_dim": self.limit_dim,
            "basis": list(self.basis_labels),
        }


def _image_in_lower(hi: SlicesBase, lo: SlicesBase,
                    s: int) -> tuple[int, tuple[int, ...]]:
    """Dimension and representatives of the image of H(hi) in H(lo) at slice s,
    under the index map that hi.restrict(lo, s) gives; hi and lo are
    complexes of one model.

    Memoised on hi under lo's cache key and s; a call that raises stores
    nothing."""
    key = (lo.n, lo.invert_u, lo.p_key, lo.e_floor, s)
    got = hi._images.get(key)
    if got is not None:
        return got
    index_map = hi.restrict(lo, s)
    d_out = lo.matrix(s)
    pivots: dict[int, int] = {}
    if s > 0:
        for col in lo.matrix(s - 1).transpose().row_bits:
            echelon_insert(pivots, col)
    residues = []
    for v in hi.cohomology(s).representatives:
        w = _map_vector(index_map, v)
        if d_out.apply(w):
            raise AssertionError("the index map sent a cocycle to a non-cocycle")
        r = echelon_insert(pivots, w)
        if r:
            residues.append(r)
    got = hi._images[key] = (len(residues), tuple(residues))
    return got


def tower_report(s: int, d: RO2Degree, complexes) -> LimitReport:
    """Tower of Ext over complexes of one model at ascending levels.

    With three or more levels the stabilization certificate asks for equal
    image dimensions at the top two adjacent transitions and the top
    two-step composite; with exactly two levels it degenerates to "all dims
    equal and the transition is an isomorphism", and the rule used is
    recorded in the report.
    """
    levels = tuple(cx.n for cx in complexes)
    dims = tuple(cx.cohomology(s).dim for cx in complexes)
    image_dims = tuple(_image_in_lower(hi, lo, s)[0]
                       for lo, hi in zip(complexes, complexes[1:]))
    if len(levels) >= 3:
        skip = _image_in_lower(complexes[-1], complexes[-3], s)[0]
        stabilized = image_dims[-2] == image_dims[-1] == skip
        rule = "three-level"
    else:
        skip = None
        stabilized = dims[0] == dims[1] == image_dims[0]
        rule = "two-level"
    limit = image_dims[-1] if stabilized else None
    return LimitReport(s, d, levels, dims, image_dims, skip, rule, stabilized, limit,
                       complexes[-1].max_dim)


def limit_ext_report(s: int, d: RO2Degree, levels, max_dim: int = DEFAULT_MAX_DIM) -> LimitReport:
    """Tower of completed Ext over the given truncation levels (u inverted).

    Levels must be ascending ints.  Dims, images and the certificate come
    from Koszul complexes, labels from cobar when read.  The two-level rule
    is a weaker check and no certificate of the limit (README).

    Either rule only attests to the inspected window: a class born
    above the top level is invisible, so callers must place the window at
    or above the birth level of the classes they expect (slice charts seed
    this from the closed-form names).
    """
    from .koszul import get_koszul  # koszul.py builds on this module

    levels = tuple(levels)
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("need at least two ascending levels")
    return tower_report(s, d, [get_koszul(d, n, max_dim) for n in levels])


def limit_ext_dim(s: int, d: RO2Degree, n_start: int = 1, depth: int = 3,
                  max_dim: int = DEFAULT_MAX_DIM) -> LimitReport:
    """limit_ext_report over levels n_start..n_start+depth; raises if uncertified."""
    report = limit_ext_report(s, d, range(n_start, n_start + depth + 1), max_dim)
    if not report.stabilized:
        raise NotStabilizedError(report)
    return report


def a_multiplication_rank(s: int, d: RO2Degree, n: TruncationLevel,
                          invert_u: bool = False,
                          max_dim: int = DEFAULT_MAX_DIM) -> int:
    """Rank of multiplication by a on cohomology, Ext(s, d) -> Ext(s, d+(0,-1)).

    Multiplying by a keeps every bar word and only raises its a-exponent, so
    on word bases it is the same-level case of _truncation_map.
    """
    src = get_complex(d, n, invert_u, max_dim)
    tgt = get_complex(RO2Degree(d.p, d.q - 1), n, invert_u, max_dim)
    return _image_in_lower(src, tgt, s)[0]


@dataclass(frozen=True)
class LocalizationEntry:
    n: int
    s: int
    p: int
    q: int
    inverted_dim: int
    shifts: tuple[int, int]
    shifted_dims: tuple[int, int]
    periodic_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.periodic_ok
            and self.shifted_dims[0] == self.shifted_dims[1] == self.inverted_dim
        )


@dataclass(frozen=True)
class LocalizationReport:
    entries: tuple[LocalizationEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[LocalizationEntry]:
        return [e for e in self.entries if not e.ok]


def verify_localization(n_values=(1, 2), window: int = 6, s_max: int = 4,
                        max_dim: int = DEFAULT_MAX_DIM) -> LocalizationReport:
    """Check that inverting u agrees with shifting by large powers of u^(2^n).

    For each sampled tridegree the non-inverted dimension at
    d + t*(2^n, -2^n) is compared with the inverted dimension at d for the
    two largest t in the test range; t runs far enough that the shift
    clears every denominator a slice could carry (weight of slices s-1..s+1
    is at most (s+1)(2^n - 1)), which is where multiplication by u^(2^n)
    has become an isomorphism.  Inverted dims are also checked to be
    u^(2^n)-periodic.
    """
    entries = []
    for n in n_values:
        period = 2**n
        cap = period - 1
        for s in range(s_max + 1):
            for p in range(-window, window + 1):
                for q in range(-window, window + 1):
                    d = RO2Degree(p, q)
                    inv = ext_dim(s, d, n, True, max_dim).dim
                    shift = RO2Degree(period, -period)
                    inv_shifted = ext_dim(s, d + shift, n, True, max_dim).dim
                    t_suff = 1
                    while p + t_suff * period < (s + 1) * cap:
                        t_suff += 1
                    t_pair = (t_suff + 1, t_suff + 2)
                    dims = tuple(
                        ext_dim(s, d + shift.scaled(t), n, False, max_dim).dim
                        for t in t_pair
                    )
                    entries.append(LocalizationEntry(
                        n, s, p, q, inv, t_pair, dims, inv_shifted == inv
                    ))
    return LocalizationReport(tuple(entries))
