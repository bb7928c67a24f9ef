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
memoises, per s, its chain table, its differential matrix (stored by
columns, see f2linalg), its cohomology, and the images of its cohomology in
lower complexes of its model, keyed by the lower complex's cache key and s.
No memo holds a lower complex.  A model declares the band of slice s,
`_band(s)`, a tuple of the inputs that list its chains in a weight range,
the last two entries the range lo..hi (hi None for no bound); the hooks
`_chains` (or `_new_table`, as cobar does), `_targets` (or `_columns`, as
cobar does) and `_legal`; and `_coeff_key()`, what d reads beyond the chain.
The base keys each chain table by s and the band, assembles every matrix,
and `_truncation_map` restricts every model to a lower level.  Both models
share one complex key, slice_key.
Cobar is the reference: `ext`, `ext-table` and every label come from it.
Callers that read only dims take them from the Koszul complexes:
limit_ext_report's certificates, verify_localization and
a_multiplication_rank here, xadic.verify_einfty (one worker per
filtration, xadic._einfty_slice) and charts.slice_chart.

A chain table (the chain list of a slice and its index) is shared by every
complex of one model with the same s and band through the weak registry
_TABLES, so it lives exactly as long as some complex holds it.  A cobar band
is (cap, lo, hi), the letter cap and the weights: at level 2 with u inverted,
the four complexes of one E-cut (p mod 4 = 0..3) list the same words.  A
slice over MAX_SLICE_DIM is refused from a closed-form count (`_check_band`)
before any of its words is built.  The words of one length, letter cap and
weight form a weight block (`_WeightBlock`), listed once from the blocks one
length down and shared through the weak registry _BLOCKS by every table
whose band holds that weight; a table holds its blocks, so a block lives
exactly as long as some table holds it, and a band is the sorted union of
its blocks, so tables of different bands share the word tuples.  The split
part of d on a word, the reduced comultiplication of each letter, reads
neither p, the band nor the level, so a block builds it once per word, with
its first differential, as the word objects of the block one length up.  A
cobar differential is assembled weight by weight: the words of one weight
share the coaction letters of u^(p - w) and their block's split map.
The split part of d into a given next table reads no p, so once a second
coefficient key asks for that pair of tables, the source table keeps it
(`ChainTable.split_cols`, freed with the table) and each key from then on
adds only its coaction part to a copy; a pair asked for once keeps nothing.
The table of slice s also holds the differential out of it, keyed by the
next table's key and `_coeff_key()`, and its cohomology, keyed by the
previous table's key (0 at s = 0), the next one's and `_coeff_key()`; a
complex's own memos hold these shared objects.  A cobar differential reads
p only through the coaction of u^beta, which at a finite level sees beta
mod 2^n (Lucas); with u inverted, the complexes of one p mod 2^n and any
E-cut up to s share the differential out of slice s.
"""

from __future__ import annotations

import functools
import weakref
from itertools import islice
from math import comb

from .f2linalg import (
    CohomologyResult,
    F2Matrix,
    bits,
    echelon_insert,
    cohomology_dim,
    image_echelon,
)
from .grading import CobarMonomial, RO2Degree, element_label
from .hopf import TruncationLevel, check_level, coaction_letters, comult_reduced, letter_cap
from .records import Record

# Largest basis of one slice, cobar or Koszul; _check_size enforces it.
MAX_SLICE_DIM = 200_000


class UnboundedBasisError(Exception):
    """The slice basis is infinite (untruncated level with u inverted)."""


class ComplexTooLargeError(Exception):
    """A slice basis exceeds MAX_SLICE_DIM."""


def ceil_half(v: int) -> int:
    return -((-v) // 2)


def _check_size(s: int, size: int) -> None:
    if size > MAX_SLICE_DIM:
        raise ComplexTooLargeError(f"slice s={s} exceeds {MAX_SLICE_DIM} monomials")


def _check_band(s: int, cap: int, lo: int, hi: int) -> None:
    """Refuse a band of more than MAX_SLICE_DIM words before any is built.

    The words weigh s to s*cap, and e -> cap + 1 - e takes weight w to
    s*(cap + 1) - w, so the band is first mirrored to lie nearer s.  Its
    deepest weight s + t then holds at least C(s, j) words for each j up to
    min(t, s/2) (j letters 2, the rest 1; the counts rise to the middle
    weight), which refuses a deep band after a few factors.  Otherwise t or
    s is small and the count is exact: the words with letters >= 1 and
    weight at most m number C(m, s), and inclusion-exclusion over the k
    letters past cap, each lowered by cap, leaves those in 1..cap."""
    lo, hi = max(lo, s), min(hi, s * cap)
    if lo > hi:
        return
    if hi - s > s * cap - lo:
        lo, hi = s * (cap + 1) - hi, s * (cap + 1) - lo
    least = 1
    for j in range(1, min(hi - s, s * (cap - 1) // 2, s // 2) + 1):
        least = least * (s - j + 1) // j
        _check_size(s, least)

    def upto(m: int) -> int:
        return comb(m, s) if m >= 0 else 0

    _check_size(s, sum((-1) ** k * comb(s, k) * (upto(hi - k * cap) - upto(lo - 1 - k * cap))
                       for k in range(min(s, (hi - s) // cap) + 1)))


def _splits(word: tuple[int, ...]):
    """The words that the reduced comultiplication of each letter splits word
    into, slot by slot.  A legal letter splits alike at every level."""
    return (word[:slot] + (i1, i2) + word[slot + 1:]
            for slot, e in enumerate(word)
            for i1, i2 in comult_reduced(e, None))


class _WeightBlock:
    """The words of one length s, letter cap and weight w in lex order, and,
    built with the first differential out of them, the split part of d on
    each.  The chain tables whose bands hold w share the block through
    _BLOCKS, and it is freed with the last of them."""

    __slots__ = ("key", "words", "_splits", "__weakref__")

    def __init__(self, key: tuple[int, int, int], words: tuple[tuple[int, ...], ...]):
        self.key = key
        self.words = words
        self._splits: dict | None = None

    def splits(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """word -> `_splits(word)`, its targets the word objects of the block
        one length up, so that they take no memory of their own.  A target
        outside that block is kept as built, for the assembly to refuse."""
        if self._splits is None:
            s, cap, w = self.key
            up = _block(s + 1, cap, w, [])
            same = dict(zip(up.words, up.words)).get
            self._splits = {word: tuple([same(t, t) for t in _splits(word)])
                            for word in self.words}
        return self._splits


# (s, cap, w) -> block, cap cut to the largest letter that the block's words
# can hold, so that untruncated bands of different p share their blocks
_BLOCKS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _block(s: int, cap: int, w: int, held: list) -> _WeightBlock:
    """The block of the words of length s, letters in 1..cap and weight w:
    (e,) + t for ascending e over the words t of weight w - e, where the
    s - 1 letters of t hold w - e.  The missing blocks are found from the
    top, one length at a time, and built from the bottom, so that words of
    any length cost no stack.  Each block reached goes on held, which keeps
    it alive while a band is listed."""

    def key(t: int, v: int) -> tuple[int, int, int]:
        return t, min(cap, v - t + 1) if t else 0, v

    def firsts(t: int, v: int) -> range:
        c = key(t, v)[1]
        return range(max(1, v - (t - 1) * c), c + 1)

    missing: list[tuple[int, list[int]]] = []  # (length, weights), longest first
    t, weights = s, {w}
    while weights:
        absent = []
        for v in weights:
            got = _BLOCKS.get(key(t, v))
            if got is None:
                absent.append(v)
            else:
                held.append(got)
        missing.append((t, absent))
        weights = {v - e for v in absent for e in firsts(t, v)}
        t -= 1
    for t, absent in reversed(missing):
        for v in absent:
            if t == 0:
                words = ((),) if v == 0 else ()
            else:
                words = tuple((e,) + u for e in firsts(t, v)
                              for u in _BLOCKS[key(t - 1, v - e)].words)
            got = _BLOCKS[key(t, v)] = _WeightBlock(key(t, v), words)
            held.append(got)
    return _BLOCKS[key(s, w)]


def _band_blocks(s: int, cap: int, lo: int, hi: int) -> tuple[_WeightBlock, ...]:
    """The nonempty blocks of length s, letters in 1..cap and weight in
    lo..hi, by weight; refused from counts over MAX_SLICE_DIM words."""
    _check_band(s, cap, lo, hi)
    held: list[_WeightBlock] = []
    return tuple(_block(s, cap, w, held)
                 for w in range(max(lo, s), min(hi, s * cap) + 1))


def _check_key(n: TruncationLevel, invert_u: bool) -> None:
    check_level(n)
    if invert_u and n is None:
        raise UnboundedBasisError(
            "u inverted at the untruncated level: use the limit over levels"
        )


class ChainTable:
    """The chain list of one slice in canonical order and its index, shared
    through _TABLES by every complex of a model with the same chain key, and
    the differentials and cohomology assembled on it, which complexes with
    equal neighbouring tables and equal `_coeff_key()` share.  A cobar table
    also holds the weight blocks of its words, by weight, and the split part
    of d into each next table that a second coefficient key asked for."""

    __slots__ = ("key", "words", "index", "blocks", "matrices", "split_cols",
                 "cohomology", "__weakref__")

    def __init__(self, key: tuple, words: tuple[tuple[int, ...], ...],
                 blocks: dict[int, _WeightBlock] | None = None):
        self.key = key
        self.words = words
        self.index = dict(zip(words, range(len(words))))
        self.blocks = blocks
        # (next slice's table key, coeff key) -> d out of this slice
        self.matrices: dict[tuple, F2Matrix] = {}
        # next slice's table key -> the columns of the split part of d
        self.split_cols: dict[tuple, tuple[int, ...]] = {}
        # (previous slice's table key or 0, next slice's, coeff key) -> H here
        self.cohomology: dict[tuple, CohomologyResult] = {}


def _missing(error: KeyError, chain: tuple[int, ...]) -> AssertionError:
    return AssertionError(f"boundary target {error.args[0]} of {chain} missing")


# (model, chain key) -> table; a table stays while some complex's memo holds it
_TABLES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class SlicesBase:
    """The memos and the assembly of one slice complex, built from its
    slice_key.  A model supplies `_band(s)` (the inputs that list slice s,
    its weight range last), `_chains(s)` (the basis of slice s in
    canonical order; or overrides `_new_table(key, s)`, which lists it
    under the size guard), `_targets(chain)` (the chains of slice s+1 in
    d(chain), repeats cancelling; or overrides `_columns(src, tgt)`, which
    assembles d chain by chain from them) and `_legal(chain)` (every letter
    exists at this complex's level, which `_truncation_map` asks of the
    lower complex).  It may narrow `_coeff_key()` to what d reads beyond
    the chain, so that more complexes share each differential and
    cohomology."""

    def __init__(self, n: TruncationLevel, invert_u: bool, p_key: int, e_floor: int):
        _check_key(n, invert_u)
        self.n = n
        self.invert_u = invert_u
        self.p_key = p_key
        self.e_floor = e_floor
        self._words: dict[int, ChainTable] = {}
        self._matrices: dict[int, F2Matrix] = {}
        self._cohom: dict[int, CohomologyResult] = {}
        self._images: dict[tuple, tuple[int, tuple[int, ...]]] = {}

    def _chain_key(self, s: int) -> tuple:
        return (s,) + self._band(s)

    def _coeff_key(self) -> tuple:
        return self.n, self.invert_u, self.p_key, self.e_floor

    def words(self, s: int) -> tuple[tuple[int, ...], ...]:
        if s < 0:
            raise ValueError(f"no slice at negative filtration s={s}")
        got = self._words.get(s)
        if got is None:
            key = (type(self), self._chain_key(s))
            got = _TABLES.get(key)
            if got is None:
                got = _TABLES[key] = self._new_table(key, s)
            self._words[s] = got
        return got.words

    def _new_table(self, key: tuple, s: int) -> ChainTable:
        out = tuple(islice(self._chains(s), MAX_SLICE_DIM + 1))
        _check_size(s, len(out))
        return ChainTable(key, out)

    def _table(self, s: int) -> ChainTable:
        self.words(s)
        return self._words[s]

    def index(self, s: int) -> dict[tuple[int, ...], int]:
        return self._table(s).index

    def matrix(self, s: int) -> F2Matrix:
        """Differential from slice s to slice s+1 in the shared chain bases."""
        got = self._matrices.get(s)
        if got is not None:
            return got
        src, tgt = self._table(s), self._table(s + 1)
        key = tgt.key, self._coeff_key()
        got = src.matrices.get(key)
        if got is None:
            got = src.matrices[key] = F2Matrix(len(tgt.words), len(src.words),
                                               tuple(self._columns(src, tgt)))
        self._matrices[s] = got
        return got

    def _columns(self, src: ChainTable, tgt: ChainTable) -> list[int]:
        """The columns of d from table src into table tgt, chain by chain."""
        cols = []
        row = tgt.index.__getitem__
        for chain in src.words:
            col = 0
            try:
                for i in map(row, self._targets(chain)):
                    col ^= 1 << i
            except KeyError as missing:
                raise _missing(missing, chain) from None
            cols.append(col)
        return cols

    def cohomology(self, s: int) -> CohomologyResult:
        if s < 0:
            raise ValueError(f"no Ext at negative filtration s={s}")
        got = self._cohom.get(s)
        if got is not None:
            return got
        # list slices s-1, s, s+1 in ascending order, so that an oversized
        # slice is refused at the same s as when the matrices list them
        prev = self._table(s - 1).key if s else 0
        here, nxt = self._table(s), self._table(s + 1)
        key = prev, nxt.key, self._coeff_key()
        got = here.cohomology.get(key)
        if got is None:
            d_in = self.matrix(s - 1) if s else F2Matrix.zero(len(here.words), 0)
            got = here.cohomology[key] = cohomology_dim(d_in, self.matrix(s))
        self._cohom[s] = got
        return got


class SliceComplex(SlicesBase):
    """Shared word-level cobar data for one (level, invert flag, p-key, E-cut).

    p_key is the actual p when u is not inverted (it bounds E), and
    p mod 2^n when u is inverted (only binomial parities remain).
    """

    def _band(self, s: int) -> tuple[int, int, int]:
        """(cap, lo, hi): slice s lists the words with letters in 1..cap and
        weight in lo..hi."""
        cap = letter_cap(self.n)
        if self.invert_u:
            hi = s * cap
        else:
            hi = min(self.p_key, s * cap) if cap is not None else self.p_key
        return (cap if cap is not None else max(hi, 1)), max(s, self.e_floor), hi

    def _new_table(self, key: tuple, s: int) -> ChainTable:
        blocks = _band_blocks(s, *self._band(s))
        words = sorted(word for block in blocks for word in block.words)
        return ChainTable(key, tuple(words), {b.key[2]: b for b in blocks})

    def _coeff_key(self) -> tuple:
        # coaction_letters(beta, n) reads beta mod 2^n at a finite level (Lucas)
        return self.n, self.p_key if self.n is None else self.p_key % 2**self.n

    def _columns(self, src: ChainTable, tgt: ChainTable) -> list[int]:
        """The columns of d from src into tgt.  The split part reads no p,
        so once a second coefficient key asks for this pair of tables, src
        keeps it, and each key from then on adds only its coaction part."""
        split = src.split_cols.get(tgt.key)
        if split is None and any(key[0] == tgt.key for key in src.matrices):
            split = src.split_cols[tgt.key] = tuple(self._part(src, tgt, None, coaction=False))
        return self._part(src, tgt, split)

    def _part(self, src: ChainTable, tgt: ChainTable, split: tuple[int, ...] | None,
              coaction: bool = True) -> list[int]:
        """The split part of d, built here when split is None, else the kept
        columns, plus the coaction part unless coaction is False, weight by
        weight: the words of weight w share the coaction letters of
        u^(p - w), and a weight with none keeps its kept columns as they are."""
        row, at = tgt.index.__getitem__, src.index.__getitem__
        cols = [0] * len(src.words) if split is None else list(split)
        for w, block in src.blocks.items():
            letters = coaction_letters(self.p_key - w, self.n) if coaction else ()
            if split is not None and not letters:
                continue
            for word, targets in block.splits().items():
                j = at(word)
                col = cols[j]
                try:
                    if split is None:
                        for i in map(row, targets):
                            col ^= 1 << i
                    for i in letters:
                        col ^= 1 << row((i,) + word)
                except KeyError as missing:
                    raise _missing(missing, word) from None
                cols[j] = col
        return cols

    def _legal(self, word: tuple[int, ...]) -> bool:
        cap = letter_cap(self.n)
        return cap is None or max(word, default=0) <= cap


_shared_complex = functools.lru_cache(maxsize=128)(SliceComplex)


def slice_key(d: RO2Degree, n: TruncationLevel, invert_u: bool) -> tuple:
    """Cache key (n, invert_u, p_key, e_floor) of the slice complexes of d,
    cobar and Koszul alike."""
    _check_key(n, invert_u)
    p_key = d.p % 2**n if invert_u else d.p
    e_floor = max(0, ceil_half(d.p + d.q))
    if not invert_u:
        e_floor = min(e_floor, max(d.p, 0) + 1)
    return n, invert_u, p_key, e_floor


def get_complex(d: RO2Degree, n: TruncationLevel, invert_u: bool) -> SliceComplex:
    return _shared_complex(*slice_key(d, n, invert_u))


def _monomial(word: tuple[int, ...], d: RO2Degree) -> CobarMonomial:
    e = sum(word)
    return CobarMonomial(2 * e - d.p - d.q, d.p - e, word)


def _labels(words, d: RO2Degree, vectors) -> tuple[str, ...]:
    """Labels of the F2 sums of monomials that the bit vectors pick from words."""
    return tuple(element_label([_monomial(words[j], d) for j in bits(v)])
                 for v in vectors)


def basis(s: int, d: RO2Degree, n: TruncationLevel,
          invert_u: bool = False) -> list[CobarMonomial]:
    """Canonically ordered monomial basis of the slice (s, d) at level n."""
    cx = get_complex(d, n, invert_u)
    return [_monomial(w, d) for w in cx.words(s)]


def differential(s: int, d: RO2Degree, n: TruncationLevel,
                 invert_u: bool = False) -> F2Matrix:
    """Cobar differential from slice s to slice s+1 in the canonical bases."""
    return get_complex(d, n, invert_u).matrix(s)


class ExtResult(Record):
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
    __slots__ = tuple(__annotations__)

    @property
    def rep_labels(self) -> tuple[str, ...]:
        return _labels(self.words, self.degree, self.rep_vectors)


def ext_dim(s: int, d: RO2Degree, n: TruncationLevel,
            invert_u: bool = False) -> ExtResult:
    """Cohomology of the slice at s: dimension plus representative cocycles."""
    cx = get_complex(d, n, invert_u)
    res = cx.cohomology(s)
    return ExtResult(s, d, n, invert_u, res.dim, res.representatives, cx.words(s))


def _truncation_map(src: SlicesBase, dst: SlicesBase, s: int) -> list[int | None]:
    """Index map of slice s of src into slice s of a lower complex dst of the
    same model, None for the chains that leave dst's level (they map to 0).

    Between two complexes at the same level every chain survives, and the
    map is the inclusion of chain bases (multiplication by a, for instance).
    Chains are looked up first; only a chain missing downstairs is tested
    with dst._legal, and it must be illegal there."""
    dst_index = dst.index(s)
    out: list[int | None] = []
    for chain in src.words(s):
        t = dst_index.get(chain)
        if t is None and dst._legal(chain):
            raise AssertionError(f"restricted chain {chain} missing downstairs")
        out.append(t)
    return out


def _map_vector(index_map: list[int | None], v: int) -> int:
    out = 0
    for j in bits(v):
        t = index_map[j]
        if t is not None:
            out ^= 1 << t
    return out


class LimitReport(Record):
    s: int
    degree: RO2Degree
    levels: tuple[int, ...]
    dims: tuple[int, ...]
    image_dims: tuple[int, ...]
    skip_image_dim: int | None
    rule: str
    stabilized: bool
    limit_dim: int | None
    __slots__ = tuple(__annotations__)

    @property
    def basis_labels(self) -> tuple[str, ...]:
        """Cobar labels of a certified nonzero limit, built on each read: the
        image of the top level's cobar cohomology in the level below, which
        must have the certified dimension."""
        if not self.limit_dim:
            return ()
        top, second = (get_complex(self.degree, n, True) for n in self.levels[:-3:-1])
        dim, residues = _image_in_lower(top, second, self.s)
        if dim != self.limit_dim:
            raise AssertionError(
                f"cobar image dim {dim} differs from the certified limit "
                f"{self.limit_dim} at s={self.s}, d={self.degree}"
            )
        return _labels(second.words(self.s), self.degree, residues)

    @property
    def ok(self) -> bool:
        return self.stabilized

    def lines(self) -> list[str]:
        return []

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
    under the index map that _truncation_map(hi, lo, s) gives; hi and lo
    are complexes of one model.

    Memoised on hi under lo's cache key and s; a call that raises stores
    nothing."""
    key = (lo.n, lo.invert_u, lo.p_key, lo.e_floor, s)
    got = hi._images.get(key)
    if got is not None:
        return got
    index_map = _truncation_map(hi, lo, s)
    d_out = lo.matrix(s)
    pivots = image_echelon(lo.matrix(s - 1)) if s > 0 else {}
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
    return LimitReport(s, d, levels, dims, image_dims, skip, rule, stabilized, limit)


def limit_ext_report(s: int, d: RO2Degree, levels) -> LimitReport:
    """Tower of completed Ext over the given truncation levels (u inverted).

    Levels must be ascending ints.  Dims, images and the certificate come
    from the u-inverted Koszul complexes of get_koszul, labels from cobar
    when read.  The two-level rule is a weaker check and no certificate of
    the limit (README).

    Either rule only attests to the inspected window: a class born
    above the top level is invisible.  From koszul.stable_level(s, d) on the
    tower is constant; limit-ext starts there, and slice charts
    read the one complex at that level instead of a tower.
    """
    from .koszul import get_koszul  # koszul.py builds on this module

    levels = tuple(levels)
    if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("need at least two ascending levels")
    return tower_report(s, d, [get_koszul(d, n) for n in levels])


def a_multiplication_rank(s: int, d: RO2Degree, n: TruncationLevel,
                          invert_u: bool = False) -> int:
    """Rank of multiplication by a on cohomology, Ext(s, d) -> Ext(s, d+(0,-1)),
    on the Koszul complexes.

    Multiplying by a keeps every chain and only raises its a-exponent, so
    on chain bases it is the same-level case of _truncation_map, in either
    model (the tests compare with cobar).
    """
    from .koszul import get_koszul  # koszul.py builds on this module

    src = get_koszul(d, n, invert_u)
    tgt = get_koszul(RO2Degree(d.p, d.q - 1), n, invert_u)
    return _image_in_lower(src, tgt, s)[0]


class LocalizationEntry(Record):
    n: int
    s: int
    p: int
    q: int
    inverted_dim: int
    shifts: tuple[int, int]
    shifted_dims: tuple[int, int]
    __slots__ = tuple(__annotations__)

    @property
    def ok(self) -> bool:
        return self.shifted_dims[0] == self.shifted_dims[1] == self.inverted_dim

    def fail_line(self) -> str:
        return (f"FAIL n={self.n} s={self.s} p={self.p} q={self.q}: inverted "
                f"{self.inverted_dim}, shifted dims {list(self.shifted_dims)} at "
                f"t={list(self.shifts)}")

    def failure_dict(self) -> dict:
        return self.as_dict()


class EntriesReport(Record):
    """Verdicts on the tridegrees of a window.  Each entry supplies `ok`,
    `fail_line()` and `failure_dict()`; only failures are listed.  A window
    of no tridegree is not ok."""
    entries: tuple
    __slots__ = tuple(__annotations__)

    @property
    def ok(self) -> bool:
        return bool(self.entries) and all(e.ok for e in self.entries)

    def failures(self) -> list:
        return [e for e in self.entries if not e.ok]

    def lines(self) -> list[str]:
        bad = self.failures()
        return [e.fail_line() for e in bad] + [
            f"{len(self.entries)} tridegrees checked, {len(bad)} failures: "
            f"{'pass' if self.ok else 'FAIL'}"]

    def to_dict(self) -> dict:
        return {"ok": self.ok, "checked": len(self.entries),
                "failures": [e.failure_dict() for e in self.failures()]}


def verify_localization(n_values=(1, 2), window: int = 6,
                        s_max: int = 4) -> EntriesReport:
    """Check that inverting u agrees with shifting by large powers of u^(2^n).

    For each sampled tridegree the non-inverted dimension at
    d + t*(2^n, -2^n) is compared with the inverted dimension at d for the
    two largest t in the test range; t runs far enough that the shift
    clears every denominator a slice could carry (weight of slices s-1..s+1
    is at most (s+1)(2^n - 1)), which is where multiplication by u^(2^n)
    has become an isomorphism.  Every dim is read from the Koszul complex
    (the tests recompute them on cobar).  The levels must be finite, since
    u is not inverted at inf, and distinct, so no tridegree counts twice.
    """
    from .koszul import get_koszul  # koszul.py builds on this module

    n_values = tuple(n_values)
    if None in n_values:
        raise ValueError("u cannot be inverted at level inf; sample finite levels")
    for i, n in enumerate(n_values):
        if n in n_values[:i]:
            raise ValueError(f"level {n} is sampled twice; sample each level once")
    entries = []
    for n in n_values:
        period = 2**n
        cap = period - 1
        for s in range(s_max + 1):
            for p in range(-window, window + 1):
                for q in range(-window, window + 1):
                    d = RO2Degree(p, q)
                    inv = get_koszul(d, n, True).cohomology(s).dim
                    shift = RO2Degree(period, -period)
                    # least t >= 1 with p + t * period >= (s + 1) * cap
                    t_suff = max(1, -((p - (s + 1) * cap) // period))
                    t_pair = (t_suff + 1, t_suff + 2)
                    dims = tuple(
                        get_koszul(d + shift.scaled(t), n, False).cohomology(s).dim
                        for t in t_pair
                    )
                    entries.append(LocalizationEntry(n, s, p, q, inv, t_pair, dims))
    return EntriesReport(tuple(entries))
