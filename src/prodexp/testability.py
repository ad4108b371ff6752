"""Axis-parallel flat tests, robustness, agreement testability, and the
executable inequality checks that tie them together.

Definitions implemented here (all distances normalized, all arithmetic
exact):

  rho_r(T, F)  = min over words x with delta(x, prod F) > 0 of
                 E_{I in T} delta(x|_I, (prod F)|_I) / delta(x, prod F)

  rho_a(F)     = min over tuples (c_1..c_m), c_i in C^(i), not all equal, of
                 E_{i,j} ||c_i - c_j||  /  min_{c in prod F} E_i ||c_i - c||_i

Flats are drawn with probability proportional to their size, which for a
k-flat test collapses to: pick a direction set uniformly at random, then a
flat of that direction uniformly (uniform over all flats when the n_i are
equal).  Restrictions of the product code to an axis-parallel flat are the
product code of the restricted family, which is exact for the nonzero cyclic
component codes used throughout.

Exact ratios of many words come from one kernel, `_exact_ratio`, over one
word per coset of the product code (`rho_r_exact`) or over a sampled pool
(`check_composition`).  Both agreement estimators count in integers, pairs
in cells and the distance to the product code in `xor_line_counts` tables on
the scale of `line_norm_scale`; `agreement_ratio_sampled` only replaces the
minimum over the product code by a few candidates.
Both sampled robustness estimators read one seeded pool, `_word_pool`, whose
diagonal words are twisted diagonals T_s (`expansion.twisted_diagonal`): the
witness, s = (-k, -2k) with k = n/3 on the rate-1/3 RS triple; `diagonal`, s = 0;
`diagonal-scaled`, s_j = j k with k = max(1, n // 3) whatever the family's rate.
`rho_a_sampled` draws tuples of uniform direction words instead.
`check_lemmas` enumerates each exact constant of check-lemmas once and builds
every report from those values; its line-test chain and `derived_constants`'
alpha_r are one formula, `_line_test_chain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .codes import CyclicCode, DistanceBound, min_distance
from .expansion import rs_triple_witness, twisted_diagonal
from .tensor import (
    CodeFamily,
    TensorWord,
    _exact_ratio_min,
    _min_distance_to_rows,
    decode_to_products,
    direction_words,
    enumerate_flats,
    line_norm_scale,
    nearest_in_direction,
    product_codewords,
    random_product_codeword,
    random_sum_codeword,
    xor_line_counts,
)

_CORRUPTION_ROUNDS = 8  # random product codewords per pool, one line replaced per direction
#: lines per direction that `rho_r_sampled_upper` decodes in one batch: 8
#: words of RS[63,21]^2, one word of RS[63,21]^3
_POOL_BLOCK_LINES = 1 << 9
_RHO_R_T21 = Fraction(1, 72)  # line-test robustness floor of the rate-1/3 RS square


@dataclass(frozen=True)
class FlatTest:
    """The axis-parallel k-flat test on a fixed grid; its flats are
    `enumerate_flats(shape, k)`."""

    shape: Tuple[int, ...]
    k: int

    @staticmethod
    def build(shape: Sequence[int], k: int) -> "FlatTest":
        if not 1 <= k <= len(shape) - 1:
            raise ValueError(f"flat dimension {k} outside [1, {len(shape) - 1}]")
        return FlatTest(tuple(shape), k)

    @property
    def size(self) -> int:
        """Sum of the flats' sizes: the flats of each of the C(m, k) free-axis
        sets cover the grid once."""
        return comb(len(self.shape), self.k) * prod(self.shape)

    def label(self) -> str:
        return f"T_{len(self.shape)}^{self.k}"


def line_test(shape: Sequence[int]) -> FlatTest:
    return FlatTest.build(shape, 1)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an executable inequality check."""

    name: str
    instance: str
    quantities: Dict[str, Fraction]
    # (desc, lhs, rhs) triples; each holds iff lhs >= rhs
    inequalities: Tuple[Tuple[str, Fraction, Fraction], ...]
    mode: str = "exact"
    seed: Optional[int] = None
    sample_count: Optional[int] = None

    @property
    def holds(self) -> bool:
        return all(lhs >= rhs for _, lhs, rhs in self.inequalities)


# ----------------------------------------------------------------------
# Expectation of local distances over a flat test.
# ----------------------------------------------------------------------

def _line_distances(words: np.ndarray, family: CodeFamily) -> Tuple[np.ndarray, np.ndarray]:
    """Bounds (lower, upper) on the Hamming distance of each word of a
    (W, n_1, ..., n_m) array to each direction code C^(j), as two (m, W)
    int64 arrays: every line is decoded once, in one batch per direction."""
    bounds = [nearest_in_direction(words, family, axis) for axis in range(family.m)]
    return np.array([lower for _, lower, _ in bounds]), np.array([upper for _, _, upper in bounds])


def test_expectation(word: TensorWord, test: FlatTest, family: CodeFamily) -> DistanceBound:
    """E over flats of the distance from the restriction to the restricted
    product code; exact whenever every restriction is decodable exactly.

    For the line test a direction-j line carries weight n_j / (m N), so the
    expectation is the mean over directions of the distance to C^(j).  A
    k-flat f carries weight |f| / sum |f|, so for k >= 2 the expectation is
    the sum of the flats' Hamming distances over the sum of their sizes."""
    if word.shape != test.shape or word.shape != family.shape:
        raise ValueError("shape mismatch")
    if test.k == 1:
        lower, upper = _line_distances(word.data[None], family)
        cells = family.m * prod(family.shape)
        return DistanceBound(Fraction(int(lower.sum()), cells), Fraction(int(upper.sum()), cells))
    dist = _flat_distances(word.data.reshape(1, -1), test, family)
    value = Fraction(int(dist[0]), test.size)
    return DistanceBound(value, value)


test_expectation.__test__ = False  # keep pytest from collecting the operation


# ----------------------------------------------------------------------
# Exact robustness by enumerating the cosets of the product code.
# ----------------------------------------------------------------------

def _flat_distances(words: np.ndarray, test: FlatTest, family: CodeFamily) -> np.ndarray:
    """Per word of a flattened (W, N) array, the sum over the test's flats of
    the Hamming distance from the word's restriction to the restricted
    product code, whose codewords are enumerated once per free-axis set."""
    cells = np.arange(prod(test.shape)).reshape(test.shape)
    restricted: Dict[Tuple[int, ...], np.ndarray] = {}
    total = np.zeros(words.shape[0], dtype=np.int64)
    for flat in enumerate_flats(test.shape, test.k):
        axes = flat.free_axes
        if axes not in restricted:
            restricted[axes] = product_codewords(family.restrict(axes))
        idx = tuple(slice(None) if i in axes else b for i, b in enumerate(flat.base))
        total += _min_distance_to_rows(words[:, cells[idx].reshape(-1)], restricted[axes])
    return total


def _exact_ratio(
    words: np.ndarray, test: FlatTest, family: CodeFamily, prod_cws: np.ndarray
) -> Optional[Fraction]:
    """Exact minimum robustness ratio over the rows of a (W, N) word array
    outside the product code, whose codewords are `prod_cws`; None when every
    row is a codeword.  A row's ratio is (num / test.size) / (dmin / N)."""
    dmin = _min_distance_to_rows(words, prod_cws)
    if not dmin.any():
        return None
    num = _flat_distances(words, test, family)
    return _exact_ratio_min(num, dmin, test.size, words.shape[1])[0]


def word_space_enumerable(family: CodeFamily) -> bool:
    """Whether `rho_r_exact` may run on the family: q^N <= 2^24.  It scans
    only q^(N-K) coset representatives, but the guard counts the whole word
    space q^N on purpose, so that it refuses exactly the families it always
    refused."""
    return family.field.degree * prod(family.shape) <= 24  # q = 2^degree


def rho_r_exact(test: FlatTest, family: CodeFamily) -> Fraction:
    """Exact robustness of a flat test, from one word per coset of the
    product code P.

    A word's ratio is constant on its coset x + P: adding c in P changes
    neither its distance to P nor any flat's distance, since c restricted to
    a flat lies in that flat's restricted product code.  Positions
    0..k_i - 1 are an information set of each cyclic C_i (the generator
    matrix is triangular there, with diagonal g(0) != 0), so I = I_1 x ... x
    I_m is one of P, and each coset holds exactly one word that vanishes on
    I.  Those q^(N-K) words are scanned, their free cells enumerated."""
    if test.shape != family.shape:
        raise ValueError("test grid does not match the family")
    if not word_space_enumerable(family):
        raise ValueError("word space too large for exact robustness")
    N = prod(family.shape)
    q = family.field.order
    prod_cws = product_codewords(family)
    info = np.zeros(family.shape, dtype=bool)
    info[tuple(slice(code.dimension) for code in family.codes)] = True
    free = np.flatnonzero(~info.reshape(-1))
    if free.size == 0:
        raise ValueError("degenerate family: no word lies outside the product code")

    best: Optional[Fraction] = None
    total = q**free.size
    chunk = 1 << 18
    for start in range(0, total, chunk):
        reps = linalg.enumerate_vectors(q, free.size, start, min(start + chunk, total))
        words = np.zeros((reps.shape[0], N), dtype=np.uint8)
        words[:, free] = reps
        value = _exact_ratio(words, test, family, prod_cws)
        if value is not None and (best is None or value < best):
            best = value
    if best is None:
        raise RuntimeError("no enumerated word lies outside the product code")
    return best


def robustness_ratio(
    word: TensorWord, test: FlatTest, family: CodeFamily
) -> Optional[Fraction]:
    """Upper bound on the line-test robustness ratio of one word; None for
    codewords: the one-word view of `_line_ratios`."""
    return _line_ratios(word.data[None], test, family)[0]


def _line_ratios(words: np.ndarray, test: FlatTest, family: CodeFamily) -> List[Optional[Fraction]]:
    """Upper bound on the line-test robustness ratio of each word of a
    (W, n_1, ..., n_m) array; None for codewords.

    The numerator expectation, the mean of the direction distances, is
    upper-bounded (failed line decodes fall back to the covering-radius
    bound) and the global distance is lower-bounded by the largest direction
    distance, so the quotient always upper-bounds the word's true ratio.
    That lower bound is 0 exactly for codewords: a line adds 0 only when it
    decodes to itself, and an unresolved line adds at least e + 1 >= 1.
    Every direction counts cells of one grid: the ratio is sum_j upper_j /
    (m max_j lower_j), one `Fraction` per word.
    Other flat tests raise `ValueError`: there the expectation would bound
    both sides and the quotient would always be 1.
    """
    if test.k != 1:
        raise ValueError("robustness ratios are bounded for the line test only")
    lower, upper = _line_distances(words, family)
    return [
        None if den == 0 else Fraction(num, family.m * den)
        for num, den in zip(upper.sum(axis=0).tolist(), lower.max(axis=0).tolist())
    ]


@dataclass(frozen=True)
class SampledRobustnessReport:
    instance: str
    test: str
    seed: int
    sample_count: int
    value: Fraction  # min ratio over the pool: an upper bound on rho_r
    ratios: Tuple[Tuple[str, Fraction], ...]
    skipped: int


def _word_pool(family: CodeFamily, samples: int, seed: int) -> List[Tuple[str, TensorWord]]:
    """The pool of the sampled estimators, drawn from one PCG64 generator:
    the witness T_(-k,-2k), k = n/3, on the rate-1/3 RS triple; codeword
    single-line corruptions; on a cube [n]^m, `diagonal` T_0 and `diagonal-scaled`
    T_s, s_j = j k with k = max(1, n // 3) whatever the rate; `samples` uniform words."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pool: List[Tuple[str, TensorWord]] = []
    shape = family.shape
    field = family.field
    witness = rs_triple_witness(family)
    if witness is not None:
        pool.append(("counterexample", witness))
    for r in range(_CORRUPTION_ROUNDS):
        base = random_product_codeword(family, rng)
        for axis, code in enumerate(family.codes):
            moved = np.moveaxis(base.data, axis, -1).copy()
            mat = moved.reshape(-1, shape[axis])
            li = int(rng.integers(0, mat.shape[0]))
            repl = code.random_codeword(rng)
            for _ in range(8):
                if not np.array_equal(repl, mat[li]):
                    break
                repl = code.random_codeword(rng)
            mat[li] = repl
            word = TensorWord(field, np.moveaxis(moved, -1, axis))
            pool.append((f"line-corrupt-{r}-ax{axis}", word))
    if len(set(shape)) == 1:
        axes, k = range(1, len(shape)), max(1, shape[0] // 3)
        pool.append(("diagonal", twisted_diagonal(field, shape, [0 for _ in axes])))
        if shape[0] > 1:
            scaled = twisted_diagonal(field, shape, [j * k for j in axes])
            pool.append(("diagonal-scaled", scaled))
    for i in range(samples):
        arr = rng.integers(0, field.order, size=shape, dtype=np.uint8)
        pool.append((f"uniform-{i}", TensorWord(field, arr)))
    return pool


def rho_r_sampled_upper(
    test: FlatTest,
    family: CodeFamily,
    samples: int,
    seed: int,
) -> SampledRobustnessReport:
    """Minimum robustness ratio over the seeded pool of `_word_pool`.

    Every reported ratio upper-bounds the corresponding word's true ratio,
    so the minimum is a certified upper bound on rho_r.  Codewords in the
    pool are skipped (their ratio is 0/0).  The pool is decoded in blocks
    of words with at most `_POOL_BLOCK_LINES` lines per direction (at least
    one word), each stacked only when it is decoded; every word's ratio is
    the same in any block.
    """
    pool = _word_pool(family, samples, seed)
    step = max(1, _POOL_BLOCK_LINES // (prod(family.shape) // min(family.shape)))
    blocks = (
        np.stack([word.data for _, word in pool[s : s + step]]) for s in range(0, len(pool), step)
    )
    flat = [ratio for block in blocks for ratio in _line_ratios(block, test, family)]
    ratios = tuple((name, ratio) for (name, _), ratio in zip(pool, flat) if ratio is not None)
    if not ratios:
        raise ValueError("every pool word was a codeword; nothing to report")
    return SampledRobustnessReport(
        instance=family.label(),
        test=test.label(),
        seed=seed,
        sample_count=samples,
        value=min(r for _, r in ratios),
        ratios=ratios,
        skipped=len(pool) - len(ratios),
    )


# ----------------------------------------------------------------------
# Agreement testability.
# ----------------------------------------------------------------------

def rho_a_exact(family: CodeFamily) -> Fraction:
    """Exact agreement testability by enumerating all tuples (tiny instances).

    Pairwise disagreement uses the plain normalized Hamming weight; the
    distance to the common product codeword uses direction line weights, as
    the two sides of the definition prescribe.  Both are sums of per-axis
    tables broadcast over the tuple grid, a block of first-axis words at a
    time: min_p sum_i w_i M_i[a_i, p], M_i the XOR line counts of C^(i)
    against the product codewords, and sum_{i<j} 2 H_ij[a_i, a_j], H_ij the
    Hamming distances between C^(i) and C^(j).
    """
    m = family.m
    if m < 2:
        raise ValueError("agreement testability needs at least two directions")
    shape = family.shape
    N = prod(shape)
    degree, q = family.field.degree, family.field.order
    dims = [code.dimension * N // n for code, n in zip(family.codes, shape)]
    if degree * max(dims) > 20:  # q^dim > 2^20, q = 2^degree; before any word is built
        raise ValueError("direction code too large to enumerate")
    if degree * sum(dims) > 20:
        raise ValueError("tuple space too large for exact agreement testability")
    # all words of each C^(i), flattened to (q^dim, N), in lexicographic order
    spaces = [
        direction_words(code, shape, i, linalg.enumerate_vectors(q, dim))
        for i, (code, dim) in enumerate(zip(family.codes, dims))
    ]
    grid = tuple(words.shape[0] for words in spaces)
    prod_cws = product_codewords(family)
    weights, denom = line_norm_scale(shape)
    dist = [
        weights[i] * xor_line_counts(words, prod_cws, shape, i) for i, words in enumerate(spaces)
    ]
    # a cell is a line of length one, so these are Hamming distances
    ham = {
        (i, j): 2 * xor_line_counts(spaces[i], spaces[j], (N, 1), 1)
        for i in range(m)
        for j in range(i + 1, m)
    }

    def at(table: np.ndarray, *axes: int) -> np.ndarray:
        """`table` with its leading axes at grid axes `axes`, for broadcasting."""
        return np.expand_dims(table, [k for k in range(m) if k not in axes])

    best: Optional[Fraction] = None
    step = max(1, (1 << 16) // (prod(grid[1:]) * prod_cws.shape[0]))
    for start in range(0, grid[0], step):
        block = slice(start, start + step)
        den = sum(at(d[block] if i == 0 else d, i) for i, d in enumerate(dist)).min(axis=-1)
        num = sum(at(h[block] if i == 0 else h, i, j) for (i, j), h in ham.items())
        num, den = np.broadcast_arrays(num, den)
        keep = num > 0  # fully agreeing tuples: both sides vanish
        if not keep.any():
            continue
        num, den = num[keep], den[keep]
        if not den.all():
            raise RuntimeError("a disagreeing tuple is at distance 0 from the product code")
        value, _ = _exact_ratio_min(num, den, m * N, denom)
        if best is None or value < best:
            best = value
    if best is None:
        raise ValueError("no non-degenerate tuple exists")
    return best


def agreement_ratio_sampled(
    tuple_words: Sequence[TensorWord], family: CodeFamily
) -> Optional[Fraction]:
    """Heuristic agreement ratio of one tuple on larger instances; None when
    the c_i all agree.

    The minimum over product codewords is taken over a few candidates only,
    so the value only estimates the tuple's ratio (each candidate
    upper-bounds the denominator's minimum): the product codewords that
    `decode_to_products` reaches from the c_i, in one batch, and
    `_systematic_reencode` of every c_i, which always exists.  Both sides are
    integer counts on the scale of `rho_a_exact`: sum_{i<j} 2 |c_i - c_j|
    cells over the least sum_i weights[i] |c_i - c|_i (`line_norm_scale`).
    Exact computation should be preferred whenever the instance allows it.
    """
    m, shape = family.m, family.shape
    N = prod(shape)
    words = np.stack([w.data for w in tuple_words])
    num = sum(2 * int(np.count_nonzero(words[i] ^ words[j])) for j in range(m) for i in range(j))
    if num == 0:
        return None
    decoded, reached = decode_to_products(words, family)
    candidates = np.concatenate([decoded[reached], _systematic_reencode(words, family)])
    flat, cands = words.reshape(m, N), candidates.reshape(-1, N)
    weights, denom = line_norm_scale(shape)
    den = sum(weights[i] * xor_line_counts(flat[i : i + 1], cands, shape, i) for i in range(m))
    return Fraction(num * denom, m * N * int(den.min()))


def rho_a_sampled(family: CodeFamily, samples: int, seed: int) -> Tuple[Fraction, int]:
    """(minimum, count) of the heuristic `agreement_ratio_sampled` over the
    tuples that have one, of `samples` tuples of uniform direction words
    drawn axis by axis from one PCG64 generator seeded with `seed`."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ratios = []
    for _ in range(samples):
        ratio = agreement_ratio_sampled(random_sum_codeword(family, rng)[1], family)
        if ratio is not None:
            ratios.append(ratio)
    if not ratios:
        raise ValueError("no non-degenerate tuple was sampled")
    return min(ratios), len(ratios)


def _systematic_reencode(words: np.ndarray, family: CodeFamily) -> np.ndarray:
    """Per word of a (W, n_1, ..., n_m) stack, the product codeword equal to
    it on the product of every factor's first k positions, an information set
    of a cyclic code: each axis of the stack is encoded by the code's
    systematic generator [I | A]."""
    arr = words[(slice(None),) + tuple(slice(0, code.dimension) for code in family.codes)]
    for axis, code in enumerate(family.codes):
        arr = linalg.apply_matrix_axis(family.field, code.systematic_bits, arr, axis + 1)
    return arr


# ----------------------------------------------------------------------
# Executable inequality checks.
# ----------------------------------------------------------------------

def composition_report(
    family: CodeFamily, k1: int, k2: int, lhs: Fraction, outer: Fraction, inner: Fraction,
    seed: Optional[int] = None, samples: Optional[int] = None,
) -> CheckReport:
    """The report of the composition check rho_r(T_m^k1) >= rho_r(T_m^k2) *
    rho_r(T_k2^k1) on the m-factor `family`, from given values: the exact
    constants, or, with a seed, the pool minima of the two m-dimensional
    sides, labeled as such."""
    m = family.m
    pool, minima = ("", "") if seed is None else ("_pool", " (pool minima)")
    return CheckReport(
        name="composition",
        instance=family.label(),
        quantities={
            f"rho_r_T{m}^{k1}{pool}": lhs,
            f"rho_r_T{m}^{k2}{pool}": outer,
            f"rho_r_T{k2}^{k1}": inner,
        },
        inequalities=((f"T{m}^{k1} >= T{m}^{k2} * T{k2}^{k1}{minima}", lhs, outer * inner),),
        mode="exact" if seed is None else "sampled",
        seed=seed,
        sample_count=samples,
    )


def check_composition(
    code: CyclicCode, m: int, k1: int, k2: int, samples: int, seed: int
) -> CheckReport:
    """Composition bound rho_r(T_m^k1) >= rho_r(T_m^k2) * rho_r(T_k2^k1) on
    a pool, reported by `composition_report`: the two m-dimensional sides are
    evaluated on the shared `_word_pool` (one `_exact_ratio` pass each; the
    pool minima replace the true minima, and the report says so), the inner
    constant exactly.  The exact check is `composition_report` on the three
    `rho_r_exact` values.
    """
    if not 1 <= k1 < k2 < m:
        raise ValueError(f"need 1 <= k1 < k2 < m, got k1={k1}, k2={k2}, m={m}")
    fam_m = CodeFamily.power(code, m)
    fam_k2 = CodeFamily.power(code, k2)
    inner = rho_r_exact(FlatTest.build(fam_k2.shape, k1), fam_k2)
    words = np.stack([word.data.reshape(-1) for _, word in _word_pool(fam_m, samples, seed)])
    prod_cws = product_codewords(fam_m)
    lhs_min = _exact_ratio(words, FlatTest.build(fam_m.shape, k1), fam_m, prod_cws)
    if lhs_min is None:
        raise ValueError("pool contained only codewords")
    # the same rows lie outside the product code, so this is not None either
    outer_min = _exact_ratio(words, FlatTest.build(fam_m.shape, k2), fam_m, prod_cws)
    return composition_report(fam_m, k1, k2, lhs_min, outer_min, inner, seed, samples)


def check_lemmas(code: CyclicCode, m: int) -> List[CheckReport]:
    """The exact inequality checks on C^m, C = `code`, in report order:
    robust_agreement (rho_r(T_m^1) >= rho_a/4, rho_a >= rho_r/(rho_r+1) delta(C)),
    bounds (rho_r <= 1, rho_a <= 2), hyperplane_bound (rho_r(T_k^(k-1)) on C^k >=
    delta^k/12) at k = 2 and, from m = 3 on, k = 3, `composition_report` and
    line_test_chain (`_line_test_chain` on the measured rho_r(T_2^1)).
    rho_a(C^m) is enumerated first, so that its size guards refuse before any
    word is built, and each rho_r(T_k^j) once, however many reports read it.
    """
    family = CodeFamily.power(code, m)
    ra = rho_a_exact(family)
    delta = Fraction(min_distance(code), code.length)

    @cache
    def flat_rr(k: int, j: int) -> Fraction:
        fam = CodeFamily.power(code, k)
        return rho_r_exact(FlatTest.build(fam.shape, j), fam)

    def hyperplane(k: int) -> CheckReport:
        rr_k = flat_rr(k, k - 1)
        return CheckReport(
            name="hyperplane_bound",
            instance=CodeFamily.power(code, k).label(),
            quantities={f"rho_r_T{k}^{k-1}": rr_k, "delta": delta},
            inequalities=((f"rho_r >= delta^{k}/12", rr_k, delta**k / 12),),
        )

    rr = flat_rr(m, 1)
    reports = [
        CheckReport(
            name="robust_agreement",
            instance=family.label(),
            quantities={"rho_r_T1": rr, "rho_a": ra, "min_delta": delta},
            inequalities=(
                ("rho_r >= rho_a/4", rr, ra / 4),
                ("rho_a >= rho_r/(rho_r+1)*min_delta", ra, rr / (rr + 1) * delta),
            ),
        ),
        CheckReport(
            name="bounds",
            instance=family.label(),
            quantities={"rho_r_T1": rr, "rho_a": ra},
            inequalities=(("rho_r <= 1", Fraction(1), rr), ("rho_a <= 2", Fraction(2), ra)),
        ),
        hyperplane(2),
    ]
    if m >= 3:
        rr21 = flat_rr(2, 1)
        M, chain = _line_test_chain(rr21, delta, m)
        reports += [
            hyperplane(3),
            composition_report(family, 1, 2, rr, flat_rr(m, 2), rr21),
            CheckReport(
                name="line_test_chain",
                instance=family.label(),
                quantities={"rho_r_T1": rr, "rho_r_T21": rr21, "delta": delta},
                inequalities=((f"rho_r_Tm1 >= rho_r_T21 * delta^{M} / 12^{m - 2}", rr, chain),),
            ),
        ]
    return reports


# ----------------------------------------------------------------------
# Pair proximity conformance for Reed-Solomon squares.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PairProximityReport:
    instance: str
    seed: int
    trials: int
    failures: int
    line_budget: int
    max_observed_delta: Fraction

    @property
    def holds(self) -> bool:
        return self.failures == 0


def check_pair_proximity(
    code: CyclicCode, trials: int, seed: int
) -> PairProximityReport:
    """Planted-pair conformance for rate-below-half Reed-Solomon squares.

    Each trial plants c in C (x) C and derives c1 (every column a codeword)
    and c2 (every row a codeword) by re-randomizing whole lines within a
    budget that keeps delta(c1, c2) <= (1/2 - k/n)^2.  Every trial is drawn
    first; the verifier then decodes all the c1 in one `decode_to_products`
    call, without knowledge of c, and must find for each a product codeword
    within 2*delta(c1, c2) of it.  At rates where
    the budget is zero the pairs are forced to coincide with the planted
    codeword and the decode path is exercised on exact members.
    """
    n, k = code.length, code.dimension
    if not code.is_rs_primitive or not 1 <= k or k >= n / 2:
        raise ValueError("requires a primitive RS code with k < n/2")
    bound = (Fraction(1, 2) - Fraction(k, n)) ** 2
    budget = int(bound * n * n) // n  # whole re-randomized lines within delta budget
    fam = CodeFamily.power(code, 2)
    rng = np.random.Generator(np.random.PCG64(seed))
    planted, diffs = [], []
    for _trial in range(trials):
        c = random_product_codeword(fam, rng)
        c1 = c.data.copy()
        c2 = c.data.copy()
        r1 = int(rng.integers(0, budget + 1))
        r2 = budget - r1
        for col in rng.choice(n, size=r1, replace=False) if r1 else []:
            c1[:, col] = code.random_codeword(rng)
        for row in rng.choice(n, size=r2, replace=False) if r2 else []:
            c2[row, :] = code.random_codeword(rng)
        diff = int(np.count_nonzero(c1 ^ c2))  # cells; delta(c1, c2) = diff / n^2
        if diff * bound.denominator <= bound.numerator * n * n:  # beyond the budget: a failure
            planted.append(c1)
            diffs.append(diff)
    words = np.array(planted, dtype=np.uint8).reshape(-1, n, n)
    decoded, reached = decode_to_products(words, fam)
    dists = np.count_nonzero(words ^ decoded, axis=(1, 2))
    failures = trials - len(planted) + sum(
        not ok or d > 2 * diff for ok, d, diff in zip(reached, dists.tolist(), diffs)
    )
    return PairProximityReport(
        instance=fam.label(),
        seed=seed,
        trials=trials,
        failures=failures,
        line_budget=budget,
        max_observed_delta=Fraction(max(diffs, default=0), n * n),
    )


# ----------------------------------------------------------------------
# Closed-form constants.
# ----------------------------------------------------------------------

def _line_test_chain(rr21: Fraction, delta: Fraction, m: int) -> Tuple[int, Fraction]:
    """(M, rr21 * delta^M / 12^(m-2)), M = (m-2)(m+3)/2: the line-test
    robustness floor of C^m that the hyperplane bounds give from rho_r(T_2^1)
    = rr21 on C^2 and delta(C) >= delta, one factor delta^k / 12 for each
    k = 3..m."""
    M = (m - 2) * (m + 3) // 2
    return M, rr21 * delta**M / 12 ** (m - 2)


@dataclass(frozen=True)
class DerivedConstants:
    m: int
    M: int
    alpha_r: Fraction
    alpha_a: Fraction
    alpha_exponent: int
    alpha_denominator: int

    def alpha(self, rho: Fraction) -> Fraction:
        """The line-test robustness floor rho^(M+1) / (4 * 12^(m-2)) for an
        expansion constant rho."""
        return rho**self.alpha_exponent / self.alpha_denominator


def derived_constants(m: int) -> DerivedConstants:
    """Constants of the rate-1/3 Reed-Solomon robustness chain.

    M accumulates one hyperplane-bound factor delta^k for each k = 3..m;
    alpha_r is `_line_test_chain` from the line-test robustness of the
    square (`_RHO_R_T21` = 1/72) with delta >= 2/3; alpha_a converts
    robustness to agreement testability.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    M, alpha_r = _line_test_chain(_RHO_R_T21, Fraction(2, 3), m)
    return DerivedConstants(
        m=m,
        M=M,
        alpha_r=alpha_r,
        alpha_a=Fraction(2, 3) * alpha_r / (1 + alpha_r),
        alpha_exponent=M + 1,
        alpha_denominator=4 * 12 ** (m - 2),
    )
