"""Product expansion: decompositions, exact tiny-scale constants, certificates.

A word c of the sum code C_1 (+) ... (+) C_m splits as c = a_1 + ... + a_m
with a_i in C^(i).  The expansion constant of the family is

    rho = min over nonzero c of  ||c|| / min over splittings of sum_i ||a_i||_i.

Upper-bound certificates rest on a covering argument: every support cell of
c is covered by a nonzero line of some part, so sum_i |a_i|_i is at least
the minimum number of axis-parallel lines covering supp(c).  When no line
meets the support twice, that minimum equals |supp(c)| exactly and the
certificate is tight; otherwise a greedy line-disjoint subset of the support
still gives a valid (possibly loose) lower bound on the cover size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .codes import CyclicCode
from .gf_poly import GF2m
from .tensor import (
    CodeFamily,
    TensorWord,
    _exact_ratio_min,
    direction_words,
    in_direction_code,
    line_norm_scale,
    line_weight,
    random_sum_codeword,
    sum_contains,
    xor_line_counts,
)

_AMBIGUITY_LIMIT = 1 << 24  # max splittings scanned per word, and in all by rho_exact
_SEARCH_BUDGET = 8  # pool words whose splittings rho_upper_sampled searches exhaustively


@dataclass(frozen=True)
class Decomposition:
    """A splitting c = a_1 + ... + a_m with a_i in C^(i)."""

    parts: Tuple[TensorWord, ...]

    def total(self) -> TensorWord:
        return sum(self.parts[1:], self.parts[0])

    def cost(self) -> Fraction:
        return sum(
            (line_weight(p, axis) for axis, p in enumerate(self.parts)),
            start=Fraction(0),
        )

    def validate(self, family: CodeFamily, target: TensorWord) -> None:
        if len(self.parts) != family.m:
            raise ValueError("wrong number of parts")
        for axis, (part, code) in enumerate(zip(self.parts, family.codes)):
            if not in_direction_code(part.data[None], code, axis)[0]:
                raise ValueError(f"part {axis} leaves C^({axis})")
        if self.total() != target:
            raise ValueError("parts do not sum to the target word")


# ----------------------------------------------------------------------
# The non-expanding witness word for rate-1/3 Reed-Solomon triples.
# ----------------------------------------------------------------------

def twisted_diagonal(field: GF2m, shape: Sequence[int], shifts: Sequence[int]) -> TensorWord:
    """The twisted diagonal T_s of the grid [n]^m: w^(s_1 x_1 + ... + s_(m-1) x_(m-1) mod n)
    where x_0 + ... + x_(m-1) = 0 mod n, else 0.  Every axis-parallel line meets
    its support once; only the n^(m-1) support cells are indexed.

    Its spectrum says when it is in the sum code of RS[n,k]^m, n = 2^degree - 1.
    Let F apply [w^(ij)] along every axis.  A codeword c_i = f(w^-i), deg f < k,
    of `rs_primitive` transforms to f's coefficients, so RS[n,k] is the words
    whose transform vanishes outside W = {0, ..., k-1}, and the sum code those
    whose F vanishes wherever no u_i lies in W.  With x_0 = -(x_1 + ... +
    x_(m-1)), F T_s(u) factors into geometric sums sum_x w^(x (s_i + u_i - u_0)),
    each n = 1 (n is odd) where u_i = u_0 - s_i, else 0: F T_s is 1 exactly at
    the n points (u, u - s_1, ..., u - s_(m-1)).  So T_s is in the sum code
    iff W, W + s_1, ..., W + s_(m-1) cover Z_n, as the witness shifts (-k, -2k)
    do at n = 3k."""
    n, rest = shape[0], np.indices(shape[1:])
    pow_table = np.array([field.omega_pow(e) for e in range(n)], dtype=np.uint8)
    data = np.zeros(shape, dtype=np.uint8)
    data[(-rest.sum(axis=0) % n, *rest)] = pow_table[sum(s * x for s, x in zip(shifts, rest)) % n]
    return TensorWord._adopt(field, data)


def counterexample_word(field: GF2m, k: int) -> TensorWord:
    """Rescaled diagonal word of support n^2 in the cube [n]^3, n = 2^m - 1.

    The entry at (i, j, l) is w^(-kj - 2kl) when i + j + l = 0 mod n and 0
    otherwise.  For the rate-1/3 Reed-Solomon triple (k = n/3) this word lies
    in the sum code while every axis-parallel line meets its support exactly
    once, which pins every splitting cost at 1 and the expansion constant at
    or below 1/n.
    """
    n = field.order - 1
    if n % 3 != 0:
        raise ValueError(f"n = {n} is not divisible by 3")
    if k != n // 3:
        raise ValueError(f"expected k = n/3 = {n // 3}, got {k}")
    return twisted_diagonal(field, (n,) * 3, (-k, -2 * k))


def rs_triple_witness(family: CodeFamily) -> Optional[TensorWord]:
    """`counterexample_word` when the family is the rate-1/3 primitive
    Reed-Solomon triple C^3, otherwise None."""
    n = family.codes[0].length
    rate_third = all(c.is_rs_primitive and c.length == n == 3 * c.dimension for c in family.codes)
    return counterexample_word(family.field, n // 3) if family.m == 3 and rate_third else None


def line_disjoint_support(word: TensorWord) -> bool:
    """True iff every axis-parallel line contains at most one support cell."""
    nz = word.data != 0
    return all(
        int(nz.sum(axis=axis).max(initial=0)) <= 1 for axis in range(len(word.shape))
    )


def line_cover_lower_bound(word: TensorWord) -> Tuple[int, bool]:
    """(L, tight): L lower-bounds the minimum axis-parallel line cover of
    the support.

    A set of support cells no two of which share a line forces one cover
    line per cell, so its size is a valid lower bound.  The greedy scan keeps
    every cell, and is exact (tight=True), precisely when the whole support
    is line-disjoint; that case is answered by `line_disjoint_support`
    without the scan.
    """
    if line_disjoint_support(word):
        return word.weight(), True
    cells = np.argwhere(word.data != 0)
    m = len(word.shape)
    chosen: List[Tuple[int, ...]] = []
    seen = [set() for _ in range(m)]
    for cell in map(tuple, cells.tolist()):
        keys = [cell[:ax] + cell[ax + 1 :] for ax in range(m)]
        if any(key in seen[ax] for ax, key in enumerate(keys)):
            continue
        chosen.append(cell)
        for ax, key in enumerate(keys):
            seen[ax].add(key)
    return len(chosen), False


class NotInSumCode(ValueError):
    """The word offered as a certificate witness is not a sum-code word."""


@dataclass(frozen=True)
class ExpansionCertificate:
    """Machine-checkable upper bound on the expansion constant of a family.

    For every splitting of the witness, sum_i ||a_i||_i >= L / max_i |L_i|,
    hence rho <= ||witness|| * max_i |L_i| / L.
    """

    witness: TensorWord
    instance: str
    bound: Fraction
    cover_lower_bound: int
    line_disjoint: bool
    tight: bool

    def text_blocks(self) -> Iterator[str]:
        """The v1 text in pieces: the head, the witness blocks, the end line."""
        head = [
            "product-expansion-certificate v1",
            f"instance {self.instance}",
            f"bound {self.bound.numerator}/{self.bound.denominator}",
            f"cover-lower-bound {self.cover_lower_bound}",
            f"line-disjoint {'true' if self.line_disjoint else 'false'}",
            f"tight {'true' if self.tight else 'false'}",
            "witness\n",
        ]
        yield "\n".join(head)
        yield from self.witness.text_blocks()  # ends in a newline
        yield "end\n"

    def to_text(self) -> str:
        return "".join(self.text_blocks())

    @staticmethod
    def from_text(text: str) -> "ExpansionCertificate":
        """Parse the v1 text; anything malformed raises `ValueError`."""
        start = text.find("\nwitness\n")
        head = [ln.strip() for ln in text[: max(start, 0)].strip().splitlines()]
        if not head or head[0] != "product-expansion-certificate v1":
            raise ValueError("not a certificate")
        stop = text.rfind("\nend")
        if stop <= start or text[stop + 1 :].strip() != "end":
            raise ValueError("malformed certificate: no end line")
        fields = dict(ln.partition(" ")[::2] for ln in head[1:] if ln)
        keys = ("instance", "bound", "cover-lower-bound", "line-disjoint", "tight")
        missing = [k for k in keys if k not in fields]
        if missing:
            raise ValueError(f"certificate lacks {', '.join(missing)}")
        if {fields["line-disjoint"], fields["tight"]} - {"true", "false"}:
            raise ValueError("line-disjoint and tight must be true or false")
        num, _, den = fields["bound"].partition("/")
        if int(den) == 0:
            raise ValueError("certificate bound has a zero denominator")
        return ExpansionCertificate(
            witness=TensorWord.from_text(text, start + len("\nwitness\n"), stop + 1),
            instance=fields["instance"],
            bound=Fraction(int(num), int(den)),
            cover_lower_bound=int(fields["cover-lower-bound"]),
            line_disjoint=fields["line-disjoint"] == "true",
            tight=fields["tight"] == "true",
        )


def certify_upper_bound(word: TensorWord, family: CodeFamily) -> ExpansionCertificate:
    """Build an expansion upper-bound certificate from a sum-code word."""
    if word.shape != family.shape:
        raise ValueError("word shape does not match the family")
    if word.weight() == 0:
        raise ValueError("zero word certifies nothing")
    if not sum_contains(word, family):
        raise NotInSumCode("word is not in the sum code; certificate would be vacuous")
    L, tight = line_cover_lower_bound(word)  # tight iff the support is line-disjoint
    lines_max = max(word.size // n for n in word.shape)
    bound = word.norm() * Fraction(lines_max, L)
    return ExpansionCertificate(
        witness=word,
        instance=family.label(),
        bound=bound,
        cover_lower_bound=L,
        line_disjoint=tight,
        tight=tight,
    )


def verify_certificate(cert: ExpansionCertificate, family: CodeFamily) -> bool:
    """Re-verify a certificate from scratch, independent of its producer.
    It must name `family`: its `instance` line is `family.label()`."""
    w = cert.witness
    if cert.instance != family.label() or w.shape != family.shape or w.field != family.field:
        return False
    if not sum_contains(w, family):
        return False
    L, tight = line_cover_lower_bound(w)  # tight iff the support is line-disjoint
    if L == 0 or (L, tight, tight) != (cert.cover_lower_bound, cert.tight, cert.line_disjoint):
        return False  # the zero word certifies nothing
    lines_max = max(w.size // n for n in w.shape)
    return cert.bound == w.norm() * Fraction(lines_max, L)


# ----------------------------------------------------------------------
# Decomposition search.
# ----------------------------------------------------------------------

class DecompositionSpace:
    """Linear parametrization of all splittings of sum-code words.

    The D rows of `basis` are the direction-code basis words (flattened); a
    coefficient vector beta stands for the splitting beta . basis.  One row
    reduction of [basis | I], its pivots sought among the N cells only,
    gives [T basis | T]: its first r rows hold `image`, the sum code's
    basis in reduced form with pivot cells `pivots`, and `coeffs`, with
    coeffs . basis = image; its other rows hold `kernel`, the vectors with
    kernel . basis = 0, whose combinations make up the ambiguity coset of
    any fixed splitting.  Splitting costs are integer line counts on the
    one scale of `line_norm_scale`: sum_i weights[i] |a_i|_i over `denom`.
    """

    def __init__(self, family: CodeFamily) -> None:
        self.family = family
        shape = family.shape
        self.N = prod(shape)
        cols: List[np.ndarray] = []
        self.slices: List[slice] = []
        start = 0
        for axis, code in enumerate(family.codes):
            basis = _direction_basis(code, shape, axis)
            cols.append(basis)
            self.slices.append(slice(start, start + basis.shape[0]))
            start += basis.shape[0]
        self.basis = np.concatenate(cols, axis=0)  # (D, N)
        self.D = self.basis.shape[0]
        augmented = np.concatenate([self.basis, np.eye(self.D, dtype=np.uint8)], axis=1)
        R, self.pivots = linalg.rref(family.field, augmented, self.N)
        r = len(self.pivots)
        self.image, self.coeffs, self.kernel = R[:r, : self.N], R[:r, self.N :], R[r:, self.N :]
        self.weights, self.denom = line_norm_scale(shape)

    @property
    def ambiguity_dim(self) -> int:
        return self.kernel.shape[0]

    def particular(self, word: TensorWord) -> Optional[np.ndarray]:
        """One coefficient vector with beta . basis = word, or None: `image`
        is the identity at `pivots`, so msg = the word's cells there is the
        only combination of it that can equal the word, and msg . coeffs
        splits it."""
        if word.shape != self.family.shape:
            raise ValueError("word shape does not match the family")
        field, flat = self.family.field, word.data.reshape(1, -1)
        msg = flat[:, self.pivots]
        if not np.array_equal(linalg.matmul(field, msg, self.image), flat):
            return None
        return linalg.matmul(field, msg, self.coeffs)[0]

    def axis_parts(self, coeffs: np.ndarray) -> List[np.ndarray]:
        """Per axis, the flat (W, N) parts of the (W, D) coefficient rows."""
        family = self.family
        return [
            direction_words(code, family.shape, axis, coeffs[:, sl])
            for axis, (code, sl) in enumerate(zip(family.codes, self.slices))
        ]

    def parts_from_coeffs(self, beta: np.ndarray) -> Tuple[TensorWord, ...]:
        field, shape = self.family.field, self.family.shape
        return tuple(TensorWord(field, p[0].reshape(shape)) for p in self.axis_parts(beta[None]))

    def cost_table(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """(R, C) integer costs, over `denom`, of the splittings with
        coefficients rows[r] ^ cols[c]: the parts are linear in the
        coefficients, so each axis is one XOR line-count table."""
        table = np.zeros((rows.shape[0], cols.shape[0]), dtype=np.int64)
        for axis, (r, c) in enumerate(zip(self.axis_parts(rows), self.axis_parts(cols))):
            table += self.weights[axis] * xor_line_counts(r, c, self.family.shape, axis)
        return table

    def search_min(self, base: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """Exhaustive scan of the ambiguity coset for the cheapest splitting.

        Returns (coefficients, cost_numerator, cost_denominator); ties go to
        the lexicographically smallest coefficient vector: the table's rows
        are `base` plus the combinations of the first K // 2 kernel vectors,
        its columns those of the rest, so its flattened order is lexicographic.
        """
        field = self.family.field
        q, K = field.order, self.ambiguity_dim
        if q**K > _AMBIGUITY_LIMIT:
            raise ValueError("ambiguity space too large for exhaustive search")
        K1 = K // 2
        first = linalg.enumerate_vectors(q, K1)
        second = linalg.enumerate_vectors(q, K - K1)
        rows = base[None] ^ linalg.matmul(field, first, self.kernel[:K1])
        table = self.cost_table(rows, linalg.matmul(field, second, self.kernel[K1:]))
        r, c = divmod(int(np.argmin(table)), table.shape[1])
        return np.concatenate([first[r], second[c]]), int(table[r, c]), self.denom


def _space_feasible(family: CodeFamily) -> bool:
    """Whether building the splitting parametrization is tractable.

    The matrix has N rows and sum_i k_i N / n_i columns; both are checked
    before any allocation so oversized instances fall back to
    certificate-only sampling.
    """
    N = prod(family.shape)
    D = sum(c.dimension * (N // c.length) for c in family.codes)
    return N <= 2048 and D <= 512


def _direction_basis(code: CyclicCode, shape: Sequence[int], axis: int) -> np.ndarray:
    """Basis of C^(axis) as flattened words, in the row order of
    `direction_words`: the words of the identity coefficient rows."""
    D = prod(shape) // shape[axis] * code.dimension
    return direction_words(code, shape, axis, np.eye(D, dtype=np.uint8))


def min_decomposition(
    word: TensorWord,
    family: CodeFamily,
    space: Optional[DecompositionSpace] = None,
) -> Tuple[Decomposition, Fraction]:
    """Minimum-cost splitting by an exhaustive scan of the ambiguity coset;
    ties resolve to the lexicographically smallest coefficients over
    `space.kernel`."""
    if space is None:
        space = DecompositionSpace(family)
    base = space.particular(word)
    if base is None:
        raise ValueError("word is not in the sum code; no decomposition exists")
    coeffs, cost_num, denom = space.search_min(base)
    beta = base ^ linalg.matmul(family.field, coeffs[None], space.kernel)[0]
    cost = Fraction(cost_num, denom)
    dec = Decomposition(space.parts_from_coeffs(beta))
    dec.validate(family, word)
    if dec.cost() != cost:
        raise RuntimeError(f"splitting costs {dec.cost()}, the coset scan reported {cost}")
    return dec, cost


def rho_exact(family: CodeFamily) -> Fraction:
    """Exact expansion constant by full enumeration (tiny instances).

    Word msg . image has the splittings msg . coeffs + kernel combinations,
    linear in the message (`DecompositionSpace`), so one `cost_table` of all
    q^D coefficient vectors (D direction-code basis words; refused above
    `_AMBIGUITY_LIMIT`) gives every word's exact cost as a row minimum.  The
    minimizing word is split again by `min_decomposition`, which validates,
    and must cost the same.
    """
    field, N = family.field, prod(family.shape)
    D = sum(c.dimension * (N // c.length) for c in family.codes)  # before the (D, N) basis is built
    if field.degree * D >= _AMBIGUITY_LIMIT.bit_length():  # q^D > limit, q = 2^degree
        raise ValueError(f"rho_exact would scan {field.order}^{D} splittings; too large")
    space = DecompositionSpace(family)
    msgs = linalg.enumerate_vectors(field.order, space.image.shape[0])
    kernel_combos = linalg.enumerate_vectors(field.order, space.ambiguity_dim)
    costs = space.cost_table(
        linalg.matmul(field, msgs, space.coeffs),
        linalg.matmul(field, kernel_combos, space.kernel),
    ).min(axis=1)
    if not costs.any():
        raise ValueError("sum code is trivial; expansion constant undefined")
    words = linalg.matmul(field, msgs, space.image)
    best, idx = _exact_ratio_min(np.count_nonzero(words, axis=1), costs, space.N, space.denom)
    want = Fraction(int(costs[idx]), space.denom)
    _, cost = min_decomposition(TensorWord(field, words[idx].reshape(family.shape)), family, space)
    if cost != want:
        raise RuntimeError(f"the cost table gives {want}, the splitting costs {cost}")
    return best


# ----------------------------------------------------------------------
# Sampled upper bounds.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SampledExpansionReport:
    instance: str
    seed: int
    sample_count: int
    certified_bound: Optional[Fraction]
    heuristic_min: Optional[Fraction]
    exact_split_bound: Optional[Fraction]  # min of certificates and exact word ratios
    exact_split_words: int  # pool words whose splittings were searched exhaustively


def rho_upper_sampled(
    family: CodeFamily,
    samples: int,
    seed: int,
) -> SampledExpansionReport:
    """Sampled upper bound on the expansion constant over a pool: the
    witness (`rs_triple_witness`), if any, and the nonzero ones of `samples`
    sum-code words with their known splittings.

    `certified_bound` is the least certificate ratio (each a valid upper
    bound on rho).  The first `_SEARCH_BUDGET` words are searched
    exhaustively when the ambiguity space is small; their exact ratios bound
    rho too, and `exact_split_bound` is the least of these and the
    certificates.  `heuristic_min` is the least of the exact ratios and the
    other words' known-splitting ratios (a known splitting only upper-bounds
    the cost; a searched word's exact cost is at most its known one's).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.PCG64(seed))
    witness = rs_triple_witness(family)
    pool: List[Tuple[TensorWord, Optional[Decomposition]]] = []
    if witness is not None:
        pool.append((witness, None))
    for _ in range(samples):
        word, parts = random_sum_codeword(family, rng)
        if word.weight() > 0:  # the zero word certifies nothing
            known = Decomposition(tuple(parts))
            known.validate(family, word)
            pool.append((word, known))
    space: Optional[DecompositionSpace] = None
    searched = 0
    if _space_feasible(family):
        space = DecompositionSpace(family)
        if family.field.order**space.ambiguity_dim <= _AMBIGUITY_LIMIT:
            searched = min(_SEARCH_BUDGET, len(pool))
    certified = [certify_upper_bound(word, family).bound for word, _ in pool]
    split = [word.norm() / min_decomposition(word, family, space)[1] for word, _ in pool[:searched]]
    split += [word.norm() / known.cost() for word, known in pool[searched:] if known is not None]
    return SampledExpansionReport(
        instance=family.label(),
        seed=seed,
        sample_count=samples,
        certified_bound=min(certified, default=None),
        heuristic_min=min(split, default=None),
        exact_split_bound=min(certified + split[:searched], default=None),
        exact_split_words=searched,
    )
