"""Self-contained brute-force oracles for the tiny-instance constants.

Everything here is deliberately independent of the main package: words are
tuples of ints, fields are literal tables, and every quantity is computed
straight from its definition by full enumeration.  Running the module prints
the frozen fixture table used by the acceptance tests.

    python tests/oracles.py

The exceptions are the membership references `orc_sum_contains` and
`orc_product_contains`, the Reed-Solomon evaluation vectors
`low_degree_evaluation_vectors`, the Berlekamp-Welch decoder
`orc_bounded_distance_decode`, the row-layout Berlekamp-Massey
`orc_berlekamp_massey`, the column-loop product `orc_matmul`, the
full-grid twisted diagonal `orc_twisted_diagonal` and the certificate
writer `orc_tensor_text`,
which have to reach words far beyond full enumeration: they work on numpy arrays, but still build their own field
table and parity-check matrices from nothing but the field's modulus and
each code's check polynomial.  The decoder alone takes two package
routines, the row reduction `prodexp.linalg.rref`, from which it solves its
system, and the polynomial division `prodexp.gf_poly.unipoly_divmod`.
`orc_dual` builds the dual of a package `CyclicCode` as another one, with
that division.  `sum_code_words` lists a sum code from the `rref` of the
basis words of the package's own `DecompositionSpace`, for tests
that need every word of it, `brute_nearest` scans the codewords that a package code
lists, one word at a time, and `delta_to_product` scans those of a
package product code, from `prodexp.tensor.product_codewords`.
`full_space_rho_r` scores every word of a package family with the
package's own ratio kernel, to check its reduced scan.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import prod

import numpy as np

from prodexp import linalg
from prodexp.codes import CyclicCode
from prodexp.expansion import DecompositionSpace
from prodexp.gf_poly import unipoly_divmod, unipoly_trim, x_pow_n_minus_1
from prodexp.tensor import product_codewords
from prodexp.testability import _exact_ratio

# GF(2): elements {0,1}, add = xor, mul = and.
GF2_MUL = ((0, 0), (0, 1))

# GF(4) with modulus x^2 + x + 1: elements {0, 1, w=2, w^2=3}.
# Hand-derived: w*w = w+1 = 3, w*w^2 = w^3 = 1, w^2*w^2 = w^4 = w = 2.
GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


def orc_cells(shape):
    return list(itertools.product(*(range(n) for n in shape)))


def orc_lines(shape, axis):
    """Each line is the ordered tuple of its cell indices."""
    ranges = [range(n) for i, n in enumerate(shape) if i != axis]
    lines = []
    for fixed in itertools.product(*ranges):
        line = []
        for s in range(shape[axis]):
            cell = list(fixed)
            cell.insert(axis, s)
            line.append(tuple(cell))
        lines.append(tuple(line))
    return lines


def orc_cyclic_code(mul, q, n, check):
    """All words w with sum_j check[j] * w[(d-j) mod n] = 0 for every d."""
    code = []
    for w in itertools.product(range(q), repeat=n):
        ok = True
        for d in range(n):
            acc = 0
            for j, pj in enumerate(check):
                if pj:
                    acc ^= mul[pj][w[(d - j) % n]]
            if acc:
                ok = False
                break
        if ok:
            code.append(w)
    return code


def orc_direction_space(shape, axis, code):
    """All words of C^(axis), assembled line by line."""
    lines = orc_lines(shape, axis)
    cells = orc_cells(shape)
    pos = {c: i for i, c in enumerate(cells)}
    words = []
    for combo in itertools.product(code, repeat=len(lines)):
        w = [0] * len(cells)
        for line, cw in zip(lines, combo):
            for cell, v in zip(line, cw):
                w[pos[cell]] = v
        words.append(tuple(w))
    return words


def orc_product_code(shape, codes):
    """All words whose every line in every direction is in the axis code:
    the stacks of slices along axis 0, each a word of the product code of
    the other axes, whose every axis-0 line is in codes[0]."""
    if len(shape) == 1:
        return sorted(codes[0])
    inner = orc_product_code(shape[1:], codes[1:])
    code0 = set(codes[0])
    size = prod(shape[1:])
    out = []
    for stack in itertools.product(inner, repeat=shape[0]):
        if all(tuple(s[j] for s in stack) in code0 for j in range(size)):
            out.append(tuple(v for s in stack for v in s))
    return sorted(out)


def orc_line_norm(shape, word, axis):
    cells = orc_cells(shape)
    pos = {c: i for i, c in enumerate(cells)}
    lines = orc_lines(shape, axis)
    nonzero = sum(1 for line in lines if any(word[pos[c]] for c in line))
    return Fraction(nonzero, len(lines))


def orc_sum_code_with_costs(shape, codes):
    """Map from each sum-code word to its minimum splitting cost."""
    m = len(codes)
    spaces = [orc_direction_space(shape, ax, c) for ax, c in enumerate(codes)]
    best = {}
    for parts in itertools.product(*spaces):
        total = tuple(
            _xor_all(parts, i) for i in range(len(parts[0]))
        )
        cost = sum(
            (orc_line_norm(shape, parts[ax], ax) for ax in range(m)),
            start=Fraction(0),
        )
        if total not in best or cost < best[total]:
            best[total] = cost
    return best


def _xor_all(parts, i):
    acc = 0
    for p in parts:
        acc ^= p[i]
    return acc


def orc_rho(shape, codes):
    N = prod(shape)
    best = None
    for word, cost in orc_sum_code_with_costs(shape, codes).items():
        wt = sum(1 for v in word if v)
        if wt == 0:
            continue
        ratio = Fraction(wt, N) / cost
        if best is None or ratio < best:
            best = ratio
    return best


def orc_delta(word, codewords):
    n = len(word)
    best = min(sum(1 for a, b in zip(word, cw) if a != b) for cw in codewords)
    return Fraction(best, n)


def brute_nearest(word, code):
    """Per-word reference for `prodexp.codes.nearest_lines`: the nearest
    codeword of a package `CyclicCode` and its distance, by a scan of all its
    codewords.  Ties go to the lexicographically smallest codeword, whatever
    order `codewords()` lists them in."""
    w = np.asarray(word, dtype=np.uint8)
    cws = code.codewords()
    dists = np.count_nonzero(cws ^ w[None, :], axis=1)
    d = int(dists.min())
    return np.array(min(map(tuple, cws[dists == d].tolist())), dtype=np.uint8), d


def delta_to_product(word, family):
    """Normalized distance from a package `TensorWord` to the product code
    of a package `CodeFamily`, by a scan of all its codewords."""
    dists = np.count_nonzero(product_codewords(family) ^ word.data.reshape(1, -1), axis=1)
    return Fraction(int(dists.min()), word.size)


def orc_flats(shape, k):
    """(cell-index tuple, size) for every k-flat; weights are size/total."""
    m = len(shape)
    cells = orc_cells(shape)
    pos = {c: i for i, c in enumerate(cells)}
    flats = []
    for axes in itertools.combinations(range(m), k):
        fixed_axes = [i for i in range(m) if i not in axes]
        for coords in itertools.product(*(range(shape[i]) for i in fixed_axes)):
            members = []
            for free in itertools.product(*(range(shape[i]) for i in axes)):
                cell = [0] * m
                for i, v in zip(fixed_axes, coords):
                    cell[i] = v
                for i, v in zip(axes, free):
                    cell[i] = v
                members.append(pos[tuple(cell)])
            flats.append((tuple(members), axes))
    return flats


def orc_flat_test(shape, codes, k):
    """The k-flats of `orc_flats`, and per free-axis set the product code
    of the restricted family."""
    flats = orc_flats(shape, k)
    sub_codes = {}
    for _, axes in flats:
        if axes not in sub_codes:
            sub_codes[axes] = orc_product_code(tuple(shape[i] for i in axes), [codes[i] for i in axes])
    return flats, sub_codes


def orc_word_ratio(word, prod_code, flats, sub_codes):
    """Exact robustness ratio of one word under the flat test of
    `orc_flat_test`; None for a codeword."""
    d = orc_delta(word, prod_code)
    if d == 0:
        return None
    acc = 0
    for members, axes in flats:
        sub = tuple(word[i] for i in members)
        acc += min(sum(1 for a, b in zip(sub, cw) if a != b) for cw in sub_codes[axes])
    return Fraction(acc, sum(len(members) for members, _ in flats)) / d


def orc_rho_r(shape, codes, k):
    """Exact robustness of the k-flat test over the full word space."""
    q = max(max(cw, default=0) for code in codes for cw in code) + 1
    q = max(q, 2)
    N = prod(shape)
    prod_code = orc_product_code(shape, codes)
    flats, sub_codes = orc_flat_test(shape, codes, k)
    best = None
    best_word = None
    for word in itertools.product(range(q), repeat=N):
        ratio = orc_word_ratio(word, prod_code, flats, sub_codes)
        if ratio is not None and (best is None or ratio < best):
            best, best_word = ratio, word
    return best, best_word


def orc_tuple_ratio(shape, tup, prod_code):
    """Exact agreement ratio of one direction-word tuple; None when all agree."""
    m = len(tup)
    N = prod(shape)
    pair = Fraction(0)
    for i in range(m):
        for j in range(m):
            diff = sum(1 for a, b in zip(tup[i], tup[j]) if a != b)
            pair += Fraction(diff, N)
    num = pair / (m * m)
    if num == 0:
        return None
    den = None
    for cw in prod_code:
        s = Fraction(0)
        for i in range(m):
            delta_word = tuple(a ^ b for a, b in zip(tup[i], cw))
            s += orc_line_norm(shape, delta_word, i)
        s /= m
        if den is None or s < den:
            den = s
    return num / den


def orc_rho_a(shape, codes):
    """Exact agreement testability over all direction-word tuples."""
    spaces = [orc_direction_space(shape, ax, c) for ax, c in enumerate(codes)]
    prod_code = orc_product_code(shape, codes)
    best = None
    for tup in itertools.product(*spaces):
        ratio = orc_tuple_ratio(shape, tup, prod_code)
        if ratio is not None and (best is None or ratio < best):
            best = ratio
    return best


@lru_cache(maxsize=None)
def orc_mul_table(degree, modulus):
    """Multiplication table of GF(2^degree) by carry-less shift and add."""
    q = 1 << degree
    table = np.zeros((q, q), dtype=np.uint8)
    for a in range(q):
        for b in range(q):
            p, x, y = 0, a, b
            while y:
                if y & 1:
                    p ^= x
                x <<= 1
                if x & q:
                    x ^= modulus
                y >>= 1
            table[a, b] = p
    return table


def orc_matmul(mul, A, B):
    """A B over the field of multiplication table `mul`, one table gather
    per column of A: the column loop that `linalg.matmul` replaced."""
    A = np.asarray(A, dtype=np.uint8)
    B = np.asarray(B, dtype=np.uint8)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.uint8)
    for t in range(A.shape[1]):
        out ^= mul[A[:, t][:, None], B[t][None, :]]
    return out


def orc_parity_matrix(n, check):
    """(n - k) x n generator matrix of the dual code: the shifts
    x^j * x^k p(1/x), j < n - k, of the check polynomial's reciprocal.

    Row j dotted with a word is coefficient k + j of p(x) a(x) mod x^n - 1,
    and these rows are independent because p has a nonzero leading term."""
    k = len(check) - 1
    H = np.zeros((n - k, n), dtype=np.uint8)
    for j in range(n - k):
        for i in range(k + 1):
            H[j, (i + j) % n] = check[k - i]
    return H


def orc_dual(code):
    """The dual of a package `CyclicCode`, again a cyclic code.

    The reciprocal x^k p(1/x) of the check polynomial p, made monic,
    generates the dual, so the dual's check polynomial is (x^n - 1) divided
    by it."""
    field, n = code.field, code.length
    reciprocal = unipoly_trim(tuple(reversed(code.check_coeffs)))
    lead = field.inv(reciprocal[-1])
    generator = tuple(field.mul(lead, c) for c in reciprocal)
    check, rem = unipoly_divmod(field, x_pow_n_minus_1(field, n), generator)
    assert not rem, "the reciprocal of a check polynomial divides x^n - 1"
    return CyclicCode(field, n, check)


def orc_axis_syndrome(arr, axis, code, mul):
    """`arr` with `axis` contracted with the code's dual generator matrix."""
    H = orc_parity_matrix(code.length, code.check_coeffs)
    moved = np.moveaxis(arr, axis, -1)
    out = np.zeros(moved.shape[:-1] + (H.shape[0],), dtype=np.uint8)
    for r, c in zip(*np.nonzero(H)):
        out[..., r] ^= mul[H[r, c]][moved[..., c]]
    return np.moveaxis(out, -1, axis)


def orc_sum_syndrome(words, family):
    """Syndrome tensor of a (W, n_1, ..., n_m) array of words: every axis
    contracted with its code's dual generator matrix.  Its kernel is the
    dual of the tensor product of the duals, that is, the sum code."""
    field = family.field
    mul = orc_mul_table(field.degree, field.modulus)
    syn = np.asarray(words, dtype=np.uint8)
    for axis, code in enumerate(family.codes, start=1):
        syn = orc_axis_syndrome(syn, axis, code, mul)
    return syn


def orc_sum_contains(words, family):
    """Sum-code membership of every word of a (W, n_1, ..., n_m) array."""
    return ~orc_sum_syndrome(words, family).reshape(len(words), -1).any(axis=1)


def orc_product_contains(word, family):
    """Product-code membership of one (n_1, ..., n_m) array: each axis alone
    contracted with its code's dual generator matrix gives zero."""
    field = family.field
    mul = orc_mul_table(field.degree, field.modulus)
    arr = np.asarray(word, dtype=np.uint8)
    return all(
        not orc_axis_syndrome(arr, axis, code, mul).any()
        for axis, code in enumerate(family.codes)
    )


def low_degree_evaluation_vectors(field, k):
    """Evaluation vectors at (1, w^-1, ..., w^(1-n)) of every polynomial of
    degree < k, as a (q^k, n) array, n = q - 1 and w the class of x.

    Row r holds (p(1), p(w^-1), ..., p(w^(1-n))) where the coefficients of p,
    lowest degree first, are the base-q digits of r, most significant first.
    These vectors are exactly the codewords of the primitive RS code whose
    check polynomial has roots 1, w, .., w^(k-1)."""
    q = 1 << field.degree
    n = q - 1
    mul = orc_mul_table(field.degree, field.modulus)
    powers = [1]  # w^0, w^1, ..., w^(n-1)
    for _ in range(n - 1):
        powers.append(int(mul[powers[-1], 2 % q]))
    # V[j, i] = (w^-i)^j = w^(-ij mod n)
    V = np.array([[powers[(-i * j) % n] for i in range(n)] for j in range(k)], dtype=np.uint8)
    coeffs = np.indices((q,) * k, dtype=np.uint8).reshape(k, -1).T
    out = np.zeros((len(coeffs), n), dtype=np.uint8)
    for j in range(k):
        out ^= mul[coeffs[:, j][:, None], V[j][None, :]]
    return out


def orc_twisted_diagonal(field, shape, shifts):
    """The twisted diagonal T_s of the grid [n]^m as a uint8 array, built
    over the whole grid from `np.indices(shape)` where
    `prodexp.expansion.twisted_diagonal` indexes the support cells only:
    w^(s_1 x_1 + ... + s_(m-1) x_(m-1) mod n) where x_0 + ... + x_(m-1)
    = 0 mod n, else 0, with w the class of x (1 in GF(2)) and its powers
    taken from the oracle's own multiplication table."""
    n, q = shape[0], 1 << field.degree
    mul = orc_mul_table(field.degree, field.modulus)
    powers = [1]  # w^0, w^1, ..., w^(n-1)
    for _ in range(n - 1):
        powers.append(int(mul[powers[-1], 2 if q > 2 else 1]))
    idx = np.indices(shape, dtype=np.int64)
    diag_mask = (sum(idx) % n) == 0
    exps = sum((s * idx[j]) % n for j, s in enumerate(shifts, start=1)) % n
    return np.where(diag_mask, np.array(powers, dtype=np.uint8)[exps], 0).astype(np.uint8)


def orc_tensor_text(word):
    """The text form of a package `TensorWord` by one gather of three bytes
    per cell (high hex digit or NUL below 16, low hex digit, space), a
    newline in place of each row's last space, and the NULs dropped by a
    boolean compaction."""
    table = np.array([[*f"{v:x}".rjust(2, "\0").encode(), 32] for v in range(256)], np.uint8)
    cells = table[word.data.reshape(-1, word.shape[-1])]
    cells[:, -1, 2] = ord("\n")
    chars = cells.reshape(-1)
    head = "shape " + " ".join(str(n) for n in word.shape) + f" field 2^{word.field.degree}\n"
    return head + chars[chars != 0].tobytes().decode("ascii")


def full_space_rho_r(test, family):
    """rho_r of a package `FlatTest` on a package family from all q^N words,
    2^18 at a time through `prodexp.testability._exact_ratio`, one word per
    column, where `rho_r_exact` scores one word per coset of the product code."""
    N, q = prod(family.shape), family.field.order
    prod_cws = product_codewords(family)
    chunk = 1 << 18
    words = (linalg.enumerate_vectors(q, N, s, min(s + chunk, q**N)) for s in range(0, q**N, chunk))
    ratios = (_exact_ratio(w.T, test, family, prod_cws) for w in words)
    return min(r for r in ratios if r is not None)


@lru_cache(maxsize=None)
def _orc_rs_powers(degree, modulus, k):
    """(mul table, radius e, points x_i = w^-i, powers x_i^u for
    u < max(e + k, e + 1)) of the Berlekamp-Welch decoder for RS[n, k]."""
    mul = orc_mul_table(degree, modulus)
    n = (1 << degree) - 1
    e = (n - k) // 2
    w = [1]  # w^0, w^1, ..., w^(n-1)
    for _ in range(n - 1):
        w.append(int(mul[w[-1], 2 % (n + 1)]))
    pts = np.array([w[-i % n] for i in range(n)], dtype=np.uint8)
    powers = np.ones((n, max(e + k, e + 1)), dtype=np.uint8)
    for u in range(1, powers.shape[1]):
        powers[:, u] = mul[powers[:, u - 1], pts]
    return mul, e, pts, powers


def orc_bounded_distance_decode(code, word):
    """Berlekamp-Welch unique decoding of one word of a primitive RS code
    within radius e = floor((n - k)/2): (codeword, distance), or None when no
    codeword lies that close.

    Solves for an error locator E (monic, degree e) and a product polynomial
    Q (degree < e + k) with Q(x_i) = r_i E(x_i) at every evaluation point,
    then recovers the message polynomial as Q / E.  When a codeword lies
    within e, every solution gives its message polynomial, a codeword's own
    included."""
    field, n, k = code.field, code.length, code.dimension
    w = np.asarray(word, dtype=np.uint8)
    mul, e, pts, powers = _orc_rs_powers(field.degree, field.modulus, k)
    # unknowns: E_0..E_{e-1}, Q_0..Q_{e+k-1}; row i is the constraint at x_i
    A = np.zeros((n, 2 * e + k), dtype=np.uint8)
    A[:, :e] = mul[w[:, None], powers[:, :e]]
    A[:, e:] = powers[:, : e + k]
    # one solution, free unknowns 0, from the reduced form of [A | b]
    R, pivots = linalg.rref(field, np.concatenate([A, mul[w, powers[:, e]][:, None]], axis=1))
    if A.shape[1] in pivots:
        return None  # a pivot in the b column: no solution
    sol = np.zeros(A.shape[1], dtype=np.uint8)
    sol[pivots] = R[: len(pivots), -1]
    E = [int(v) for v in sol[:e]] + [1]
    f, rem = unipoly_divmod(field, [int(v) for v in sol[e:]], E)
    if rem or len(f) > k:
        return None
    cw = np.zeros(n, dtype=np.uint8)
    for c in reversed(f):  # Horner at every point
        cw = mul[cw, pts] ^ c
    dist = int(np.count_nonzero(cw ^ w))
    return (cw, dist) if dist <= e else None


def orc_berlekamp_massey(table, inv, S):
    """Shortest LFSR (connection polynomial C, length L) of every row of a
    (W, N) syndrome array, N steps of Massey's algorithm on all rows at once.
    The branch on the discrepancy d becomes a mask.  A product a b is a
    gather from the raveled multiplication table at a q + b, the syndromes
    reversed and scaled by q once.  x^m B is kept as it is: each step
    multiplies it by x, after replacing it by C on the rows where L grows.
    At step r it has degree at most r + 1, and so has C after the step, so
    the step touches columns 0 .. r + 1 only.  Returns C as a (W, N + 1)
    coefficient array and L.

    The row layout of the package's `codes._berlekamp_massey`, kept as its
    reference: every step reads columns 0 .. r + 1 of every row."""
    W, N = S.shape
    shift = table.shape[0].bit_length() - 1
    mul = table.reshape(-1)
    rev = S[:, ::-1].astype(np.intp) << shift  # S_r, ..., S_0 at rev[:, N - 1 - r :]
    C = np.zeros((W, N + 1), dtype=np.uint8)
    C[:, 0] = 1
    xB = np.zeros((W, N + 2), dtype=np.uint8)  # x^m B, with B = 1 and m = 1 first
    xB[:, 1] = 1
    L = np.zeros(W, dtype=np.int64)
    b = np.ones(W, dtype=np.intp)
    for r in range(N):
        d = np.bitwise_xor.reduce(mul[rev[:, N - 1 - r :] | C[:, : r + 1]], axis=1)
        grow = (d != 0) & (2 * L <= r)
        factor = mul[(d.astype(np.intp) << shift) | inv[b]]
        update = mul[(factor[:, None].astype(np.intp) << shift) | xB[:, : r + 2]]
        xB[:, 1 : r + 3] = np.where(grow[:, None], C[:, : r + 2], xB[:, : r + 2])
        C[:, : r + 2] ^= update  # d = 0: no change
        L = np.where(grow, r + 1 - L, L)
        b = np.where(grow, d, b)
    return C, L


def sum_code_words(family, space=None):
    """All words of the sum code of a `prodexp.tensor.CodeFamily`, flattened
    to (count, N)."""
    if space is None:
        space = DecompositionSpace(family)
    field = family.field
    R, pivots = linalg.rref(field, space.basis)
    image = R[: len(pivots)]
    msgs = linalg.enumerate_vectors(field.order, image.shape[0])
    return linalg.matmul(field, msgs, image)


REP2 = [(0, 0), (1, 1)]


def rep2_codes(m):
    return [REP2] * m


def gf4_rep3():
    return orc_cyclic_code(GF4_MUL, 4, 3, (1, 1))


def compute_fixtures():
    fixtures = {}
    fixtures["rho_rep2_m2"] = orc_rho((2, 2), rep2_codes(2))
    fixtures["rho_rep2_m3"] = orc_rho((2, 2, 2), rep2_codes(3))
    r, w = orc_rho_r((2, 2), rep2_codes(2), 1)
    fixtures["rho_r_rep2_m2_T21"] = r
    fixtures["rho_r_rep2_m2_T21_witness"] = w
    r, w = orc_rho_r((2, 2, 2), rep2_codes(3), 1)
    fixtures["rho_r_rep2_m3_T31"] = r
    fixtures["rho_r_rep2_m3_T31_witness"] = w
    r, w = orc_rho_r((2, 2, 2), rep2_codes(3), 2)
    fixtures["rho_r_rep2_m3_T32"] = r
    fixtures["rho_r_rep2_m3_T32_witness"] = w
    fixtures["rho_a_rep2_m2"] = orc_rho_a((2, 2), rep2_codes(2))
    fixtures["rho_a_rep2_m3"] = orc_rho_a((2, 2, 2), rep2_codes(3))
    c31 = gf4_rep3()
    fixtures["rho_gf4_31_m2"] = orc_rho((3, 3), [c31, c31])
    fixtures["rho_a_gf4_31_m2"] = orc_rho_a((3, 3), [c31, c31])
    return fixtures


if __name__ == "__main__":
    for key, val in compute_fixtures().items():
        print(f"{key} = {val!r}")
