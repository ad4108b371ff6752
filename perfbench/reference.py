"""Reference values the benchmark checks the program against, made apart
from the program: none of this imports `prodexp`.

- `witness(t)`: the paper's non-expanding word on the cube [n]^3 over
  GF(2^(2t)), n = 2^(2t) - 1, built from its own field tables: the entry
  at (i, j, l) is w^(-kj - 2kl) when i + j + l = 0 (mod n), else 0, with
  k = n/3 and w the class of x modulo the field's fixed modulus.
- `v1_certificate_text(t)`: that witness as a `product-expansion-certificate
  v1` file, the format the program's reader must keep accepting.
- `EXACT_EXPECTED`: brute-force values from `tests/oracles.py` for the
  exact-small workload.  Regenerate them with

      python3 perfbench/reference.py oracle

  which prints the dictionary to paste here (about 30 s).

Writing the t=4 certificate for the verify workload:

      python3 perfbench/reference.py write-v1 --t 4 --out FILE
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

# The program's fixed modulus table (also the usual primitive polynomials).
MODULI = {2: 0b111, 4: 0b10011, 6: 0b1000011, 8: 0b100011101}

# SHA-256 of v1_certificate_text(4), so a cached input file can be trusted.
V1_T4_SHA256 = "3d0d253dc33f953f6228596f23b34a0b0717338023ec7a8025b327203ae9fdec"


def exp_table(degree: int) -> np.ndarray:
    """w^e for e in [0, 2^degree - 1), by shift-and-reduce."""
    q = 1 << degree
    out = np.zeros(q - 1, dtype=np.uint8)
    val = 1
    for e in range(q - 1):
        out[e] = val
        val <<= 1
        if val & q:
            val ^= MODULI[degree]
    if val != 1:
        raise ValueError(f"modulus for degree {degree} is not primitive")
    return out


def witness(t: int) -> np.ndarray:
    """The (n, n, n) witness array over GF(2^(2t))."""
    degree = 2 * t
    n = (1 << degree) - 1
    k = n // 3
    i, j, l = np.indices((n, n, n), dtype=np.int64)
    vals = exp_table(degree)[(-k * j - 2 * k * l) % n]
    return np.where((i + j + l) % n == 0, vals, 0).astype(np.uint8)


def certificate_fields(t: int) -> dict:
    """Header fields of the witness certificate, derived by hand.

    The support has n^2 cells and meets every axis-parallel line once, so
    the greedy cover bound is n^2 and tight, and the bound is
    (n^2 / n^3) * n^2 / n^2 = 1/n.
    """
    n = (1 << (2 * t)) - 1
    return {
        "instance": f"rs_gf{n + 1}_n{n}_k{n // 3}^3",
        "bound": Fraction(1, n),
        "cover_lower_bound": n * n,
        "line_disjoint": True,
        "tight": True,
    }


def v1_certificate_text(t: int) -> str:
    f = certificate_fields(t)
    n = (1 << (2 * t)) - 1
    hexes = [format(v, "x") for v in range(256)]
    rows = [" ".join([hexes[v] for v in row]) for row in witness(t).reshape(-1, n).tolist()]
    head = [
        "product-expansion-certificate v1",
        f"instance {f['instance']}",
        f"bound {f['bound'].numerator}/{f['bound'].denominator}",
        f"cover-lower-bound {f['cover_lower_bound']}",
        "line-disjoint true",
        "tight true",
        "witness",
        f"shape {n} {n} {n} field 2^{2 * t}",
    ]
    return "\n".join(head + rows + ["end"]) + "\n"


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ----------------------------------------------------------------------
# Brute-force values for the exact-small workload.
# ----------------------------------------------------------------------

EXACT_EXPECTED = {
    'rho rep2 m=3': '1/3',
    'rho rs t=1 m=2': '1/2',
    'rho_r rs t=1 m=2 k=1': '1/2',
    'rho_r rep2 m=4 k=1': '1/4',
    'rho_r rep2 m=4 k=3': '5/8',
    'rho_a rep2 m=3': '4/9',
    'rho_a rs t=1 m=2': '1/2',
    'rho_r rep2 m=3 k=1': '1/3',
    'rho_r rep2 m=3 k=2': '1/2',
    'rho_r rep2 m=2 k=1': '1/2',
    'delta rep2': '1/1',
}


def oracle_values(oracles) -> dict:
    """Recompute EXACT_EXPECTED from the independent oracle module."""
    rep2 = oracles.rep2_codes
    gf4 = oracles.gf4_rep3()
    delta_rep2 = Fraction(min(sum(1 for v in cw if v) for cw in oracles.REP2 if any(cw)), 2)
    rho_r = lambda shape, codes, k: oracles.orc_rho_r(shape, codes, k)[0]  # noqa: E731
    values = {
        "rho rep2 m=3": oracles.orc_rho((2, 2, 2), rep2(3)),
        "rho rs t=1 m=2": oracles.orc_rho((3, 3), [gf4] * 2),
        "rho_r rs t=1 m=2 k=1": rho_r((3, 3), [gf4] * 2, 1),
        "rho_r rep2 m=4 k=1": rho_r((2, 2, 2, 2), rep2(4), 1),
        "rho_r rep2 m=4 k=3": rho_r((2, 2, 2, 2), rep2(4), 3),
        "rho_a rep2 m=3": oracles.orc_rho_a((2, 2, 2), rep2(3)),
        "rho_a rs t=1 m=2": oracles.orc_rho_a((3, 3), [gf4] * 2),
        "rho_r rep2 m=3 k=1": rho_r((2, 2, 2), rep2(3), 1),
        "rho_r rep2 m=3 k=2": rho_r((2, 2, 2), rep2(3), 2),
        "rho_r rep2 m=2 k=1": rho_r((2, 2), rep2(2), 1),
        "delta rep2": delta_rep2,
    }
    return {key: f"{v.numerator}/{v.denominator}" for key, v in values.items()}


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    w = sub.add_parser("write-v1", help="write the witness certificate (v1 format)")
    w.add_argument("--t", type=int, required=True)
    w.add_argument("--out", required=True)
    sub.add_parser("oracle", help="print EXACT_EXPECTED recomputed by tests/oracles.py")
    args = parser.parse_args(argv)
    if args.cmd == "write-v1":
        out = Path(args.out)
        tmp = out.with_name(out.name + ".part")
        tmp.write_text(v1_certificate_text(args.t))
        tmp.replace(out)
        print(sha256_file(out))
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    import oracles

    print("EXACT_EXPECTED = {")
    for key, val in oracle_values(oracles).items():
        print(f"    {key!r}: {val!r},")
    print("}")
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
