#!/usr/bin/env python3
"""Census of candidate singular points of the torus quotients: for each
even n, the quotient of the full Grassmannian and of every Schubert
variety above the stable minimum."""

import argparse

from schubert_git.git_geometry import singular_candidates, smooth_locus_width
from schubert_git.weyl import minimal_elements


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=10)
    args = parser.parse_args()

    for n in range(4, args.max_n + 1, 2):
        w_ss, w_s = minimal_elements(n)
        print(f"n={n}: w_ss_min={w_ss}, w_s_min={w_s}")
        for b1 in range(w_s[0], n):
            w = (b1, n)
            result = singular_candidates(w, n)
            width = smooth_locus_width(w, n)
            print(
                f"  X{w}: |K|={len(result.members):4d}  candidates={result.l_size:4d}"
                f"  strictly-semistable codim={width}"
            )


if __name__ == "__main__":
    main()
