#!/usr/bin/env python3
"""Round-trip demo: enumeration oracle -> coding sequence -> membership readout.

Draws random finite oracles, synthesizes a sequence whose adjacent pair
sums are monochromatic in colour (1, 1) under the membership-coding
colouring, and checks that decoding recovers exact membership for every
queryable value.  Prints one JSON line per oracle.

Usage:
  python scripts/oracle_roundtrip.py [--oracles 20] [--length 4] [--seed 0]
"""

import argparse
import json
import random

from irl.bits import lowest_bit
from irl.oracle import EnumerationOracle, decode, decode_colour, pair_colour, synthesize_solution
from irl.sums import adjacent_tuples


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--oracles", type=int, default=20)
    parser.add_argument("--length", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    exact = 0
    for _ in range(args.oracles):
        elements = rng.sample(range(0, 24), rng.randint(0, 8))
        oracle = EnumerationOracle(
            events=tuple((e, rng.randint(0, 12)) for e in elements))
        witness = synthesize_solution(oracle, args.length)
        colours = sorted({decode_colour(pair_colour(oracle, a, b))
                          for a, b in adjacent_tuples(witness, 2)})
        queries = range(lowest_bit(witness[-1]))
        decoded = {q: decode(witness, oracle, q) for q in queries}
        final_set = oracle.final_set
        agree = all(decoded[q] == (q in final_set) for q in queries)
        exact += agree
        print(json.dumps({
            "events": [list(e) for e in oracle.events],
            "settle_stage": oracle.settle_stage,
            "witness": list(witness),
            "pair_colours": [list(c) for c in colours],
            "decoded_members": sorted(q for q, hit in decoded.items() if hit),
            "exact": agree,
        }))
    print(f"# {exact}/{args.oracles} oracles decoded exactly")


if __name__ == "__main__":
    main()
