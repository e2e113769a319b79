"""Regenerate oracle_digest.json: the exact bits of every oracle's max_rel_err.

The file holds ``max_rel_err.hex()`` for every oracle of the suite at
each seed in SEEDS.  An oracle's worst relative error runs through
its whole pipeline (kernels, jets, stress assembly, quadrature), so a
change that is meant to keep the numbers (a refactor, a speed-up)
proves it by leaving this file alone and by passing ``--check``, which
reruns every frozen seed, writes nothing, and exits nonzero on any
mismatch.  The tests check seeds 0 and 1.  Regenerate the file only in
a change that means to alter the numbers, and say so in that change.
Run from the repository root:

    python3 tests/data/make_oracle_digest.py [--check]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from conevac import oracles  # noqa: E402

OUT = Path(__file__).with_name("oracle_digest.json")
SEEDS = range(8)


def seed_digest(seed: int) -> dict:
    """``max_rel_err.hex()`` of every oracle at one seed, by oracle name."""
    return {r.name: r.max_rel_err.hex() for r in oracles.run_oracle_suite(seed=seed)}


def check(seeds=None) -> int:
    """Rerun the frozen seeds (or ``seeds``); 0 if all match, else 1."""
    frozen = json.loads(OUT.read_text())
    if frozen["oracles"] != oracles.oracle_names():
        print("mismatch: the oracle names differ from oracles.oracle_names()")
        return 1
    status = 0
    for seed in (frozen["seeds"] if seeds is None else [str(s) for s in seeds]):
        want = frozen["seeds"][seed]
        got = seed_digest(int(seed))
        print(f"seed {seed}: {'ok' if got == want else 'MISMATCH'}")
        for name in want:
            if got.get(name) != want[name]:
                print(f"  {name}: frozen {want[name]}, computed {got.get(name)}")
                status = 1
    return status


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="rerun every frozen seed and compare; write nothing")
    if parser.parse_args().check:
        raise SystemExit(check())
    OUT.write_text(json.dumps({"oracles": oracles.oracle_names(),
                               "seeds": {str(s): seed_digest(s) for s in SEEDS}},
                              indent=2) + "\n")
    print(f"wrote {OUT}")
