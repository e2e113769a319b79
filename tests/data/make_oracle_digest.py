"""Regenerate oracle_digest.json: the exact bits of every oracle's max_rel_err.

The file holds ``max_rel_err.hex()`` for every oracle of the suite at
each seed in SEEDS.  An oracle's worst relative error runs through
its whole pipeline (kernels, jets, stress assembly, quadrature), so a
change that is meant to keep the numbers (a refactor, a speed-up)
proves it by leaving this file alone and by passing ``--check``, which
reruns every frozen seed, writes nothing, and exits nonzero on any
mismatch; it also prints each seed's wall time, each oracle's wall time
summed over the seeds beside its traced memory peak (the ``tracemalloc``
peak of one oracle call, the largest over the seeds, from a second pass
so that the wall times are untraced), and the process's peak resident
memory before that pass.  The tests check seeds 0 and 1.  Regenerate the file only in
a change that means to alter the numbers, and say so in that change.  A
change that means to alter some oracles' numbers only re-freezes those
with ``--refreeze NAME...``: it rewrites the named oracles' entries at
every frozen seed, printing each old and new hex, and writes nothing,
exiting nonzero, if any other oracle's bits differ.
Run from the repository root:

    python3 tests/data/make_oracle_digest.py [--check | --refreeze NAME...]
"""

import argparse
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from conevac import oracles  # noqa: E402

OUT = Path(__file__).with_name("oracle_digest.json")
SEEDS = range(8)


def seed_digest(seed: int, wall=None) -> dict:
    """``max_rel_err.hex()`` of every oracle at one seed, by oracle name.

    Each oracle runs on its own (its draws do not depend on the others);
    with a dict ``wall``, each one's wall time is added to ``wall[name]``.
    """
    digest = {}
    for name in oracles.oracle_names():
        start = time.perf_counter()
        (report,) = oracles.run_oracle_suite([name], seed=seed)
        if wall is not None:
            wall[name] = wall.get(name, 0.0) + time.perf_counter() - start
        digest[name] = report.max_rel_err.hex()
    return digest


def seed_peaks(seed: int, peaks: dict) -> None:
    """Run every oracle at one seed under ``tracemalloc``, each on its own,
    keeping in ``peaks[name]`` the largest traced peak, in bytes."""
    for name in oracles.oracle_names():
        tracemalloc.start()
        try:
            oracles.run_oracle_suite([name], seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks[name] = max(peaks.get(name, 0), peak)


def check(seeds=None) -> int:
    """Rerun the frozen seeds (or ``seeds``); 0 if all match, else 1."""
    frozen = json.loads(OUT.read_text())
    if frozen["oracles"] != oracles.oracle_names():
        print("mismatch: the oracle names differ from oracles.oracle_names()")
        return 1
    status = 0
    walls = {}
    checked = frozen["seeds"] if seeds is None else [str(s) for s in seeds]
    for seed in checked:
        want = frozen["seeds"][seed]
        start = time.perf_counter()
        got = seed_digest(int(seed), walls)
        wall = time.perf_counter() - start
        print(f"seed {seed}: {'ok' if got == want else 'MISMATCH'} ({wall:.2f} s)")
        for name in want:
            if got.get(name) != want[name]:
                print(f"  {name}: frozen {want[name]}, computed {got.get(name)}")
                status = 1
    # ru_maxrss is in KiB on Linux; read before the traced pass adds its own
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    peaks = {}
    for seed in checked:
        seed_peaks(int(seed), peaks)
    print(f"wall time and traced peak per oracle over seeds {', '.join(checked)}:")
    for name, wall in walls.items():
        print(f"  {name:<22} {wall:7.3f} s {peaks[name] / 1e6:7.2f} MB")
    print(f"peak RSS of the untraced pass: {rss:.1f} MB")
    return status


def refreeze(names) -> int:
    """Rewrite the entries of the oracles ``names`` at every frozen seed.

    Returns 0 once written.  Returns 1 and writes nothing if a name is
    not an oracle of the file or any other oracle's bits differ.
    """
    frozen = json.loads(OUT.read_text())
    if frozen["oracles"] != oracles.oracle_names():
        print("mismatch: the oracle names differ from oracles.oracle_names()")
        return 1
    unknown = sorted(set(names) - set(frozen["oracles"]))
    if unknown:
        print(f"not an oracle: {', '.join(unknown)}")
        return 1
    status = 0
    for seed, want in frozen["seeds"].items():
        got = seed_digest(int(seed))
        for name in want:
            if name in names:
                if got[name] != want[name]:
                    print(f"seed {seed}: {name} {want[name]} -> {got[name]}")
                want[name] = got[name]
            elif got.get(name) != want[name]:
                print(f"seed {seed}: {name} differs: frozen {want[name]}, "
                      f"computed {got.get(name)}")
                status = 1
    if status:
        print(f"wrote nothing: oracles other than {', '.join(names)} differ")
        return 1
    OUT.write_text(json.dumps(frozen, indent=2) + "\n")
    print(f"re-froze {', '.join(names)} in {OUT}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="rerun every frozen seed and compare; write nothing")
    mode.add_argument("--refreeze", nargs="+", metavar="NAME",
                      help="rewrite only these oracles' entries, if no other's bits differ")
    args = parser.parse_args()
    if args.check:
        raise SystemExit(check())
    if args.refreeze:
        raise SystemExit(refreeze(args.refreeze))
    OUT.write_text(json.dumps({"oracles": oracles.oracle_names(),
                               "seeds": {str(s): seed_digest(s) for s in SEEDS}},
                              indent=2) + "\n")
    print(f"wrote {OUT}")
