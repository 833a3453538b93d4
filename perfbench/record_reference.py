"""Record the bound-sweep reference rows that the benchmark's oracle compares with.

Runs ``qseal experiment bound-sweep --trials T`` (T = ``BoundSweep.TRIALS``)
in process for CLI seeds 0, T, 2T, ... and the last CLI seed the benchmark
uses. Trial t of a sweep run with CLI seed S draws its strategy from rng seed
S + t, so these runs give the random rows for rng seeds 0 .. CLI_SEEDS + T - 2
of every instance. Two other seeds are run as well, to check that their rows
agree with the recorded ones. Run it from the repository root only when the
sweep's numbers are meant to change:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qseal import cli  # noqa: E402

from workloads import REFERENCE_PATH, BoundSweep  # noqa: E402


def sweep_csv(cli_seed: int) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["--seed", str(cli_seed), "experiment", "bound-sweep",
                         "--trials", str(BoundSweep.TRIALS)])
    if code != 0:
        raise SystemExit(f"bound-sweep exited with {code} at seed {cli_seed}")
    return buf.getvalue()


def main() -> None:
    trials, last = BoundSweep.TRIALS, BoundSweep.CLI_SEEDS - 1
    instances: dict[str, dict] = {}
    header = None
    for cli_seed in [*range(0, last, trials), last]:
        lines = sweep_csv(cli_seed).splitlines()
        header = lines[0]
        for line in lines[1:]:
            name, attack, *values = line.split(",")
            inst = instances.setdefault(name, {"name": name, "named": [], "random": {}})
            values = [float(v) for v in values]
            if attack.startswith("random-"):
                inst["random"][cli_seed + int(attack[len("random-"):])] = values
            elif cli_seed == 0:  # named attacks do not depend on the seed
                inst["named"].append([attack, *values])
    for inst in instances.values():
        seeds = sorted(inst["random"])
        if seeds and seeds != list(range(last + trials)):
            raise SystemExit(f"{inst['name']}: random rows do not cover the rng seeds")
        inst["random"] = [inst["random"][s] for s in seeds] if seeds else None
    reference = {"trials": trials, "cli_seeds": last + 1, "header": header,
                 "instances": list(instances.values())}
    with open(REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")

    for cli_seed in (1, last // 2 + 1):
        expected = [",".join([row[0], row[1], *(f"{v:.17g}" for v in row[2:])])
                    for row in BoundSweep().expected_rows(cli_seed)]
        if sweep_csv(cli_seed).splitlines()[1:] != expected:
            raise SystemExit(f"recorded rows disagree with the sweep at seed {cli_seed}")
    print(f"wrote {REFERENCE_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
