"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload suite-eval --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for the metric map):

* ``suite-eval`` — the paper's whole evaluation, C to checked output,
  one fresh process per pass;
* ``accel-replay`` — the 10 dominant programs' transformed modules
  replayed at a large scale under the planner's placement;
* ``daemon-mix`` — two closed-loop clients against a default daemon.

With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric; with ``--trace 1`` it carries every
per-layer metric instead, and a Chrome trace-event file is written under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT_DIR,
    SRC,
    emit_result,
    metric,
    provenance,
    use_source_tree,
)

WORKLOADS = ("suite-eval", "accel-replay", "daemon-mix")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {SRC}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    use_source_tree()
    if args.workload == "suite-eval":
        import suite_eval as workload
    elif args.workload == "accel-replay":
        import accel_replay as workload
    else:
        import daemon_mix as workload

    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    failures = outcome["failures"]
    attempted = outcome["attempted"]
    extra = outcome["extra"]
    if args.trace:
        metrics = extra.pop("layer_metrics")
        from spans import to_chrome

        recorded = extra.pop("spans")

        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        with open(path, "w") as fh:
            json.dump(to_chrome(recorded), fh)
        extra["chrome_trace"] = str(path)
    else:
        metrics = outcome["metrics"]
        metrics["ok_frac"] = metric(
            1.0 - len(failures) / max(1, attempted), "ratio")
    prov = provenance(args.workload, args.seed, outcome["scale"])
    emit_result(args.workload, args.seed, bool(args.trace), prov, metrics,
                attempted, failures, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
