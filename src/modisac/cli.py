"""Command-line entry points: run-scenario, sweep, music, validate."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness
from .geometry import ConfigurationError, DegenerateGeometryError
from .music import GridSpec, save_spectrum_csv, save_spectrum_grid
from .validation import validate


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML scenario file (defaults when omitted)")
    parser.add_argument(
        "--desk-scale", action="store_true", help="use the reduced desk-scale presets"
    )


def _load(args) -> harness.ScenarioConfig:
    if args.config:
        return harness.load_config(args.config, desk_scale=args.desk_scale)
    return harness.config_from_dict({}, desk_scale=args.desk_scale)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modisac",
        description="Modular widely-spaced array ISAC beamforming toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    algo_names = [a.replace("_", "-") for a in harness.ALGORITHMS]
    run_p = sub.add_parser("run-scenario", help="run one scenario end to end")
    _add_config_arg(run_p)
    run_p.add_argument(
        "--algo",
        choices=sorted(set(algo_names) | set(harness.ALGORITHMS)),
        default="sdr-rrs",
    )
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None, help="append the result row to this CSV")

    sweep_p = sub.add_parser("sweep", help="run an experiment sweep from a spec file")
    sweep_p.add_argument("--spec", required=True, help="YAML experiment spec")

    music_p = sub.add_parser("music", help="localize the target with MUSIC")
    _add_config_arg(music_p)
    music_p.add_argument(
        "--grid",
        type=GridSpec.parse,
        default="0:0.25:30,0:0.25:30",
        help='search grid "x0:dx:x1,y0:dy:y1" in meters',
    )
    music_p.add_argument("--seed", type=int, default=None)
    music_p.add_argument("--out", default=None, help="output prefix (.csv and .grid)")

    val_p = sub.add_parser("validate", help="run the cross-module invariant suite")
    val_p.add_argument("--report", default=None, help="also write a CSV report")

    args = parser.parse_args(argv)
    # a bad --config or --spec file or an unwritable output is a usage error
    try:
        return _execute(args)
    except (ConfigurationError, OSError) as err:
        print(f"modisac {args.command}: error: {err}", file=sys.stderr)
        return 2


def _execute(args) -> int:
    """Run the parsed command and return its exit code."""
    if args.command in ("run-scenario", "music"):
        config = _load(args)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.out:  # open each output path now, so an unwritable one fails before the run
            for suffix in ("",) if args.command == "run-scenario" else (".csv", ".grid"):
                open(args.out + suffix, "a").close()
        try:
            if args.command == "run-scenario":
                row = harness.run_scenario(config, args.algo.replace("-", "_"))
            else:
                result, _, _ = harness.run_music(config, args.grid)
        except (harness.TransmitDesignError, DegenerateGeometryError) as err:
            # a scene the run cannot handle is a failed run, like a failed
            # run-scenario status, not a usage error
            print(f"modisac {args.command}: error: {err}", file=sys.stderr)
            return 1

    if args.command == "run-scenario":
        if args.out:
            with open(args.out, "a") as f:
                if f.tell() == 0:
                    f.write(harness.ResultRow.HEADER + "\n")
                f.write(row.to_csv() + "\n")
        print(harness.ResultRow.HEADER)
        print(row.to_csv())
        return 0 if row.status in harness.SUCCESS_STATUSES else 1

    if args.command == "sweep":
        path = harness.sweep(harness.load_experiment(args.spec))
        print(f"sweep written to {path}")
        return 0

    if args.command == "music":
        print(
            f"peak at x={result.peak_location[0]:.3f} m, "
            f"y={result.peak_location[1]:.3f} m; "
            f"-3 dB range width {result.mainlobe_width:.3f} m"
        )
        truth = config.target.location.xy
        print(f"target truth x={truth[0]:.3f} m, y={truth[1]:.3f} m")
        if args.out:
            save_spectrum_csv(result, args.out + ".csv")
            save_spectrum_grid(result, args.out + ".grid")
            print(f"spectrum written to {args.out}.csv and {args.out}.grid")
        return 0

    if args.command == "validate":
        report = validate()
        print(report.to_text())
        if args.report:
            report.to_csv(args.report)
        return 0 if report.all_ok else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
