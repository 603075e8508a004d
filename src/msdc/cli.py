"""Command-line interface: model lifecycle, queries, experiments, benchmarks.

Subcommands: ``init``, ``store``, ``query``, ``experiment``, ``bench``.
Exit codes: 0 success, 2 usage error, 3 data error (bad pattern, geometry,
config, schedule, or snapshot content), 4 I/O error.  Snapshot writes are atomic;
a failed command never leaves a corrupt model behind, but a failed directory
flush, which follows the rename, exits 4 with the complete new model in place
and says that it was written.

Every command is deterministic given its inputs and ``--seed``, a
non-negative integer except on ``experiment``, where it offsets the
scenario's seed list (a negative offset is fine while every seed stays
non-negative).  On ``init`` and ``bench``, a JSON ``--config`` file may
supply geometry, params, ``seed`` and ``ledger`` defaults; explicit flags
win over the config file.  It may also hold ``w_max``, which must be 127,
the fixed weight quantum.  The ledger is on by default for ``init`` and off
for ``bench``.  ``store`` and ``query`` take ``--trace``.  A flag a command
does not read is a usage error.

Each file reader checks only its file's shape; the values go as they are to
the types they build, which check them once.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import bench as bench_mod
from .core import (
    CsaParams,
    InputPattern,
    ModelGeometry,
    PAPER_GEOMETRY,
    W_MAX,
    _GEOMETRY_KEYS,
    _PARAM_KEYS,
    _check_w_max,
    _config_object,
    _parse_json,
    _read_text,
)
from .errors import ConfigError, MsdcError, PatternError
from .memory import RETRIEVAL_MODES, MemoryModel, _seeded_rng
from .snapshot import load_model, save_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4

_CONFIG_KEYS = ("geometry", "params", "w_max", "seed", "ledger")


def _load_config_file(path: str | None) -> dict:
    """The --config file's object.  Its shape, ``w_max`` and ledger flag are
    checked here; geometry, params and seed by the types they build."""
    if path is None:
        return {}
    text = _read_text(path, ConfigError)
    data = _config_object(_parse_json(text, "config file", ConfigError), "config", _CONFIG_KEYS)
    _config_object(data.get("geometry", {}), "config geometry", _GEOMETRY_KEYS)
    _config_object(data.get("params", {}), "config params", _PARAM_KEYS)
    if "w_max" in data:
        _check_w_max(data["w_max"], "config w_max", ConfigError)
    if not isinstance(data.get("ledger", True), bool):
        raise ConfigError(f"config ledger must be true or false, got {data['ledger']!r}")
    return data


def _resolved_config(args, ledger: bool) -> tuple[ModelGeometry, CsaParams, object, bool]:
    """The built geometry and params, the seed and the ledger flag: explicit
    flags over --config file values over built-in defaults, ``ledger`` the
    command's own."""
    file_cfg = _load_config_file(args.config)
    flags = {key: value for key, value in vars(args).items() if value is not None}

    def layered(section: str, keys: tuple[str, ...]) -> dict:
        return {**file_cfg.get(section, {}), **{key: flags[key] for key in keys if key in flags}}

    return (
        replace(PAPER_GEOMETRY, **layered("geometry", _GEOMETRY_KEYS)),
        replace(CsaParams(), **layered("params", _PARAM_KEYS)),
        flags.get("seed", file_cfg.get("seed", 0)),
        flags.get("ledger", file_cfg.get("ledger", ledger)),
    )


def read_pattern_file(path: str | Path) -> InputPattern:
    """Grid of 0/1 characters, or JSON: a list of active pixel indices,
    optionally wrapped as {"active_pixels": [...]}, an object with no other
    key.  The file's shape is checked here, its indices by ``InputPattern``."""
    text = _read_text(path, PatternError)
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        data = _parse_json(text, "pattern file", PatternError)
        if isinstance(data, dict):
            if set(data) != {"active_pixels"}:
                raise PatternError(
                    f"JSON pattern object must hold only active_pixels, got keys {sorted(data)}"
                )
            data = data["active_pixels"]
        if not isinstance(data, list):
            raise PatternError("JSON pattern must be a list of active pixel indices")
        return InputPattern.from_indices(data)
    return InputPattern.from_grid(text)


def _dump_trace(args, model, trace, extra: dict) -> None:
    if args.trace is None:
        return
    payload = dict(extra)
    # Echo the resolved model configuration for provenance.
    payload["model"] = {
        "geometry": asdict(model.geometry),
        "params": asdict(model.params),
        "w_max": W_MAX,
    }
    payload["trace"] = trace.to_json_dict()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.trace == "-":
        sys.stdout.write(text)
    else:
        Path(args.trace).write_text(text)


def _echo(text: str) -> None:
    """Print ``text``, as backslash escapes where stdout cannot encode it."""
    try:
        print(text)
    except UnicodeEncodeError:
        print(text.encode(sys.stdout.encoding, "backslashreplace").decode(sys.stdout.encoding))


def cmd_init(args) -> int:
    geometry, params, seed, ledger = _resolved_config(args, ledger=True)
    model = MemoryModel(geometry, params, seed=seed, enable_ledger=ledger)
    save_model(model, args.model_path)
    _echo(f"initialized {args.model_path}: {geometry.num_cms} CMs x "
          f"{geometry.units_per_cm} units, {geometry.input_width}x"
          f"{geometry.input_height} input, S={geometry.num_active}")
    return EXIT_OK


def cmd_store(args) -> int:
    rng = _seeded_rng(args.seed) if args.seed is not None else None
    model = load_model(args.model_path)
    pattern = read_pattern_file(args.pattern_path)
    if rng is not None:
        model.rng = rng
    label = args.label if args.label is not None else Path(args.pattern_path).stem
    code, trace = model.store(pattern, label)
    extra = {"command": "store", "label": label, "code": [int(c) for c in code]}
    # A trace file is written before the model, so a trace path that cannot
    # be written fails the command with the model file unchanged.
    if args.trace != "-":
        _dump_trace(args, model, trace, extra)
    save_model(model, args.model_path)
    _echo(f"stored {label}: G={trace.familiarity} code={' '.join(map(str, code))}")
    if args.trace == "-":
        _dump_trace(args, model, trace, extra)
    return EXIT_OK


def cmd_query(args) -> int:
    rng = _seeded_rng(args.seed) if args.seed is not None else None
    model = load_model(args.model_path)
    pattern = read_pattern_file(args.pattern_path)
    report = model.belief_update(pattern, mode=args.mode, rng=rng)
    q = model.geometry.num_cms
    lines = [f"code: {' '.join(str(int(c)) for c in report.code)}", f"G={report.familiarity}"]
    lines += [
        f"{entry.label}: similarity={entry.input_similarity:.4f} "
        f"intersection={entry.code_intersection}/{q} likelihood={entry.likelihood:.4f}"
        for entry in report.entries
    ]
    _echo("\n".join(lines))
    _dump_trace(args, model, report.trace, {"command": "query", "mode": args.mode,
                                     "code": [int(c) for c in report.code]})
    return EXIT_OK


def cmd_experiment(args) -> int:
    # Imported here: only this command needs the scenario harness, so the
    # other commands start without loading it.
    from . import experiments as exp_mod

    spec = exp_mod.load_scenario(args.spec_path)
    if args.seed is not None:
        # Shift the whole seed list so one flag re-randomizes a run.
        spec = replace(spec, seeds=tuple(s + args.seed for s in spec.seeds))
    records = exp_mod.run_scenario(spec)
    formats = ("csv", "json") if args.format == "both" else (args.format,)
    written = exp_mod.emit_results(records, spec, args.out_dir, formats=formats)
    for path in written:
        _echo(str(path))
    return EXIT_OK


def cmd_bench(args) -> int:
    geometry, params, seed, ledger = _resolved_config(args, ledger=False)
    report = bench_mod.run_scaling_bench(
        geometry=geometry, params=params, checkpoints=args.checkpoints,
        trials_per_checkpoint=args.trials, seed=seed, enable_ledger=ledger,
    )
    bench_mod.save_report(report, args.out_path)
    flag = "equal" if report["csa_ops_equal"] else "UNEQUAL"
    _echo(f"wrote {args.out_path}; CSA op counts {flag} across checkpoints")
    return EXIT_OK


def _checkpoint_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad checkpoint list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    # Each command takes only the flags it reads: --seed everywhere, --config
    # and the geometry flags on init and bench, --trace on store and query.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, metavar="N",
                        help="override the random seed")
    configured = argparse.ArgumentParser(add_help=False, parents=[seeded])
    configured.add_argument("--config", metavar="PATH",
                            help="JSON config file with geometry/params/seed defaults")
    configured.add_argument("--width", dest="input_width", type=int)
    configured.add_argument("--height", dest="input_height", type=int)
    configured.add_argument("--active", dest="num_active", type=int,
                            help="active pixels per pattern (S)")
    configured.add_argument("--cms", dest="num_cms", type=int, help="competitive modules (Q)")
    configured.add_argument("--units", dest="units_per_cm", type=int, help="units per CM (K)")
    traced = argparse.ArgumentParser(add_help=False, parents=[seeded])
    traced.add_argument("--trace", nargs="?", const="-", metavar="PATH",
                        help="dump the selection trace as JSON (default stdout)")

    parser = argparse.ArgumentParser(
        prog="msdc",
        description="Fixed-time associative memory over modular sparse "
                    "distributed codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", parents=[configured], help="create an empty model snapshot")
    p.add_argument("model_path")
    for key in _PARAM_KEYS:
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=float)
    p.add_argument("--ledger", action=argparse.BooleanOptionalAction, default=None,
                   help="record (label, input, code) per store for belief readout "
                        "(default on)")
    p.set_defaults(func=cmd_init)

    p = sub.add_parser("store", parents=[traced],
                       help="store a pattern into a model snapshot")
    p.add_argument("model_path")
    p.add_argument("pattern_path")
    p.add_argument("--label", help="ledger label (default: pattern file stem)")
    p.set_defaults(func=cmd_store)

    p = sub.add_parser("query", parents=[traced],
                       help="retrieve a code and report stored-item likelihoods")
    p.add_argument("model_path")
    p.add_argument("pattern_path")
    p.add_argument("--mode", choices=RETRIEVAL_MODES, default="soft")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("experiment", parents=[seeded],
                       help="run a scenario config and emit result files "
                            "(--seed offsets the scenario's whole seed list)")
    p.add_argument("spec_path",
                   help="scenario JSON path, or the literal 'appendix' for the "
                        "bundled default")
    p.add_argument("out_dir")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bench", parents=[configured],
                       help="verify fixed-time scaling and write a JSON report")
    p.add_argument("out_path")
    p.add_argument("--checkpoints", type=_checkpoint_list,
                   default=list(bench_mod.DEFAULT_CHECKPOINTS),
                   help="comma-separated stored-item counts")
    p.add_argument("--trials", type=int, default=50,
                   help="timing trials per checkpoint")
    p.add_argument("--ledger", action=argparse.BooleanOptionalAction, default=None,
                   help="record a ledger on the timed model (default off)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        # An error re-raised from an errno, such as a failed directory flush,
        # names no file; its own text says what failed.
        if exc.filename is None:
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except MsdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
