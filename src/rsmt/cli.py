"""Experiment runner front-end.

Subcommands:
  bounds    - required tag bits / detection probability per protocol family
  simulate  - Monte-Carlo equilibrium falsification report (CSV)
  verify    - exhaustive small-parameter distribution checks
  sweep     - metric vs a swept parameter (ell, n, t, trials)

Configs are JSON; reports are CSV with a reproducibility header embedding the
fully resolved config, the master seed and the provenance (package, Python
and random-stream versions).  Exit codes: 0 success, 2 equilibrium
flag raised, 3 config error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

from . import __version__
from .config import ConfigError, check_keys, read_int, read_number, read_object
from .game.bounds import BoundError, requirement_table
from .game.nash import CSV_COLUMNS, nash_catalog_check, passive_seed
from .game.play import plays, run_cell
from .game.utility import UtilityError, UtilityTable, derive_u_values, witness_table
from .game.attacks import PassiveGuess, catalog_for
from .privacy import CHECKS
from .protocols import VARIANTS
from .transport import RNG_STREAM, CorruptionProfile

EXIT_OK = 0
EXIT_FLAG = 2
EXIT_CONFIG = 3
EXIT_VERIFY = 4
SWEEP_SHAPE = "sweep requires {'axis': ..., 'values': [...]} in config"


def protocol_from_json(obj: dict):
    """The protocol `obj["variant"]` names, built by its class's `from_json`."""
    try:
        cls = VARIANTS.get(obj["variant"])
        if cls is None:
            raise ConfigError(f"unknown protocol variant {obj['variant']!r}")
        return cls.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad protocol config: {exc}") from exc


def profile_from_json(obj: dict) -> CorruptionProfile:
    try:
        check_keys(obj, "profile", "assignments", "malicious_id")
        assignments = {}
        for j, chans in read_object(obj["assignments"], "assignments").items():
            j = read_int(j, "adversary id")
            if j in assignments:
                raise ConfigError(f"adversary id {j} has two assignments")
            if not isinstance(chans, list):
                raise ConfigError(f"adversary {j} channels must be a JSON list, got {chans!r}")
            if not chans:
                raise ConfigError(f"adversary {j} owns no channel")
            channels = [read_int(c, "channel") for c in chans]
            assignments[j] = frozenset(channels)
            if len(assignments[j]) < len(channels):
                twice = next(c for c in channels if channels.count(c) > 1)
                raise ConfigError(f"adversary {j} lists channel {twice} twice")
        malicious = obj.get("malicious_id")
        return CorruptionProfile(
            assignments, None if malicious is None else read_int(malicious, "malicious_id")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad corruption profile: {exc}") from exc


def attacks_from_json(names, variant: str) -> list[str] | None:
    """`names` (None: the whole catalog) if it is a non-empty list of catalog
    attacks that all apply to `variant`."""
    if names is None:
        return None
    if not isinstance(names, list) or not names:
        raise ConfigError(f"attacks must be a non-empty list of attack names, got {names!r}")
    try:
        catalog_for(variant, names)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return names


def sweep_from_json(sweep) -> dict | None:
    """`sweep` (None: no sweep) if it has a known axis and a non-empty value list."""
    if sweep is None:
        return None
    if isinstance(sweep, dict):
        check_keys(sweep, "sweep", "axis", "values")
    if not isinstance(sweep, dict) or not sweep.get("axis") or not sweep.get("values"):
        raise ConfigError(SWEEP_SHAPE)
    if not isinstance(sweep["values"], list):
        raise ConfigError(f"sweep values must be a list, got {sweep['values']!r}")
    if sweep["axis"] not in ("ell", "n", "t", "trials"):
        raise ConfigError(f"unknown sweep axis {sweep['axis']!r}")
    return sweep


class ExperimentConfig:
    """Fully resolved experiment description."""

    __slots__ = ("raw", "protocol", "profile", "table", "attacks", "trials",
                 "master_seed", "alpha", "sweep")

    def __init__(self, obj: dict):
        check_keys(obj, "config", "protocol", "profile", "utility", "attacks", "trials",
                   "master_seed", "alpha", "sweep")
        self.raw = obj
        self.protocol = protocol_from_json(obj.get("protocol") or {})
        self.profile = profile_from_json(obj.get("profile") or {"assignments": {}})
        try:
            self.profile.validate_for(self.protocol.n)
        except ValueError as exc:
            raise ConfigError(f"bad corruption profile: {exc}") from exc
        util = obj.get("utility")
        size = self.protocol.message_space_size()
        if util is None:
            self.table = witness_table(size)
        else:
            try:
                self.table = UtilityTable.from_json(dict({"message_space_size": size}, **util))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad utility table: {exc}") from exc
            if self.table.message_space_size != size:
                raise ConfigError(f"message_space_size {self.table.message_space_size} differs "
                                  f"from the protocol's {size}")
        try:
            self.table.validate(len(self.profile.adversary_ids))
        except UtilityError as exc:
            raise ConfigError(f"utility table not admissible: {exc}") from exc
        base, private = self.table.base, self.protocol.privacy_threshold
        if any(base[(1, s, d)] != base[(0, s, d)] for s in (0, 1) for d in (0, 1)):
            for j in self.profile.adversary_ids:
                if (held := len(self.profile.assignments[j])) > private:
                    raise ConfigError(
                        f"utility table pays for the guess, which is scored at 1/|M|, but adversary "
                        f"{j} holds {held} channels, over {self.protocol.variant}'s privacy "
                        f"threshold {private}")
        self.attacks = attacks_from_json(obj.get("attacks"), self.protocol.variant)
        self.trials = read_int(obj.get("trials", 1000), "trials")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        self.master_seed = read_int(obj.get("master_seed", 0), "master_seed")
        alpha = obj.get("alpha")
        self.alpha = None if alpha is None else read_number(alpha, "alpha")
        self.sweep = sweep_from_json(obj.get("sweep"))

    def resolved_json(self) -> dict:
        return {
            "protocol": self.protocol.to_json(),
            "profile": {
                "assignments": {str(j): sorted(self.profile.assignments[j])
                                for j in self.profile.adversary_ids},
                "malicious_id": self.profile.malicious_id,
            },
            "utility": self.table.to_json(),
            "attacks": self.attacks,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "alpha": self.alpha,
            "sweep": self.sweep,
        }


def load_config(path: str, overrides: argparse.Namespace) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # non-UTF-8, an over-long int, deep nesting
        raise ConfigError(f"config {path} cannot be read: {exc}") from exc
    read_object(obj, "config")
    if getattr(overrides, "seed", None) is not None:
        obj["master_seed"] = overrides.seed
    if getattr(overrides, "trials", None) is not None:
        obj["trials"] = overrides.trials
    return ExperimentConfig(obj)


def _requirements(config: ExperimentConfig) -> dict[str, tuple[str, object]]:
    ids = config.profile.adversary_ids
    lam = max(1, len(ids))
    ts = sorted({len(chs) for chs in config.profile.assignments.values()}) or [1]
    p = config.protocol
    return requirement_table(derive_u_values(config.table, lam=lam), lam, p.n, p.d, ts,
                             alpha=config.alpha)


def check_tag_budget(config: ExperimentConfig) -> str | None:
    """Why the configuration misses the requirement-table row its protocol
    names, or None when it is adequately provisioned."""
    p = config.protocol
    if p.bound is None:
        return None
    _, need = _requirements(config)[p.bound]
    if isinstance(need, BoundError):
        return f"bound calculator inapplicable: {need}"
    return p.budget_problem(need)


def _adversary_ids(config: ExperimentConfig, command: str) -> tuple[int, ...]:
    """The profile's adversary ids; a run with none has no deviation to test."""
    ids = config.profile.adversary_ids
    if not ids:
        raise ConfigError(f"{command} needs at least one adversary in the profile")
    return ids


def _report_header(config: ExperimentConfig) -> list[str]:
    import platform  # about 4 ms to import, and only report headers read it

    blob = json.dumps(config.resolved_json(), sort_keys=True, separators=(",", ":"))
    return [f"# config {blob}", f"# master_seed {config.master_seed}",
            f"# provenance rsmt={__version__} python={platform.python_version()} "
            f"rng_stream={RNG_STREAM}"]


@contextlib.contextmanager
def _outputs(*paths):
    """The files `paths` name ("-" is stdout, None no file), opened before any work
    runs.  Each is first opened to append, so a path that cannot be written, or
    two paths of one file (one output would overwrite the other), is a
    ConfigError that empties no file and removes the files this call made (the
    target of a dangling symlink, not the link)."""
    named = [p for p in paths if p not in (None, "-")]
    new = [os.path.realpath(p) for p in named if not os.path.exists(p)]

    def refuse(message: str) -> ConfigError:
        for made in filter(os.path.exists, new):
            os.remove(made)
        return ConfigError(message)

    for path in named:
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise refuse(f"cannot write {path}: {exc}") from exc
    for first, second in itertools.combinations(named, 2):
        if os.path.samefile(first, second):
            raise refuse(f"{first} and {second} are the same file")
    with contextlib.ExitStack() as stack:
        yield [None if p is None else sys.stdout if p == "-"
               else stack.enter_context(open(p, "w", encoding="utf-8")) for p in paths]


def cmd_bounds(config: ExperimentConfig, out: str) -> int:
    rows = []
    for name, (inputs, value) in _requirements(config).items():
        if isinstance(value, BoundError):
            value = f"N/A ({value})"
        elif not isinstance(value, int):
            value = f"{float(value):g}"
        rows.append(f"{name},{inputs},{value}")
    with _outputs(out) as (fh,):
        fh.write("\n".join(_report_header(config) + ["bound,inputs,value"] + rows) + "\n")
    return EXIT_OK


def cmd_simulate(config: ExperimentConfig, out: str, dump_transcript: str | None,
                 allow_underspec: bool) -> int:
    _adversary_ids(config, "simulate")
    problem = check_tag_budget(config)
    if problem is not None and not allow_underspec:
        print(f"config error: {problem} (use --allow-underspec to probe anyway)",
              file=sys.stderr)
        return EXIT_CONFIG
    with _outputs(out, dump_transcript) as (fh, dump):
        rows = nash_catalog_check(
            config.protocol, config.profile, config.table, config.trials,
            config.master_seed, attack_names=config.attacks,
        )
        lines = _report_header(config) + [",".join(CSV_COLUMNS)]
        fh.write("\n".join(lines + [",".join(r.as_csv_fields()) for r in rows]) + "\n")
        if dump is not None:
            # the first play of the run behind the report's `passive` rows
            p, ids = config.protocol, config.profile.adversary_ids
            _, engine = next(plays(p, config.profile, {j: PassiveGuess(p) for j in ids},
                                   passive_seed(config.master_seed, config.profile)))
            dump.write(engine.to_json_str() + "\n")
    return EXIT_FLAG if any(r.flag for r in rows) else EXIT_OK


def cmd_verify(out: str) -> int:
    """Exhaustive checks at fixed tiny parameters; exact counts vs bounds."""
    lines = []
    failures = 0
    with _outputs(out) as (fh,):
        for name, bound, run in CHECKS:
            observed, ok = run()
            failures += not ok
            lines.append(f"{name}: observed={observed} bound={bound} [{'pass' if ok else 'FAIL'}]")
        lines.append(f"FAILURES: {failures}" if failures else "all checks passed")
        fh.write("\n".join(lines) + "\n")
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_sweep(config: ExperimentConfig, out: str) -> int:
    if config.sweep is None:
        raise ConfigError(SWEEP_SHAPE)
    axis, values = config.sweep["axis"], config.sweep["values"]
    first = _adversary_ids(config, "sweep")[0]
    attack_names = config.attacks or ["share-substitution"]
    raw = config.raw
    points = []  # (value, config), every point built and checked before any trial runs
    for value in values:
        point = (dict(raw, trials=value) if axis == "trials"
                 else dict(raw, protocol=dict(raw["protocol"], **{axis: value})))
        try:
            points.append((value, ExperimentConfig(point)))
        except ConfigError as exc:
            print(f"config error at {axis}={value}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    lines = _report_header(config) + [
        "axis,value,attack,trials,suc_rate,detect_rate,undetected_wrong_rate,utility_mean"
    ]
    with _outputs(out) as (fh,):
        for value, point in points:
            for entry in catalog_for(point.protocol.variant, attack_names):
                stats = run_cell(point.protocol, point.profile, point.table, point.trials,
                                 point.master_seed, {first: entry.name})
                undetected_wrong = stats.rate(lambda o: not o.suc and first not in o.detect)
                lines.append(
                    f"{axis},{value},{entry.name},{point.trials},{stats.suc_rate:.6f},"
                    f"{stats.detect_rate[first]:.6f},{undetected_wrong:.6f},"
                    f"{stats.utility_mean[first]:.6f}"
                )
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rsmt", description="rational secure message transmission experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("bounds", "simulate", "verify", "sweep"):
        sp = sub.add_parser(name)
        if name != "verify":
            sp.add_argument("--config", required=True, help="experiment config JSON")
            sp.add_argument("--seed", type=int, default=None, help="master seed override")
            sp.add_argument("--trials", type=int, default=None, help="trial count override")
        sp.add_argument("--out", default="-", help="output path (default stdout)")
        if name == "simulate":
            sp.add_argument("--dump-transcript", default=None,
                            help="write one replayable transcript (- for stdout)")
            sp.add_argument("--allow-underspec", action="store_true",
                            help="run even when the tag budget is below the required bound")
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.out)
        config = load_config(args.config, args)
        if args.command == "bounds":
            return cmd_bounds(config, args.out)
        if args.command == "simulate":
            return cmd_simulate(config, args.out, args.dump_transcript, args.allow_underspec)
        return cmd_sweep(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
