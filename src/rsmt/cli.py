"""Experiment runner front-end.

Subcommands:
  bounds    - required tag bits / detection probability per protocol family
  simulate  - Monte-Carlo equilibrium falsification report (CSV)
  verify    - exhaustive small-parameter distribution checks
  sweep     - metric vs a swept parameter (ell, n, t, trials)

Configs are JSON; reports are CSV with a reproducibility header embedding the
fully resolved config and master seed.  Exit codes: 0 success, 2 equilibrium
flag raised, 3 config error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .field import FieldError, FieldSpec
from .game.bounds import (
    BoundError,
    required_delta_rss,
    required_ell_p1,
    required_ell_p2,
    required_ell_p3,
    required_ell_pd,
    required_ell_pd_multi,
    required_ell_rss,
)
from .game.nash import CSV_COLUMNS, nash_catalog_check
from .game.play import run_trials
from .game.utility import UtilityError, UtilityTable, derive_u_values, witness_table
from .game.attacks import catalog_for
from .privacy import (
    EnumerationTooLarge,
    amd_failure_max,
    ciss_view_distance,
    rss_view_distance,
    shamir_privacy_distance,
)
from .hashing import HashFamilySpec, offset_collision_prob_exhaustive
from .protocols import CissProtocol, ProtocolError, RssProtocol, SjstProtocol, StrawmanProtocol
from .protocols.ciss import P1, P2, P3
from .sharing import AmdSpec, RobustSharingSpec, SharingError, SharingSpec
from .transport import CorruptionProfile

EXIT_OK = 0
EXIT_FLAG = 2
EXIT_CONFIG = 3
EXIT_VERIFY = 4


class ConfigError(ValueError):
    pass


def protocol_from_json(obj: dict):
    try:
        variant = obj["variant"]
        if variant == "SJST":
            return SjstProtocol(int(obj["n"]), int(obj["ell"]), int(obj["k"]))
        if variant == "RSS":
            field = FieldSpec.from_json(obj["field"])
            sharing = RobustSharingSpec(
                AmdSpec(field, int(obj["d"])),
                SharingSpec(t=int(obj["t"]), n=int(obj["n"]), field=field),
            )
            return RssProtocol(sharing)
        if variant in (P1, P2, P3):
            return CissProtocol(
                variant,
                int(obj["n"]),
                FieldSpec.from_json(obj["field"]),
                int(obj["d"]),
                int(obj["ell"]),
            )
        if variant == "STRAWMAN":
            return StrawmanProtocol(int(obj["n"]), FieldSpec.from_json(obj["field"]))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad protocol config: {exc}") from exc
    except (FieldError, SharingError, ProtocolError) as exc:
        raise ConfigError(f"bad protocol config: {exc}") from exc
    raise ConfigError(f"unknown protocol variant {obj.get('variant')!r}")


def profile_from_json(obj: dict) -> CorruptionProfile:
    try:
        assignments = {
            int(j): frozenset(int(c) for c in chans)
            for j, chans in obj["assignments"].items()
        }
        malicious = obj.get("malicious_id")
        return CorruptionProfile(
            assignments, None if malicious is None else int(malicious)
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad corruption profile: {exc}") from exc


class ExperimentConfig:
    """Fully resolved experiment description."""

    __slots__ = ("raw", "protocol", "profile", "table", "attacks", "trials",
                 "master_seed", "alpha", "sweep")

    def __init__(self, obj: dict):
        self.raw = obj
        self.protocol = protocol_from_json(obj.get("protocol") or {})
        self.profile = profile_from_json(obj.get("profile") or {"assignments": {}})
        self.profile.validate_for(self.protocol.n)
        util = obj.get("utility")
        if util is None:
            self.table = witness_table(self.protocol.message_space_size())
        else:
            try:
                if "message_space_size" not in util:
                    util = dict(util, message_space_size=self.protocol.message_space_size())
                self.table = UtilityTable.from_json(util)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad utility table: {exc}") from exc
        try:
            self.table.validate_timid()
        except UtilityError as exc:
            raise ConfigError(f"utility table not admissible: {exc}") from exc
        self.attacks = obj.get("attacks")
        self.trials = int(obj.get("trials", 1000))
        self.master_seed = int(obj.get("master_seed", 0))
        self.alpha = obj.get("alpha")
        self.sweep = obj.get("sweep")

    def resolved_json(self) -> dict:
        return {
            "protocol": self.protocol.to_json(),
            "profile": {
                "assignments": {
                    str(j): sorted(self.profile.channels_of(j))
                    for j in self.profile.adversary_ids
                },
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
    if getattr(overrides, "seed", None) is not None:
        obj["master_seed"] = overrides.seed
    if getattr(overrides, "trials", None) is not None:
        obj["trials"] = overrides.trials
    return ExperimentConfig(obj)


def check_tag_budget(config: ExperimentConfig) -> list[str]:
    """Compare the configured tag length against the matching calculator.
    Returns a list of violation messages (empty when adequately provisioned)."""
    p = config.protocol
    lam = max(1, len(config.profile.adversary_ids))
    u = derive_u_values(config.table, lam=max(2, lam) if lam > 1 else 1)
    problems = []
    try:
        if isinstance(p, SjstProtocol):
            ts = [len(config.profile.channels_of(j)) for j in config.profile.adversary_ids]
            ts = [t for t in ts if t > 0] or [1]
            if lam > 1:
                need = required_ell_pd_multi(u["u1p"], u["u2p"], u["u3p"], u["u4p"], ts,
                                             alpha=config.alpha)
            else:
                need = required_ell_pd(u["u1"], u["u2"], u["u3"], u["u4"], max(ts),
                                       alpha=config.alpha)
            if p.ell < need:
                problems.append(f"configured ell={p.ell} below required {need}")
        elif isinstance(p, RssProtocol):
            delta_max = required_delta_rss(u["u1"], u["u2"], u["u3"])
            if p.sharing.delta > delta_max:
                problems.append(
                    f"sharing failure rate {p.sharing.delta:.4f} above bound {delta_max:.4f}"
                )
        elif isinstance(p, CissProtocol) and p.variant == P1:
            need = required_ell_p1(u["u1"], u["u2"], u["u4"], p.n)
            if p.ell < need:
                problems.append(f"configured ell={p.ell} below required {need}")
        elif isinstance(p, CissProtocol) and p.variant == P2:
            if lam > 1:
                need = required_ell_p2(u["u1p"], u["u2p"], u["u3pp"])
            else:
                need = required_ell_p2(u["u1"], u["u2"], u["u3"])
            if p.ell < need:
                problems.append(f"configured ell={p.ell} below required {need}")
        elif isinstance(p, CissProtocol) and p.variant == P3:
            if lam > 1:
                prime = (u["u1p"], u["u2p"], u["u4p"])
                dprime = (u["u1pp"], u["u2pp"], u["u4pp"])
            else:
                prime = dprime = (u["u1"], u["u2"], u["u4"])
            need = required_ell_p3(prime, dprime, p.n)
            if p.ell < need:
                problems.append(f"configured ell={p.ell} below required {need}")
    except BoundError as exc:
        problems.append(f"bound calculator inapplicable: {exc}")
    return problems


def _report_header(config: ExperimentConfig) -> list[str]:
    blob = json.dumps(config.resolved_json(), sort_keys=True, separators=(",", ":"))
    return [f"# config {blob}", f"# master_seed {config.master_seed}"]


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_bounds(config: ExperimentConfig, out: str | None) -> int:
    lam = max(1, len(config.profile.adversary_ids))
    u = derive_u_values(config.table, lam=max(2, lam) if lam > 1 else 1)
    p = config.protocol
    ts = sorted(
        {len(config.profile.channels_of(j)) for j in config.profile.adversary_ids} - {0}
    ) or [1]
    rows = []

    def row(name, inputs, value):
        rows.append(f"{name},{inputs},{value}")

    try:
        row("pd-tag-bits",
            f"u=({u['u1']:g};{u['u2']:g};{u['u3']:g};{u['u4']:g}) t={max(ts)} alpha={config.alpha}",
            required_ell_pd(u["u1"], u["u2"], u["u3"], u["u4"], max(ts), alpha=config.alpha))
    except BoundError as exc:
        row("pd-tag-bits", "-", f"N/A ({exc})")
    try:
        delta = required_delta_rss(u["u1"], u["u2"], u["u3"])
        row("rss-delta", f"u=({u['u1']:g};{u['u2']:g};{u['u3']:g})", f"{delta:g}")
        d = p.d if isinstance(p, (RssProtocol, CissProtocol)) else 1
        row("rss-field-bits", f"d={d}", required_ell_rss(u["u1"], u["u2"], u["u3"], d))
    except BoundError as exc:
        row("rss-delta", "-", f"N/A ({exc})")
    try:
        row("minority-tag-bits", f"n={p.n}", required_ell_p1(u["u1"], u["u2"], u["u4"], p.n))
    except BoundError as exc:
        row("minority-tag-bits", "-", f"N/A ({exc})")
    try:
        if lam > 1:
            row("unanimous-tag-bits", "multi", required_ell_p2(u["u1p"], u["u2p"], u["u3pp"]))
        else:
            row("unanimous-tag-bits", "single", required_ell_p2(u["u1"], u["u2"], u["u3"]))
    except BoundError as exc:
        row("unanimous-tag-bits", "-", f"N/A ({exc})")
    try:
        if lam > 1:
            prime = (u["u1p"], u["u2p"], u["u4p"])
            dprime = (u["u1pp"], u["u2pp"], u["u4pp"])
        else:
            prime = dprime = (u["u1"], u["u2"], u["u4"])
        row("robust-tag-bits", f"n={p.n}", required_ell_p3(prime, dprime, p.n))
    except BoundError as exc:
        row("robust-tag-bits", "-", f"N/A ({exc})")

    lines = _report_header(config) + ["bound,inputs,value"] + rows
    _write_lines(out, lines)
    return EXIT_OK


def cmd_simulate(config: ExperimentConfig, out: str | None, dump_transcript: str | None,
                 allow_underspec: bool) -> int:
    problems = check_tag_budget(config)
    if problems and not allow_underspec:
        for msg in problems:
            print(f"config error: {msg} (use --allow-underspec to probe anyway)",
                  file=sys.stderr)
        return EXIT_CONFIG
    rows = nash_catalog_check(
        config.protocol, config.profile, config.table, config.trials,
        config.master_seed, attack_names=config.attacks,
    )
    lines = _report_header(config) + [",".join(CSV_COLUMNS)]
    lines += [",".join(r.as_csv_fields()) for r in rows]
    _write_lines(out, lines)
    if dump_transcript is not None:
        from .game.attacks import PassiveGuess
        from .game.play import play_game, trial_seed
        strategies = {j: PassiveGuess(config.protocol) for j in config.profile.adversary_ids}
        _, _, transcript = play_game(
            config.protocol, config.profile, strategies, config.table,
            trial_seed(config.master_seed, 0),
        )
        with open(dump_transcript, "w", encoding="utf-8") as fh:
            fh.write(transcript.to_json_str() + "\n")
    return EXIT_FLAG if any(r.flag for r in rows) else EXIT_OK


def cmd_verify(out: str | None) -> int:
    """Exhaustive checks at fixed tiny parameters; exact counts vs bounds."""
    lines = []
    failures = 0

    def check(name, observed, bound, ok):
        nonlocal failures
        status = "pass" if ok else "FAIL"
        if not ok:
            failures += 1
        lines.append(f"{name}: observed={observed} bound={bound} [{status}]")

    # Hash family: exact pair counts and offset collisions at m=3.
    for ell in (1, 2, 3):
        fam = HashFamilySpec(3, ell)
        expected = 2 ** (6 - 2 * ell)
        ok = True
        for x1 in range(8):
            for x2 in range(8):
                if x1 == x2:
                    continue
                counts = {}
                for h in fam.members():
                    key = (h.evaluate(x1), h.evaluate(x2))
                    counts[key] = counts.get(key, 0) + 1
                if set(counts.values()) != {expected}:
                    ok = False
        check(f"hash-pair-counts(m=3,l={ell})", "uniform" if ok else "nonuniform",
              f"{expected} per pair", ok)
        worst = 0.0
        for x1 in range(8):
            for x2 in range(8):
                for c1 in range(1 << ell):
                    for c2 in range(1 << ell):
                        if (x1, c1) == (x2, c2):
                            continue
                        worst = max(worst, offset_collision_prob_exhaustive(fam, x1, c1, x2, c2))
        check(f"hash-offset-collision(m=3,l={ell})", worst, 2.0 ** (1 - ell),
              worst <= 2.0 ** (1 - ell))

    # Tamper-evident encoding at (q,d) = (5,1) and (7,1).
    for q in (5, 7):
        f = FieldSpec.prime(q)
        observed = amd_failure_max(f, 1)
        bound = Fraction(2, q)
        check(f"amd-failure(q={q},d=1)", observed, bound, observed <= bound)

    # Threshold sharing privacy, GF(5), t=2, n=4.
    dist = shamir_privacy_distance(FieldSpec.prime(5), 2, 4)
    check("shamir-privacy(GF5,t=2,n=4)", dist, 0, dist == 0)

    # Protocol views: robust sharing (n=3, GF(4), d=1, t=2) and the minority
    # list protocol (n=3, GF(5), d=1, l=2).
    gf4 = FieldSpec.binary(2)
    rspec = RobustSharingSpec(AmdSpec(gf4, 1), SharingSpec(t=2, n=3, field=gf4))
    worst_rss = max(
        rss_view_distance(rspec, frozenset(c))
        for c in [(1, 2), (1, 3), (2, 3)]
    )
    check("rss-view(n=3,GF4,t=2)", worst_rss, 0, worst_rss == 0)
    p1 = CissProtocol(P1, 3, FieldSpec.prime(5), 1, 2)
    worst_p1 = max(ciss_view_distance(p1, frozenset({c})) for c in (1, 2, 3))
    check("minority-view(n=3,GF5,l=2)", worst_p1, 0, worst_p1 == 0)

    lines.append(f"{'FAILURES: %d' % failures if failures else 'all checks passed'}")
    _write_lines(out, lines)
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_sweep(config: ExperimentConfig, out: str | None) -> int:
    if not config.sweep or not config.sweep.get("axis") or not config.sweep.get("values"):
        print("config error: sweep requires {'axis': ..., 'values': [...]} in config",
              file=sys.stderr)
        return EXIT_CONFIG
    axis = config.sweep["axis"]
    values = config.sweep["values"]
    if axis not in ("ell", "n", "t", "trials"):
        print(f"config error: unknown sweep axis {axis!r}", file=sys.stderr)
        return EXIT_CONFIG
    attack_names = config.attacks or ["share-substitution"]
    lines = _report_header(config) + [
        "axis,value,attack,trials,suc_rate,detect_rate,undetected_wrong_rate,utility_mean"
    ]
    from .game.attacks import PassiveGuess
    for value in values:
        proto_obj = dict(config.raw["protocol"])
        trials = config.trials
        if axis == "trials":
            trials = int(value)
        else:
            proto_obj[axis] = int(value)
        try:
            protocol = protocol_from_json(proto_obj)
        except ConfigError as exc:
            print(f"config error at {axis}={value}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        for entry in catalog_for(protocol.variant, attack_names):
            strategies = {
                j: PassiveGuess(protocol) for j in config.profile.adversary_ids
            }
            first = config.profile.adversary_ids[0]
            strategies[first] = entry.factory(protocol)
            undetected_wrong = [0]

            def tally(idx, outcome, transcript, _u=undetected_wrong, _f=first):
                if not outcome.suc and not outcome.detect[_f]:
                    _u[0] += 1

            stats = run_trials(protocol, config.profile, strategies, config.table,
                               trials, config.master_seed, on_transcript=tally)
            lines.append(
                f"{axis},{value},{entry.name},{trials},{stats.suc_rate:.6f},"
                f"{stats.detect_rate[first]:.6f},{undetected_wrong[0] / trials:.6f},"
                f"{stats.utility_mean[first]:.6f}"
            )
    _write_lines(out, lines)
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
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if name == "simulate":
            sp.add_argument("--dump-transcript", default=None,
                            help="write one replayable transcript")
            sp.add_argument("--allow-underspec", action="store_true",
                            help="run even when the tag budget is below the required bound")
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            try:
                return cmd_verify(args.out)
            except EnumerationTooLarge as exc:
                print(f"refusing: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        config = load_config(args.config, args)
        if args.command == "bounds":
            return cmd_bounds(config, args.out)
        if args.command == "simulate":
            return cmd_simulate(config, args.out, args.dump_transcript, args.allow_underspec)
        if args.command == "sweep":
            return cmd_sweep(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
