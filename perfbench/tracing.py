"""Spans around the public functions of each rsmt module, installed from
outside the package by replacing names where their callers look them up.

A module-level function is replaced under every name that refers to it in
any loaded ``rsmt`` module (``rsmt.transport.derive_rng`` and
``rsmt.game.play.derive_rng`` alike), because callers resolve those globals
at call time.  A method is replaced on the class that defines it.  Every
replacement is undone by ``uninstall``, which also checks that each name is
bound to its original object again.

Self time of a span is its duration minus the durations of the spans it
directly encloses, so nested layers are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, qualified name, metric key).  Several targets may share a key;
# their calls and self time are summed.
SPAN_TARGETS = (
    ("rsmt.transport", "derive_rng", "transport.derive_rng"),
    ("rsmt.transport", "execute", "transport.execute"),
    ("rsmt.transport", "Engine.send_round", "transport.Engine.send_round"),
    ("rsmt.transport", "Engine.send_public", "transport.Engine.send_public"),
    ("rsmt.transport", "Engine.emit_detect", "transport.Engine.emit_detect"),
    ("rsmt.game.play", "trial_seed", "game.trial_seed"),
    ("rsmt.game.play", "play_game", "game.play_game"),
    ("rsmt.game.play", "outcome_of", "game.outcome_of"),
    ("rsmt.game.play", "utilities_of", "game.utilities_of"),
    ("rsmt.game.play", "run_trials", "game.run_trials"),
    ("rsmt.game.nash", "nash_catalog_check", "game.nash_catalog_check"),
    ("rsmt.protocols.sjst", "sjst_round1_sender", "protocols.encode"),
    ("rsmt.protocols.ciss", "ciss_sender_encode", "protocols.encode"),
    ("rsmt.protocols.rss", "rss_send", "protocols.encode"),
    ("rsmt.protocols.strawman", "strawman_send", "protocols.encode"),
    ("rsmt.protocols.sjst", "sjst_round2_receiver", "protocols.decode"),
    ("rsmt.protocols.sjst", "sjst_round3_sender", "protocols.decode"),
    ("rsmt.protocols.sjst", "sjst_finalize_receiver", "protocols.decode"),
    ("rsmt.protocols.ciss", "ciss_receiver_decode", "protocols.decode"),
    ("rsmt.protocols.rss", "rss_receive", "protocols.decode"),
    ("rsmt.protocols.strawman", "strawman_receive", "protocols.decode"),
    ("rsmt.protocols.ciss", "mismatch_lists", "protocols.mismatch_lists"),
    ("rsmt.hashing", "HashFunction.evaluate", "hashing.HashFunction.evaluate"),
    ("rsmt.hashing", "HashFamilySpec.sample", "hashing.HashFamilySpec.sample"),
    ("rsmt.hashing", "offset_collision_prob_exhaustive",
     "hashing.offset_collision_prob_exhaustive"),
    ("rsmt.sharing", "shamir_share", "sharing.shamir_share"),
    ("rsmt.sharing", "shamir_reconstruct", "sharing.shamir_reconstruct"),
    ("rsmt.sharing", "rs_reconstruct", "sharing.rs_reconstruct"),
    ("rsmt.sharing", "rs_reconstruct_bruteforce", "sharing.rs_reconstruct_bruteforce"),
    ("rsmt.sharing", "robust_share", "sharing.robust_share"),
    ("rsmt.sharing", "robust_reconstruct", "sharing.robust_reconstruct"),
    ("rsmt.field", "interpolate", "field.interpolate"),
    ("rsmt.privacy", "amd_failure_max", "privacy.amd_failure_max"),
    ("rsmt.privacy", "shamir_privacy_distance", "privacy.shamir_privacy_distance"),
    ("rsmt.privacy", "rss_view_distance", "privacy.rss_view_distance"),
    ("rsmt.privacy", "ciss_view_distance", "privacy.ciss_view_distance"),
    ("rsmt.cli", "load_config", "cli.load_config"),
    ("rsmt.cli", "check_tag_budget", "cli.check_tag_budget"),
    ("rsmt.cli", "cmd_simulate", "cli.cmd"),
    ("rsmt.cli", "cmd_sweep", "cli.cmd"),
    ("rsmt.cli", "cmd_verify", "cli.cmd"),
)

# Strategy callbacks are wrapped on every strategy class that defines them.
STRATEGY_MODULES = ("rsmt.transport", "rsmt.game.attacks")
STRATEGY_METHODS = ("observe_and_tamper", "final_guess")

# Field arithmetic is too fine-grained for spans: counted in a separate pass.
COUNT_TARGETS = (
    ("rsmt.field", "FieldSpec.mul_int", "field.mul_int"),
    ("rsmt.field", "FieldSpec.inv_int", "field.inv_int"),
)

# Log/exp table construction, timed while the workload builds its fields.
BUILD_TARGETS = (("rsmt.field", "FieldSpec._build_tables", "field.FieldSpec.build"),)

# Keys whose every span duration is kept, for latency percentiles.
LATENCY_KEYS = ("game.play_game",)

# Keys whose returns are checked against rsmt.sharing.FAIL.
FAIL_KEYS = ("sharing.rs_reconstruct",)


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, object) for a dotted name, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        obj = owner.__dict__.get(attr)
    else:
        obj = getattr(owner, attr, None)
    if not callable(obj):
        return None
    return owner, attr, obj


class Tracer:
    """Installs wrappers, aggregates calls and self time per metric key."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.fails: dict[str, int] = {}
        self.latencies: dict[str, list[float]] = {k: [] for k in LATENCY_KEYS}
        self.missing: list[str] = []
        self._stack = [[0.0]]
        self._patches: list[tuple[object, str, object]] = []
        self._fail = None

    # -- wrappers -----------------------------------------------------------

    def _span(self, key: str, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        calls.setdefault(key, 0)
        self_s.setdefault(key, 0.0)
        latencies = self.latencies.get(key)
        fails = self.fails if key in FAIL_KEYS else None
        fail_symbol = self._fail
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - frame[0]
                if latencies is not None:
                    latencies.append(elapsed)
            if fails is not None and result is fail_symbol:
                fails[key] = fails.get(key, 0) + 1
            return result

        return wrapper

    def _counter(self, key: str, fn):
        calls = self.calls
        calls.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def _install(self, targets, make) -> None:
        for module_name, qualname, key in targets:
            found = _resolve(module_name, qualname)
            if found is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            owner, attr, original = found
            wrapper = make(key, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            # Rebind the function under every rsmt name that refers to it.
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "rsmt" or name.startswith("rsmt.")):
                    continue
                for mod_attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, mod_attr, original, wrapper)

    def install_spans(self) -> None:
        self._fail = getattr(importlib.import_module("rsmt.sharing"), "FAIL", None)
        self._install(SPAN_TARGETS, self._span)
        base = getattr(importlib.import_module("rsmt.transport"), "AdversaryStrategy", object)
        for module_name in STRATEGY_MODULES:
            for cls in vars(importlib.import_module(module_name)).values():
                if not (isinstance(cls, type) and issubclass(cls, base)
                        and cls.__module__ == module_name):
                    continue
                for method in STRATEGY_METHODS:
                    original = cls.__dict__.get(method)
                    if callable(original):
                        wrapper = self._span(f"game.strategy.{method}", original)
                        self._patch(cls, method, original, wrapper)

    def install_counters(self) -> None:
        self._install(COUNT_TARGETS, self._counter)

    def install_build_timer(self) -> None:
        self._install(BUILD_TARGETS, self._span)

    def uninstall(self) -> bool:
        """Restore every replaced name; True if all are bound to their
        originals afterwards."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return all(getattr(owner, attr) is original for owner, attr, original in patches)

    def snapshot(self) -> dict[str, tuple[int, float]]:
        return {k: (self.calls[k], self.self_s.get(k, 0.0)) for k in self.calls}
