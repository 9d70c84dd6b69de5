"""Runs a call in a forked child under a time limit, so a call that hangs,
in a Python loop or inside one long C call that no signal interrupts, fails
its test instead of blocking the run."""

import multiprocessing

import pytest

_FORK = multiprocessing.get_context("fork")


def in_time(call, limit: float):
    """`call()`'s return value, which must pickle, computed in a forked
    child.  AssertionError if the child is still running after `limit`
    seconds or `call` raised; the child is killed either way."""
    recv, send = _FORK.Pipe(duplex=False)

    def child():
        try:
            send.send((True, call()))
        except (Exception, pytest.fail.Exception) as exc:  # the parent fails the test
            send.send((False, f"{type(exc).__name__}: {exc}"))

    proc = _FORK.Process(target=child, daemon=True)
    proc.start()
    try:
        if not recv.poll(limit):
            raise AssertionError(f"still running after {limit} s")
        ok, value = recv.recv()
    finally:
        proc.kill()
        proc.join()
    if not ok:
        raise AssertionError(f"raised {value}")
    return value
