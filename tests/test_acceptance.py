"""Acceptance gate: each numbered check re-derives a recorded result from
scratch and compares.  One line of output per criterion; every one of them
must pass.  The CLI's verify-paper subcommand runs exactly the same
functions."""

import dataclasses

import pytest

from trelliskit import reproduction


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in reproduction.run_all()}


@pytest.mark.parametrize("number", range(1, 11), ids=lambda k: f"criterion_{k:02d}")
def test_criterion(results, number):
    r = results[number]
    print(r.line)
    assert r.passed, "\n".join([r.line, *r.details])


def test_nothing_is_skipped(results):
    assert sorted(results) == list(range(1, 11))


def test_a_result_cannot_be_changed(results):
    r = results[1]
    assert r.seconds > 0 and isinstance(r.details, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.passed = False
    assert r.passed
