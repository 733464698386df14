"""Shared fixtures plus a terminal summary that prints one line per
acceptance criterion."""

from __future__ import annotations

import pytest

from iqmix.datasets import SCORING_SYSTEM_PREFIX, InstructionPair, PoolSet, manifest_row
from iqmix.oracle import ResponseSurface, SyntheticOracleConfig


def make_pairs(tag: str, n: int) -> list[InstructionPair]:
    system = SCORING_SYSTEM_PREFIX if tag == "D1" else None
    return [
        InstructionPair(
            id=f"{tag.lower()}-{i:05d}",
            image_ref=f"images/{tag.lower()}_{i:05d}.jpg",
            system=system,
            question="<img> placeholder question",
            answer=f"answer {i}",
            pool=tag,
        )
        for i in range(n)
    ]


def pair_record(pair: InstructionPair) -> dict:
    """Every field write_pairs writes for a pair, as json.loads reads it
    back (no 'system' key when the pair has none)."""
    record = {"id": pair.id, "image": pair.image_ref}
    if pair.system is not None:
        record["system"] = pair.system
    record["conversations"] = [
        {"from": who, "value": value}
        for human, assistant in ((pair.question, pair.answer), *pair.extra_turns)
        for who, value in (("human", human), ("gpt", assistant))
    ]
    return record


def make_rows(tag: str, n: int) -> list[str]:
    """The manifest rows load_pool keeps for a file of make_pairs(tag, n)."""
    return [manifest_row(tag, line, pair.id)
            for line, pair in enumerate(make_pairs(tag, n), start=1)]


def make_pools(n1: int, n2: int, n3: int) -> PoolSet:
    return PoolSet(make_rows("D1", n1), make_rows("D2", n2), make_rows("D3", n3))


def planted_config(noise_sigma: float = 0.0, **overrides) -> SyntheticOracleConfig:
    """Synthetic oracle with maxima at D2:D3=2.42 and (D2+D3):D1=3.54."""
    kwargs = dict(
        scoring_surface=ResponseSurface(3.54, 0.85, 0.25),
        interpreting_surface=ResponseSurface(2.42, 0.75, 0.25),
        noise_sigma=noise_sigma,
    )
    kwargs.update(overrides)
    return SyntheticOracleConfig(**kwargs)


@pytest.fixture
def pools_small() -> PoolSet:
    return make_pools(200, 400, 400)


# Acceptance summary -----------------------------------------------------------

_acceptance_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_outcomes[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _acceptance_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(_acceptance_outcomes):
        outcome = _acceptance_outcomes[name]
        tag = {"passed": "PASS", "skipped": "SKIP"}.get(outcome, "FAIL")
        terminalreporter.write_line(f"  {tag}  {name}")
