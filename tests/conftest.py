"""Shared fixtures plus a terminal summary that prints one line per
acceptance criterion."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from iqmix.datasets import SCORING_SYSTEM_PREFIX, PoolSet, manifest_row
from iqmix.oracle import ResponseSurface, SyntheticOracle


def make_pairs(tag: str, n: int) -> list[dict]:
    """n pool records of a tag, as a pool file holds them: one question-answer
    turn each, and the scoring system prefix on D1 records."""
    records = []
    for i in range(n):
        record = {"id": f"{tag.lower()}-{i:05d}", "image": f"images/{tag.lower()}_{i:05d}.jpg"}
        if tag == "D1":
            record["system"] = SCORING_SYSTEM_PREFIX
        record["conversations"] = [{"from": "human", "value": "<img> placeholder question"},
                                   {"from": "gpt", "value": f"answer {i}"}]
        records.append(record)
    return records


def write_records(records, path) -> None:
    """A JSON-lines pool file: one json.dumps line per record."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(record, ensure_ascii=False) + "\n" for record in records)


def read_records(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


def d1_record(image_id: str, label: str, *, inline_system: bool = False) -> dict:
    """The D1 record convert writes for one image and its level label."""
    record = {"id": image_id, "image": image_id}
    question = "<img> How would you rate the quality of the image."
    if inline_system:
        question = "Assume you are an image quality evaluator\n" + question
    else:
        record["system"] = "Assume you are an image quality evaluator"
    record["conversations"] = [{"from": "human", "value": question},
                               {"from": "gpt", "value": f"The quality of the image is {label}."}]
    return record


def make_rows(tag: str, n: int) -> list[str]:
    """The manifest rows load_pool keeps for a file of make_pairs(tag, n)."""
    return [manifest_row(tag, line, record["id"])
            for line, record in enumerate(make_pairs(tag, n), start=1)]


def make_pools(n1: int, n2: int, n3: int) -> PoolSet:
    return PoolSet(make_rows("D1", n1), make_rows("D2", n2), make_rows("D3", n3))


def planted_oracle(noise_sigma: float = 0.0, **overrides) -> SyntheticOracle:
    """Synthetic oracle with maxima at D2:D3=2.42 and (D2+D3):D1=3.54."""
    kwargs = dict(
        scoring_surface=ResponseSurface(3.54, 0.85, 0.25),
        interpreting_surface=ResponseSurface(2.42, 0.75, 0.25),
        noise_sigma=noise_sigma,
    )
    kwargs.update(overrides)
    return SyntheticOracle(**kwargs)


@pytest.fixture
def pools_small() -> PoolSet:
    return make_pools(200, 400, 400)


@pytest.fixture
def forked_loads(monkeypatch) -> list[tuple[str, str]]:
    """The CLI loads every pool but the largest in a forked child; the list
    gets the (path, tag) of each pool sent to a child."""
    from iqmix import cli

    forked, fork_load = [], cli._fork_load
    monkeypatch.setattr(cli, "FORK_MIN_BYTES", 0)
    monkeypatch.setattr(cli, "_fork_load",
                        lambda path, tag: forked.append((path, tag)) or fork_load(path, tag))
    return forked


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
