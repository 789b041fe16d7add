"""The static half of ``Clara.analyze`` (offload lint and accelerator
identification) is memoized per IR content.

The memo must be invisible in every answer: a hit returns exactly what
a fresh lint + identify would, the key separates everything lint can
see (``clara-disable`` directives are metadata, not printed IR), a
caller cannot reach the memo's copy through a returned result, and
refitting the identifier forgets it.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

import pytest

from repro.click.elements import all_elements
from repro.core import Clara, TrainConfig
from repro.core import pipeline
from repro.core.prepare import prepare_element
from repro.nfir.analysis import lint_module
from repro.nfir.analysis.lint import SUPPRESS_META_KEY
from repro.nic.machine import NICModel
from repro.synthesis.generator import ClickGen, baseline_stats
from repro.workload import LARGE_FLOWS, SMALL_FLOWS

PACKETS = 5
WORKLOADS = [replace(w, n_packets=PACKETS) for w in (LARGE_FLOWS, SMALL_FLOWS)]


@pytest.fixture(scope="module")
def claras(clara_artifacts):
    """One trained Clara per target.  Both load the same fitted
    advisors (the memo is about answers staying equal, not about
    accuracy); lint and the key see each Clara's own target."""
    return {
        target: Clara.load(clara_artifacts["artifact"],
                           nic=NICModel(target=target))
        for target in ("nfp-4000", "dpu-offpath")
    }


@pytest.fixture()
def clara(claras):
    clara = claras["nfp-4000"]
    clara.clear_static_memo()
    return clara


@pytest.fixture()
def lint_calls(monkeypatch):
    """Counts the lint runs analyze makes (i.e. memo misses)."""
    calls = []

    def counting(module, **kwargs):
        calls.append(module.name)
        return lint_module(module, **kwargs)

    monkeypatch.setattr(pipeline, "lint_module", counting)
    return calls


def accelerator_insights(result):
    return {i.subject: i.value for i in result.report.of_type("accelerator")}


@pytest.mark.parametrize("target", ["nfp-4000", "dpu-offpath"])
def test_hits_match_memo_cleared_runs_across_the_library(claras, target,
                                                         lint_calls):
    clara = claras[target]
    names = [el.name for el in all_elements()]
    reference = {}
    for name in names:
        for spec in WORKLOADS:
            clara.clear_static_memo()
            reference[name, spec.name] = clara.analyze(name, spec).to_json()
    assert len(lint_calls) == 2 * len(names)
    del lint_calls[:]
    clara.clear_static_memo()
    for _ in range(2):  # the first pass fills the memo, the second hits
        for name in names:
            for spec in WORKLOADS:
                assert clara.analyze(name, spec).to_json() \
                    == reference[name, spec.name], (name, spec.name)
    assert len(lint_calls) == len(names)
    assert len(clara._static_memo) == len(names)


def test_hits_match_fresh_lint_and_identify_on_synthesized_programs(
        clara, lint_calls):
    for seed in range(12):
        element = ClickGen(baseline_stats(), seed=seed).element(f"gen{seed}")
        prepared = prepare_element(element)
        fresh_lint = lint_module(prepared.module, target=clara.nic.target)
        fresh_accel = {
            region: {"accel": label, "blocks": blocks}
            for region, (label, blocks)
            in clara.identifier.identify(prepared).items()
        }
        for spec in WORKLOADS:  # a miss, then a hit
            report = clara.analyze(element, spec).report
            assert [d.to_dict() for d in report.diagnostics] \
                == [d.to_dict() for d in fresh_lint.diagnostics], seed
            assert {i.subject: i.value
                    for i in report.of_type("accelerator")} \
                == fresh_accel, seed
    assert len(lint_calls) == 12


def test_suppression_directive_is_part_of_the_key(clara, lint_calls,
                                                  monkeypatch):
    spec = WORKLOADS[0]
    plain = clara.analyze("iplookup", spec)
    rules = sorted({d.rule for d in plain.report.diagnostics})
    assert len(rules) >= 2

    def with_directive(codes):
        def prepare(element):
            prepared = prepare_element(element)
            prepared.module.meta[SUPPRESS_META_KEY] = codes
            return prepared
        return prepare

    for n_suppressed, codes in enumerate((rules[:1], rules[:2]), start=1):
        monkeypatch.setattr(pipeline, "prepare_element",
                            with_directive(codes))
        report = clara.analyze("iplookup", spec).report
        assert len(lint_calls) == 1 + n_suppressed  # printed IR equal, yet a miss
        assert not {d.rule for d in report.diagnostics} & set(codes)
        prepared = with_directive(codes)(plain.prepared.element)
        assert [d.to_dict() for d in report.diagnostics] == [
            d.to_dict() for d in lint_module(
                prepared.module, target=clara.nic.target).diagnostics
        ]
    monkeypatch.setattr(pipeline, "prepare_element", prepare_element)
    assert clara.analyze("iplookup", spec).to_json() == plain.to_json()
    assert len(lint_calls) == 3


def test_mutating_a_result_does_not_reach_the_memo(clara, lint_calls):
    spec = WORKLOADS[0]
    first = clara.analyze("wepdecap", spec)
    expected = first.to_json()
    diagnostics = first.report.diagnostics
    assert diagnostics and accelerator_insights(first)
    for diag in diagnostics:
        diag.data["tampered"] = True
        for value in diag.data.values():
            if isinstance(value, (list, dict)):
                value.clear()
    diagnostics.clear()
    for value in accelerator_insights(first).values():
        value["blocks"].append("tampered")
    for _ in range(2):
        again = clara.analyze("wepdecap", spec)
        assert again.to_json() == expected
        assert accelerator_insights(again)
        for value in accelerator_insights(again).values():
            value["blocks"].append("tampered")
            again.report.diagnostics[0].data["tampered"] = True
    assert len(lint_calls) == 1


def test_refitting_clears_the_memo(clara, clara_artifacts):
    clara.analyze("aggcounter", WORKLOADS[0])
    assert len(clara._static_memo) == 1
    clara.load_state_dict(clara.state_dict())
    assert len(clara._static_memo) == 0
    clara.analyze("aggcounter", WORKLOADS[0])
    clara.train(TrainConfig.quick(), cache="require",
                cache_dir=clara_artifacts["cache_dir"])
    assert len(clara._static_memo) == 0


def test_lru_evicts_the_least_recently_used_at_its_bound(clara, lint_calls,
                                                         monkeypatch):
    monkeypatch.setattr(pipeline, "STATIC_MEMO_SIZE", 2)
    spec = WORKLOADS[0]
    for name in ("aggcounter", "udpcount", "aggcounter", "mininat"):
        clara.analyze(name, spec)
    # aggcounter was used after udpcount, so udpcount went first.
    assert lint_calls == ["aggcounter", "udpcount", "mininat"]
    assert len(clara._static_memo) == 2
    clara.analyze("aggcounter", spec)
    clara.analyze("udpcount", spec)
    assert lint_calls[3:] == ["udpcount"]
    assert len(clara._static_memo) == 2


def test_threads_analyzing_one_element_agree(clara):
    spec = WORKLOADS[1]
    expected = clara.analyze("dpi", spec).to_json()
    clara.clear_static_memo()
    results = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        for _ in range(2):
            results.append(clara.analyze("dpi", spec).to_json())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 16
    assert len(clara._static_memo) == 1
