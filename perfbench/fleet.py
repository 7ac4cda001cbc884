"""Workload inputs and the program calls every workload shares.

Inputs come from :mod:`repro.simulate`.  The buildings are one fixed fleet
(fixed simulator seeds, as in the paper-figure benchmarks), so accuracy is
the same in every run; the run's ``--seed`` drives everything else: request
arrival times, building choices and batch sizes of the traffic, and the
order in which the ``fit`` fleet is fitted.  The program under test
receives the generated records and nothing else.  Every model is fitted
with ``benchmarks/common.fast_config()``.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.common import fast_config
from repro.core import FisOne, FittedFisOne
from repro.metrics.ari import adjusted_rand_index
from repro.serving import ShardOverloadedError, save_artifacts
from repro.signals.batch import MacVocab, RecordBatch
from repro.signals.dataset import SignalDataset
from repro.signals.record import SignalRecord
from repro.simulate import (
    DriftScenario,
    DriftScenarioConfig,
    FleetConfig,
    LoadProfile,
    TrafficRequest,
    floor_counts_for_fleet,
    generate_drift_scenario,
    generate_label_traffic,
    generate_microsoft_like_fleet,
    generate_single_building,
    office_building_config,
)

#: Online traffic shape shared by the label workloads (Zipf skew 1.0; batch
#: mix of 1, 8 and 64 records at weights 0.25, 0.5 and 0.25).
TRAFFIC_SKEW = 1.0


# -- inputs ---------------------------------------------------------------------------


def split_fleet(
    num_buildings: int, samples_per_floor: int, train_per_floor: int
) -> List[Tuple[SignalDataset, List[SignalRecord]]]:
    """Fig-7-shaped offices, each split into a survey and held-out records."""
    fleet = generate_microsoft_like_fleet(
        FleetConfig(num_buildings=num_buildings, samples_per_floor=samples_per_floor)
    )
    return [dataset.holdout_split(train_per_floor) for dataset in fleet]


def large_office() -> SignalDataset:
    """The 5-floor, 240-samples-per-floor office of the ``fit`` workload."""
    return generate_single_building(num_floors=5, samples_per_floor=240, seed=500)


def warmup_office() -> SignalDataset:
    """A small office fitted before anything is timed."""
    return generate_single_building(num_floors=3, samples_per_floor=30, seed=600)


def drift_scenarios(
    num_buildings: int = 8, churn_fraction: float = 0.3
) -> List[Tuple[DriftScenario, bool]]:
    """``(scenario, drifting)`` per building: even indices drift, odd ones
    keep every access point (their post-drift wave is plain new traffic)."""
    scenarios = []
    for index, num_floors in enumerate(floor_counts_for_fleet(num_buildings)):
        drifting = index % 2 == 0
        building = office_building_config(
            num_floors=num_floors,
            samples_per_floor=60,
            building_id=f"{'drift' if drifting else 'stable'}-{index}-{num_floors}f",
        )
        scenario = generate_drift_scenario(
            DriftScenarioConfig(
                building=building,
                churn_fraction=churn_fraction if drifting else 0.0,
                post_samples_per_floor=40,
            ),
            seed=700 + index,
        )
        scenarios.append((scenario, drifting))
    return scenarios


def traffic(
    streams: Dict[str, Sequence[SignalRecord]],
    num_requests: int,
    rate_hz: Optional[float],
    seed: int,
    vocab: MacVocab,
) -> List[TrafficRequest]:
    """A deterministic request trace over per-building record streams."""
    return generate_label_traffic(
        streams,
        num_requests,
        LoadProfile(arrival_rate_hz=rate_hz, building_skew=TRAFFIC_SKEW),
        seed=seed,
        vocab=vocab,
    )


# -- fitting --------------------------------------------------------------------------


@dataclass
class FitOutcome:
    fitted: FittedFisOne
    seconds: float
    accuracy: float
    ari: float


def fit_building(dataset: SignalDataset) -> FitOutcome:
    """Fit one building from its floor-0 anchor (the paper's single label)."""
    anchor = dataset.pick_labeled_sample(floor=0)
    observed = dataset.strip_labels(keep_record_ids=[anchor.record_id])
    started = time.perf_counter()
    fitted = FisOne(fast_config()).fit(observed, anchor.record_id)
    seconds = time.perf_counter() - started
    truth = np.asarray(dataset.ground_truth)
    return FitOutcome(
        fitted=fitted,
        seconds=seconds,
        accuracy=float(np.mean(fitted.floor_labels == truth)),
        ari=float(adjusted_rand_index(truth, fitted.result.assignment.labels)),
    )


def fit_and_store(
    datasets: Sequence[SignalDataset], store, keep_generations: Optional[int] = None
) -> Tuple[List[FitOutcome], float]:
    """Fit buildings serially and persist each model under ``store``;
    returns the outcomes and the seconds spent writing the store."""
    outcomes = []
    store_s = 0.0
    for dataset in datasets:
        outcome = fit_building(dataset)
        started = time.perf_counter()
        save_artifacts(
            outcome.fitted, store / dataset.building_id, keep_generations=keep_generations
        )
        store_s += time.perf_counter() - started
        outcomes.append(outcome)
    return outcomes, store_s


# -- label requests -----------------------------------------------------------------------


def base_record_id(record_id: str) -> str:
    """A record id without the traffic generator's ``~<lap>`` suffix."""
    return record_id.split("~", 1)[0]


@dataclass
class LabelLedger:
    """Checks every answered request and accumulates accuracy.

    A request is correct when it returns one label per record, in record
    order, each floor inside the building's range, and each record keeps
    the floor it got the first time it was labeled against the same model
    generation.
    """

    truth: Dict[str, int]
    num_floors: Dict[str, int]
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    answered: int = 0
    records: int = 0
    hits: int = 0
    floors_seen: Dict[str, int] = field(default_factory=dict)

    def check(self, building_id: str, batch: RecordBatch, labels, score: bool) -> None:
        ids = [str(record_id) for record_id in batch.record_ids]
        self.answered += len(ids)
        if [label.record_id for label in labels] != ids:
            self.incorrect += 1
            return
        limit = self.num_floors[building_id]
        for record_id, label in zip(ids, labels):
            if not 0 <= label.floor < limit:
                self.incorrect += 1
                return
            base = base_record_id(record_id)
            if self.floors_seen.setdefault(base, label.floor) != label.floor:
                self.incorrect += 1
                return
            if score:
                self.records += 1
                self.hits += int(label.floor == self.truth[base])

    @property
    def accuracy(self) -> float:
        return self.hits / self.records if self.records else 0.0


def submit_retrying(server, request: TrafficRequest):
    """Submit, sleeping out each backpressure refusal; returns the future."""
    while True:
        try:
            return server.submit(request.building_id, request.records)
        except ShardOverloadedError as error:
            time.sleep(error.retry_after_s)


@dataclass
class OpenLoopResult:
    latencies_s: np.ndarray
    due_s: np.ndarray
    lags_s: np.ndarray


def _stamp(done_at: List[float], index: int, _future) -> None:
    done_at[index] = time.perf_counter()


def run_open_loop(
    server,
    trace: Sequence[TrafficRequest],
    ledger: LabelLedger,
    score: bool = True,
    until: Optional[threading.Event] = None,
) -> OpenLoopResult:
    """Send ``trace`` on its schedule from this thread, whatever is in flight,
    stopping early (after at least one request) once ``until`` is set.

    Each latency runs from the request's *due* time, so a stalled generator
    or a refused-then-retried submit charges its wait to the request.
    """
    count = len(trace)
    done_at = [0.0] * count
    lags = np.zeros(count)
    futures = []
    start = time.perf_counter()
    for index, request in enumerate(trace):
        if futures and until is not None and until.is_set():
            break
        due = start + request.offset_s
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags[index] = max(0.0, time.perf_counter() - due)
        future = submit_retrying(server, request)
        future.add_done_callback(functools.partial(_stamp, done_at, index))
        futures.append(future)
    latencies = []
    due_times = []
    for index, (request, future) in enumerate(zip(trace, futures)):
        ledger.attempted += 1
        try:
            response = future.result(timeout=60.0)
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            ledger.failed += 1
            continue
        ledger.check(request.building_id, request.records, response.labels, score)
        latencies.append(done_at[index] - (start + request.offset_s))
        due_times.append(start + request.offset_s)
    return OpenLoopResult(
        latencies_s=np.asarray(latencies),
        due_s=np.asarray(due_times),
        lags_s=lags[: len(futures)],
    )


def run_closed_loop(
    server,
    requests: Sequence[TrafficRequest],
    seconds: float,
    ledger: LabelLedger,
    outstanding: int = 32,
    window_s: float = 0.5,
) -> np.ndarray:
    """Keep ``outstanding`` requests in flight from this thread for
    ``seconds``; returns the records/s answered in each whole ``window_s``
    window of the segment.

    Callers report a median over windows, so a burst of host load that
    stalls one window does not move the whole segment's figure.
    """
    slots = threading.BoundedSemaphore(outstanding)
    sent = []
    answered: List[Tuple[float, int]] = []

    def finished(size: int, future) -> None:
        if not future.cancelled() and future.exception() is None:
            answered.append((time.perf_counter(), size))
        slots.release()

    start = time.perf_counter()
    index = 0
    while time.perf_counter() - start < seconds:
        slots.acquire()
        request = requests[index % len(requests)]
        index += 1
        try:
            future = submit_retrying(server, request)
        except BaseException:
            slots.release()
            raise
        future.add_done_callback(functools.partial(finished, len(request.records)))
        sent.append((request, future))
    for request, future in sent:
        ledger.attempted += 1
        try:
            response = future.result(timeout=60.0)
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            ledger.failed += 1
            continue
        ledger.check(request.building_id, request.records, response.labels, False)
    windows = np.zeros(max(1, int(seconds / window_s + 1e-9)))
    for at, size in answered:
        slot = int((at - start) / window_s)
        if slot < windows.size:
            windows[slot] += size
    return windows / window_s


def run_serial(
    server, requests: Sequence[TrafficRequest], ledger: LabelLedger, score: bool
) -> Tuple[float, int]:
    """One request outstanding, in trace order; returns ``(records, seconds)``."""
    records = 0
    started = time.perf_counter()
    for request in requests:
        ledger.attempted += 1
        future = submit_retrying(server, request)
        try:
            response = future.result(timeout=60.0)
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            ledger.failed += 1
            continue
        ledger.check(request.building_id, request.records, response.labels, score)
        records += len(request.records)
    return records, time.perf_counter() - started


def batches_of(
    building_id: str, records: Sequence[SignalRecord], size: int, vocab: MacVocab
) -> List[TrafficRequest]:
    """``records`` cut into fixed-size requests, in order."""
    return [
        TrafficRequest(
            offset_s=0.0,
            building_id=building_id,
            records=RecordBatch.from_records(records[start : start + size], vocab=vocab),
        )
        for start in range(0, len(records), size)
    ]
