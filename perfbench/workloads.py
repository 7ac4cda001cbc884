"""The three workloads.  Each returns a :class:`RunResult`.

Every workload reports every end-to-end metric of ``BENCHMARK.json``; the
README's workload table says what each one means on each workload.  With
``trace`` the timed part runs once untraced (for the tracing overhead) and
once under the span recorder, and the per-layer metrics are reported.
"""

from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import gc
import multiprocessing
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from benchmarks.common import fast_config
from repro.core.pipeline import FisOne
from repro.gnn.frozen import FrozenEncoder
from repro.gnn.model import RFGNN
from repro.gnn.trainer import RFGNNTrainer
from repro.graph.alias import AliasTables
from repro.graph.negative_sampling import NegativeSampler
from repro.graph.walks import RandomWalkGenerator
from repro.nn.sparse import SparseAdam
from repro.core import FittedFisOne
from repro.serving import ShardedFleetServer, load_artifacts, save_artifacts
from repro.signals.batch import MacVocab

import fleet
from tracing import (
    GcPauses,
    SpanRecorder,
    counter_delta,
    cpu_seconds,
    histogram_delta,
    peak_rss_mb,
)

#: Accuracy floors of the output checks — well below the measured values
#: (README), so they catch a broken pipeline, not a seed's bad luck.
MIN_FIT_ACCURACY = 0.85
MIN_LABEL_ACCURACY = 0.8
MIN_DRIFT_LABEL_ACCURACY = 0.6

#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 3

#: Minimum timed passes over the ``fit`` fleet (``fit_s`` is their median;
#: the first pass in a process runs slower than later ones).  Each pass is
#: served once, with segments lasting these shares of ``--seconds``, so the
#: label figures of ``fit`` are spread over the run like the fits.
FIT_PASSES = 3
FIT_OPEN_SHARE = 0.05
FIT_CLOSED_SHARE = 0.15

#: Requests in flight in ``fit``'s closed loop.  With one, the loop is
#: bound by request latency and leaves a core idle; with 32 (as on
#: ``label-hot``) three processes share two cores, and in scratch runs its
#: throughput moved about twice as much with the host's load.
FIT_OUTSTANDING = 1

#: ``label-hot`` runs this many server lifetimes, each with an open-loop
#: segment and a closed-loop segment, lasting these shares of ``--seconds``.
#: Closed-loop throughput is the noisiest figure on a shared host, so it
#: gets the longer segment.
HOT_ROUNDS = 3
OPEN_SHARE = 0.15
CLOSED_SHARE = 0.3

#: Buildings the label workloads fit again after each round or cycle, with
#: no server running, so that their ``fit_s`` samples the whole run and not
#: only the set-up.
REFITS_PER_ROUND = 1

#: The closed-loop request list is the same in every run, so its mix of
#: batch sizes (which sets records per request) does not vary with the seed;
#: the seed drives the open-loop traces.
CLOSED_TRACE_SEED = 0

#: Minimum ``label-drift`` cycles (restore, feed, refresh under reads, label).
DRIFT_CYCLES = 4

#: Fixed open-loop rates (requests/s) of the label workloads.
HOT_RATE_HZ = 100.0
DRIFT_READ_RATE_HZ = 60.0


@dataclass
class RunResult:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


# -- span targets -----------------------------------------------------------------

FIT_TARGETS = (
    (FisOne, "fit", "core.fit"),
    (FisOne, "build_graph", "graph.build"),
    (AliasTables, "from_csr", "graph.alias"),
    (RandomWalkGenerator, "positive_pairs", "graph.walks"),
    (NegativeSampler, "sample_for_pairs", "gnn.negatives"),
    (RFGNN, "sample_tree", "gnn.tree_sample"),
    (RFGNN, "forward_from_tree", "gnn.forward"),
    (RFGNN, "backward", "gnn.backward"),
    (SparseAdam, "step", "nn.step"),
    (SparseAdam, "catch_up", "nn.catch_up"),
    (SparseAdam, "flush", "nn.flush"),
    (RFGNNTrainer, "train_epoch", "gnn.train"),
    (RFGNNTrainer, "sample_embeddings", "gnn.infer"),
    (FrozenEncoder, "from_model", "gnn.snapshot"),
    (FisOne, "cluster", "clustering.cluster"),
    (FisOne, "index_clusters", "indexing.index"),
)

SERVING_TARGETS = ((ShardedFleetServer, "submit", "sharded.submit"),)


class TreeCounter:
    """Bottom-level entries and unique nodes of every sampled tree."""

    def __init__(self) -> None:
        self.rows = 0
        self.unique = 0

    def __call__(self, tree) -> None:
        bottom = tree.layer_nodes[0]
        self.rows += int(bottom.shape[0])
        self.unique += int(np.unique(bottom).shape[0])


def fit_recorder(trees: TreeCounter) -> SpanRecorder:
    return SpanRecorder(FIT_TARGETS, on_result={"gnn.tree_sample": trees})


def fit_layer_metrics(
    recorder: SpanRecorder, trees: TreeCounter, aris: Sequence[float]
) -> Dict[str, float]:
    total = recorder.total
    return {
        "graph.build_s": total("graph.build"),
        "graph.alias_s": total("graph.alias"),
        "graph.walks_s": total("graph.walks"),
        "gnn.negatives_s": total("gnn.negatives"),
        "gnn.tree_sample_s": total("gnn.tree_sample"),
        "gnn.forward_s": total("gnn.forward"),
        "gnn.backward_s": total("gnn.backward"),
        "nn.optimizer_s": total("nn.step") + total("nn.catch_up") + total("nn.flush"),
        "gnn.train_s": recorder.self_time("gnn.train"),
        "gnn.steps": float(recorder.count("nn.step")),
        "gnn.level0_rows": float(trees.rows),
        "gnn.level0_unique_frac": trees.unique / trees.rows if trees.rows else 0.0,
        "gnn.infer_s": total("gnn.infer"),
        "gnn.snapshot_s": total("gnn.snapshot"),
        "clustering.cluster_s": total("clustering.cluster"),
        "clustering.ari": float(np.mean(aris)) if aris else 0.0,
        "indexing.index_s": total("indexing.index"),
        "core.fit_self_s": recorder.self_time("core.fit"),
    }


# -- helpers ------------------------------------------------------------------------


def work_dir(root: Path) -> Path:
    """A per-process scratch directory inside the checkout."""
    path = root / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def shard_pids() -> List[int]:
    return [child.pid for child in multiprocessing.active_children()]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def per_record(samples: Sequence[tuple], records: int) -> float:
    """``records`` times the seconds per record over every ``(seconds,
    records)`` sample of the run.

    The samples are spread over the run, so a burst or a slow phase of the
    host weighs on a few of them, not on the whole figure.
    """
    return records * sum(seconds for seconds, _ in samples) / sum(n for _, n in samples)


def percentile_ms(latencies_s: np.ndarray, q: float) -> float:
    return float(np.percentile(latencies_s, q) * 1e3) if latencies_s.size else 0.0


# -- fit -----------------------------------------------------------------------------


def run_fit(root: Path, seed: int, seconds: float, trace: bool) -> RunResult:
    offices = fleet.split_fleet(6, 80, 60)
    fleet_datasets = [train for train, _ in offices] + [fleet.large_office()]
    warm = fleet.warmup_office()
    vocab = MacVocab()
    streams = {train.building_id: held for train, held in offices}
    truth = {r.record_id: r.floor for _, held in offices for r in held}
    num_floors = {dataset.building_id: dataset.num_floors for dataset in fleet_datasets}
    open_count = int(HOT_RATE_HZ * FIT_OPEN_SHARE * seconds)
    closed_s = FIT_CLOSED_SHARE * seconds
    closed_trace = fleet.traffic(streams, 1000, None, CLOSED_TRACE_SEED, vocab)
    warm_requests = one_record_requests(streams, vocab)
    evaluation = every_record_requests(streams, vocab)
    # The two largest offices are refreshed after every pass.
    refreshed = offices[-2:]
    order = np.random.default_rng(seed)
    problems: List[str] = []

    def open_trace(index: int) -> List[fleet.TrafficRequest]:
        return fleet.traffic(streams, open_count, HOT_RATE_HZ, seed * 1000 + index, vocab)

    def serve(outcomes, index: int, ledger, scored, submits=None):
        """Store one pass's models and serve them for one round; returns the
        round, its fleet snapshots and CPU seconds, and the store seconds."""
        store = directory / f"pass-{index}"
        try:
            started = time.perf_counter()
            for building_id, outcome in outcomes.items():
                save_artifacts(outcome.fitted, store / building_id)
            store_s = time.perf_counter() - started
            served, layers = hot_round(
                store, warm_requests, open_trace(index), closed_trace, closed_s,
                ledger, evaluation, scored, submits, FIT_OUTSTANDING,
            )
        finally:
            shutil.rmtree(store, ignore_errors=True)
        return served, layers, store_s

    setups = [fleet.fit_building(warm).seconds for _ in range(SETUP_REPEATS)]

    passes, cpu, refreshes, rounds, serve_setups = [], [], [], [], []
    ledgers: List[fleet.LabelLedger] = []
    accuracies, label_accuracies = set(), set()
    directory = work_dir(root)
    try:
        started = time.perf_counter()
        while len(passes) < FIT_PASSES or time.perf_counter() - started < seconds:
            cpu_started = time.process_time()
            pass_started = time.perf_counter()
            outcomes = {
                fleet_datasets[index].building_id: fleet.fit_building(fleet_datasets[index])
                for index in order.permutation(len(fleet_datasets))
            }
            passes.append(time.perf_counter() - pass_started)
            cpu.append(time.process_time() - cpu_started)
            accuracies.add(fit_accuracies(outcomes))
            # Refitted models label afresh, so each pass has its own ledger.
            ledger = fleet.LabelLedger(truth, num_floors)
            scored = fleet.LabelLedger(truth, num_floors, floors_seen=ledger.floors_seen)
            served, _, store_s = serve(outcomes, len(passes), ledger, scored)
            rounds.append(served)
            serve_setups.append(store_s + served.setup_s)
            ledgers += [ledger, scored]
            label_accuracies.add(scored.accuracy)
            models = {building_id: o.fitted for building_id, o in outcomes.items()}
            refreshes += refresh_in_process(models, refreshed)
        if trace:
            trees = TreeCounter()
            with fit_recorder(trees) as recorder:
                traced_started = time.perf_counter()
                traced = {
                    dataset.building_id: fleet.fit_building(dataset)
                    for dataset in fleet_datasets
                }
                traced_s = time.perf_counter() - traced_started
            if fit_accuracies(traced) not in accuracies:
                problems.append("fit accuracy of the traced pass differs from the untraced passes")
            traced_ledger = fleet.LabelLedger(truth, num_floors)
            traced_scored = fleet.LabelLedger(
                truth, num_floors, floors_seen=traced_ledger.floors_seen
            )
            submits = SpanRecorder(SERVING_TARGETS)
            _, (before, after, records, cpu_s), _ = serve(
                traced, 0, traced_ledger, traced_scored, submits
            )
            ledgers += [traced_ledger, traced_scored]
            label_accuracies.add(traced_scored.accuracy)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    accuracy = float(np.mean([outcome.accuracy for outcome in outcomes.values()]))
    if len(accuracies) != 1:
        problems.append("fit accuracy differs between passes over the same fleet")
    if accuracy < MIN_FIT_ACCURACY:
        problems.append(f"fit accuracy {accuracy:.4f} below {MIN_FIT_ACCURACY}")
    if len(label_accuracies) != 1:
        problems.append(f"label accuracy differs between passes: {sorted(label_accuracies)}")
    if scored.accuracy < MIN_LABEL_ACCURACY:
        problems.append(f"label accuracy {scored.accuracy:.4f} below {MIN_LABEL_ACCURACY}")
    for each in ledgers:
        problems.extend(_ledger_problems(each))

    attempted = sum(each.attempted for each in ledgers)
    failed = sum(each.failed for each in ledgers)
    latencies = np.concatenate([r.latencies_s for r in rounds])
    metrics = {
        "setup_s": median(setups) + median(serve_setups),
        "fit_s": median(passes),
        "fit_accuracy": accuracy,
        "label_p50_ms": percentile_ms(latencies, 50),
        "label_rps": median(np.concatenate([r.rates for r in rounds])),
        "label_accuracy": scored.accuracy,
        "label_ok_frac": 1.0 - failed / attempted,
        "refresh_s": per_record(refreshes, sum(len(held) for _, held in refreshed)),
        "rss_peak_mb": max(r.rss_parts[0] for r in rounds),
    }
    attempted += (len(fleet_datasets) + len(refreshed)) * len(passes)
    result = RunResult(metrics, attempted, failed, problems)
    result.notes.append(
        f"{len(passes)} passes over the fleet: {', '.join(f'{p:.3f}' for p in passes)} s"
    )
    result.notes.append(
        f"refreshes: {', '.join(f'{seconds:.3f}' for seconds, _ in refreshes)} s"
    )
    result.notes += [round_note(r) for r in rounds]
    if trace:
        result.attempted += len(fleet_datasets)
        layers = fit_layer_metrics(recorder, trees, [o.ari for o in traced.values()])
        layers.update(serving_layer_metrics(before, after, submits, records, cpu_s))
        layers.update(
            {
                "label.p99_ms": percentile_ms(latencies, 99),
                "label.samples": float(latencies.size),
                "label.gen_lag_p99_ms": percentile_ms(
                    np.concatenate([r.lags_s for r in rounds]), 99
                ),
                "fit.cpu_s": median(cpu),
                "runtime.gc_gen2_pauses": sum(r.gc_pauses for r in rounds) / len(rounds),
                "runtime.gc_gen2_pause_s": sum(r.gc_pause_s for r in rounds) / len(rounds),
                "trace.overhead_frac": traced_s / metrics["fit_s"] - 1.0,
            }
        )
        result.metrics = layers
    return result


def fit_accuracies(outcomes: Dict[str, fleet.FitOutcome]) -> tuple:
    """``(building, accuracy)`` pairs of one pass, in building order."""
    return tuple(sorted((building_id, o.accuracy) for building_id, o in outcomes.items()))


def warm_fit(datasets: Sequence) -> float:
    """Fit the largest building ``SETUP_REPEATS`` times before the timed
    fits; returns the median seconds.

    The first large fit in a process grows the heap (hundreds of thousands of
    page faults), which would otherwise land in the first timed fit.
    """
    largest = max(datasets, key=lambda dataset: dataset.num_floors)
    return median([fleet.fit_building(largest).seconds for _ in range(SETUP_REPEATS)])


def refresh_in_process(models: Dict[str, FittedFisOne], offices) -> List[tuple]:
    """Refresh each ``(survey, held-out)`` office's fitted model with its
    held-out records through ``FittedFisOne.refresh``; returns one
    ``(seconds, records)`` sample per office."""
    samples = []
    for train, held in offices:
        records = [r.without_floor() for r in held]
        started = time.perf_counter()
        models[train.building_id].refresh(records)
        samples.append((time.perf_counter() - started, len(records)))
    return samples


def refit(datasets: Sequence, outcomes: Dict[str, fleet.FitOutcome], problems) -> List[tuple]:
    """Fit ``datasets`` again, checking that each reproduces the accuracy of
    its earlier fit in ``outcomes``; returns ``(seconds, records)`` samples."""
    samples = []
    for dataset in datasets:
        outcome = fleet.fit_building(dataset)
        if outcome.accuracy != outcomes[dataset.building_id].accuracy:
            problems.append(f"refit of {dataset.building_id} changed its accuracy")
        samples.append((outcome.seconds, len(dataset)))
    return samples


def fit_samples(outcomes: Sequence[fleet.FitOutcome], datasets: Sequence) -> List[tuple]:
    return [(outcome.seconds, len(dataset)) for outcome, dataset in zip(outcomes, datasets)]


def rotation(datasets: Sequence, index: int) -> Sequence:
    """The ``REFITS_PER_ROUND`` datasets refitted after round ``index``."""
    first = index * REFITS_PER_ROUND
    return [datasets[(first + k) % len(datasets)] for k in range(REFITS_PER_ROUND)]


# -- serving helpers -------------------------------------------------------------------


def one_record_requests(streams, vocab: MacVocab) -> List[fleet.TrafficRequest]:
    """The warm-up: one single-record request per building."""
    return [
        fleet.batches_of(building_id, list(records[:1]), 1, vocab)[0]
        for building_id, records in streams.items()
    ]


def every_record_requests(streams, vocab: MacVocab) -> List[fleet.TrafficRequest]:
    """Every held-out record once, in a fixed order: the accuracy pass."""
    return [
        request
        for building_id, records in streams.items()
        for request in fleet.batches_of(building_id, list(records), 64, vocab)
    ]


def release_heap() -> None:
    """Return the benchmark's own freed memory to the OS before forking shards.

    Shards are forked from this process and inherit its resident pages; how
    much freed fitting garbage the allocator still holds varies from run to
    run, and would otherwise show up, doubled, in the shards' peak RSS.
    """
    gc.collect()
    libc = ctypes.util.find_library("c")
    if libc is not None and hasattr(ctypes.CDLL(libc), "malloc_trim"):
        ctypes.CDLL(libc).malloc_trim(0)


def timed_start(store: Path, warm_requests, **options):
    """Start a two-shard fleet and send one request per building, so every
    model is loaded before timing; returns the server and the seconds."""
    release_heap()
    started = time.perf_counter()
    server = ShardedFleetServer(store, num_workers=2, config=fast_config(), **options).start()
    try:
        for request in warm_requests:
            server.submit(request.building_id, request.records).result(timeout=120.0)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def fleet_peak_rss_mb() -> List[float]:
    """High-water RSS of this process, then of each live shard (MB); read
    before stop."""
    return [peak_rss_mb(pid) for pid in (os.getpid(), *shard_pids())]


def rss_parts_text(parts: Sequence[float]) -> str:
    return ", ".join(f"{part:.1f}" for part in parts)


def serving_layer_metrics(
    before, after, submits: SpanRecorder, records: int, cpu_s: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced serving pass.

    ``before``/``after`` are fleet snapshots bracketing the pass (``before``
    ``None``: the whole life of the server).  Model loads, refreshes,
    persists and drift trips always count from the server's start, so the
    warm-up loads of set-up are included.
    """
    roundtrip = histogram_delta(before, after, "fleet_shard_roundtrip_seconds")
    requests = histogram_delta(before, after, "fleet_request_latency_seconds")
    batches = histogram_delta(before, after, "fleet_batch_label_seconds")
    loads = histogram_delta(None, after, "fisone_model_op_seconds", op="load")
    calls = submits.count("sharded.submit")
    return {
        "sharded.submit_us_per_req": (
            submits.total("sharded.submit") / calls * 1e6 if calls else 0.0
        ),
        "sharded.wire_encode_s": histogram_delta(
            before, after, "fleet_wire_encode_seconds"
        ).sum,
        "sharded.roundtrip_p50_ms": roundtrip.quantile(0.5) * 1e3,
        "sharded.rejections": counter_delta(
            before, after, "fleet_shard_rejections_total"
        ),
        "server.wire_decode_s": histogram_delta(
            before, after, "fleet_wire_decode_seconds"
        ).sum,
        "server.request_p50_ms": requests.quantile(0.5) * 1e3,
        "server.batch_label_s": batches.sum,
        "server.records_per_batch": (
            counter_delta(before, after, "fleet_records_total") / batches.count
            if batches.count
            else 0.0
        ),
        "online.label_s": histogram_delta(before, after, "fisone_label_seconds").sum,
        "registry.loads": float(loads.count),
        "registry.load_s": loads.sum,
        "registry.refresh_s": histogram_delta(
            None, after, "fisone_model_op_seconds", op="refresh"
        ).sum,
        "artifacts.persist_s": histogram_delta(
            None, after, "fisone_model_op_seconds", op="persist"
        ).sum,
        "drift.trips": counter_delta(None, after, "fisone_drift_trips_total"),
        "fleet.cpu_us_per_record": cpu_s / records * 1e6 if records else 0.0,
    }


def all_cpu_seconds() -> float:
    return cpu_seconds([os.getpid(), *shard_pids()])


# -- label-hot ---------------------------------------------------------------------------


@dataclass
class HotRound:
    setup_s: float
    latencies_s: np.ndarray
    lags_s: np.ndarray
    rates: np.ndarray
    rss_parts: List[float]
    gc_pauses: int
    gc_pause_s: float


def hot_round(store, warm_requests, open_trace, closed_trace, closed_s, ledger,
              evaluation=None, scored=None, submits=None, outstanding=32):
    """One server lifetime: start and warm up (set-up), an open-loop segment,
    a closed-loop segment with ``outstanding`` requests in flight, then stop.

    Gen-2 collections are counted over the two label segments only.  With
    ``evaluation`` the round finally labels every held-out record into
    ``scored``; with ``submits`` the label segments run under that span
    recorder and the round also returns fleet snapshots and CPU seconds.
    """
    server, setup_s = timed_start(store, warm_requests)
    try:
        before = server.fleet_metrics() if submits is not None else None
        cpu_before = all_cpu_seconds()
        answered_before = ledger.answered
        with submits if submits is not None else contextlib.nullcontext():
            with GcPauses() as pauses:
                open_loop = fleet.run_open_loop(server, open_trace, ledger)
                rates = fleet.run_closed_loop(
                    server, closed_trace, closed_s, ledger, outstanding
                )
        cpu_s = all_cpu_seconds() - cpu_before
        records = ledger.answered - answered_before
        after = server.fleet_metrics() if submits is not None else None
        if evaluation is not None:
            fleet.run_serial(server, evaluation, scored, True)
        rss_parts = fleet_peak_rss_mb()
    finally:
        server.stop()
    result = HotRound(
        setup_s,
        open_loop.latencies_s,
        open_loop.lags_s,
        rates,
        rss_parts,
        pauses.pauses,
        pauses.seconds,
    )
    return result, (before, after, records, cpu_s)


def round_note(r: HotRound) -> str:
    return (
        f"round: closed loop {median(r.rates):.0f} records/s (median of {r.rates.size} "
        f"windows); peak RSS (MB) of benchmark and shards: {rss_parts_text(r.rss_parts)}"
    )


def refresh_from_store(store: Path, offices) -> List[tuple]:
    """Load each office's model from ``store`` and refresh it in-process;
    returns ``(seconds, records)`` per office (loads excluded)."""
    models = {train.building_id: load_artifacts(store / train.building_id) for train, _ in offices}
    return refresh_in_process(models, offices)


def run_label_hot(root: Path, seed: int, seconds: float, trace: bool) -> RunResult:
    offices = fleet.split_fleet(8, 90, 60)
    trains = [train for train, _ in offices]
    streams = {train.building_id: held for train, held in offices}
    truth = {r.record_id: r.floor for _, held in offices for r in held}
    num_floors = {train.building_id: train.num_floors for train in trains}
    vocab = MacVocab()
    open_s = OPEN_SHARE * seconds
    closed_s = CLOSED_SHARE * seconds
    open_traces = [
        fleet.traffic(
            streams, int(HOT_RATE_HZ * open_s), HOT_RATE_HZ, seed * HOT_ROUNDS + k, vocab
        )
        for k in range(HOT_ROUNDS)
    ]
    closed_trace = fleet.traffic(streams, 1000, None, CLOSED_TRACE_SEED, vocab)
    warm_requests = one_record_requests(streams, vocab)
    evaluation = every_record_requests(streams, vocab)
    problems: List[str] = []

    directory = work_dir(root)
    store = directory / "store"
    try:
        warm_s = warm_fit(trains)
        trees = TreeCounter()
        recorder = fit_recorder(trees) if trace else contextlib.nullcontext()
        cpu_started = time.process_time()
        with recorder:
            outcomes, store_s = fleet.fit_and_store(trains, store)
        fit_cpu_s = time.process_time() - cpu_started
        ledger = fleet.LabelLedger(truth, num_floors)
        scored = fleet.LabelLedger(truth, num_floors, floors_seen=ledger.floors_seen)
        fits = fit_samples(outcomes, trains)
        by_id = {train.building_id: outcome for train, outcome in zip(trains, outcomes)}
        rounds: List[HotRound] = []
        refreshes = []
        for index, open_trace in enumerate(open_traces):
            last = index == len(open_traces) - 1
            round_result, _ = hot_round(
                store, warm_requests, open_trace, closed_trace, closed_s, ledger,
                evaluation if last else None, scored,
            )
            rounds.append(round_result)
            # After each round, with no server running, so the refreshes and
            # refits are spread over the run like the rounds; each refresh
            # loads the models fresh, so no refresh state carries over.
            refreshes += refresh_from_store(store, offices[-2:])
            fits += refit(rotation(trains, index), by_id, problems)
        if trace:
            submits = SpanRecorder(SERVING_TARGETS)
            traced_ledger = fleet.LabelLedger(truth, num_floors, floors_seen=ledger.floors_seen)
            traced, (before, after, records, cpu_s) = hot_round(
                store, warm_requests, open_traces[0], closed_trace, closed_s,
                traced_ledger, submits=submits,
            )
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    ledgers = [ledger, scored] + ([traced_ledger] if trace else [])
    fit_accuracy = float(np.mean([outcome.accuracy for outcome in outcomes]))
    for each in ledgers:
        problems.extend(_ledger_problems(each))
    if fit_accuracy < MIN_FIT_ACCURACY:
        problems.append(f"fit accuracy {fit_accuracy:.4f} below {MIN_FIT_ACCURACY}")
    if scored.accuracy < MIN_LABEL_ACCURACY:
        problems.append(f"label accuracy {scored.accuracy:.4f} below {MIN_LABEL_ACCURACY}")
    attempted = sum(each.attempted for each in ledgers)
    failed = sum(each.failed for each in ledgers)
    latencies = np.concatenate([r.latencies_s for r in rounds])
    metrics = {
        "setup_s": warm_s + store_s + median([r.setup_s for r in rounds]),
        "fit_s": per_record(fits, sum(len(train) for train in trains)),
        "fit_accuracy": fit_accuracy,
        "label_p50_ms": percentile_ms(latencies, 50),
        "label_rps": median(np.concatenate([r.rates for r in rounds])),
        "label_accuracy": scored.accuracy,
        "label_ok_frac": 1.0 - failed / attempted,
        "refresh_s": per_record(refreshes, sum(len(held) for _, held in offices[-2:])),
        "rss_peak_mb": median([sum(r.rss_parts) for r in rounds]),
    }
    result = RunResult(metrics, attempted + len(fits) + len(refreshes), failed, problems)
    result.notes.append(setup_note(warm_s, store_s, [r.setup_s for r in rounds]))
    result.notes += [round_note(r) for r in rounds]
    if trace:
        layers = serving_layer_metrics(before, after, submits, records, cpu_s)
        layers.update(fit_layer_metrics(recorder, trees, [o.ari for o in outcomes]))
        layers.update(
            {
                "fit.cpu_s": fit_cpu_s,
                "label.p99_ms": percentile_ms(latencies, 99),
                "label.samples": float(latencies.size),
                "label.gen_lag_p99_ms": percentile_ms(
                    np.concatenate([r.lags_s for r in rounds]), 99
                ),
                "runtime.gc_gen2_pauses": sum(r.gc_pauses for r in rounds) / len(rounds),
                "runtime.gc_gen2_pause_s": sum(r.gc_pause_s for r in rounds) / len(rounds),
                "trace.overhead_frac": (
                    np.median(traced.latencies_s) / np.median(rounds[0].latencies_s) - 1.0
                ),
            }
        )
        result.metrics = layers
    return result


def setup_note(warm_s: float, store_s: float, starts: Sequence[float]) -> str:
    """The parts of a label workload's ``setup_s``."""
    return (
        f"set-up: warm-up fit {warm_s:.3f} s (median), store writes {store_s:.3f} s, "
        f"server starts {', '.join(f'{start:.3f}' for start in starts)} s"
    )


def _ledger_problems(ledger: fleet.LabelLedger) -> List[str]:
    problems = []
    if ledger.incorrect:
        problems.append(f"{ledger.incorrect} responses failed the output checks")
    return problems


# -- label-drift ------------------------------------------------------------------------


@dataclass
class DriftCycle:
    setup_s: float
    refresh_s: float
    accepted: List[str]
    label_rps: float
    post_accuracy: float
    post_floors: Dict[str, int]
    reads: fleet.OpenLoopResult
    sweep_window: tuple
    rss_parts: List[float]
    ledgers: List[fleet.LabelLedger]
    gc_pauses: int
    gc_pause_s: float


def drift_cycle(
    directory: Path,
    index: int,
    requests,
    drifting: List[str],
    ledger_args,
    submits: Optional[SpanRecorder] = None,
):
    """Restore the fitted store, serve it, feed drift, refresh under reads,
    and label the rest of the drifted waves from the refreshed models.

    Gen-2 collections are counted over the three label phases.  Returns the
    cycle plus the fleet snapshot and the fleet CPU seconds of its label
    phases.
    """
    warm_requests, feed, reads, later = requests
    store = directory / f"cycle-{index}"
    started = time.perf_counter()
    shutil.copytree(directory / "pristine", store)
    copy_s = time.perf_counter() - started
    server, start_s = timed_start(store, warm_requests, keep_generations=3)
    try:
        cpu_before = all_cpu_seconds()
        before_ledger = fleet.LabelLedger(*ledger_args)
        post_ledger = fleet.LabelLedger(*ledger_args)
        with submits if submits is not None else contextlib.nullcontext():
            with GcPauses() as pauses:
                feed_records, feed_s = fleet.run_serial(server, feed, before_ledger, False)
                outcome: Dict[str, object] = {}
                swept = threading.Event()

                def sweep() -> None:
                    sweep_started = time.perf_counter()
                    try:
                        outcome["reports"] = server.refresh_drifted(drifting, timeout_s=120.0)
                    except BaseException as error:  # re-raised on the main thread
                        outcome["error"] = error
                    outcome["window"] = (sweep_started, time.perf_counter())
                    swept.set()

                sweeper = threading.Thread(target=sweep, name="perfbench-refresh")
                sweeper.start()
                try:
                    read_result = fleet.run_open_loop(
                        server, reads, before_ledger, False, until=swept
                    )
                finally:
                    sweeper.join()
                if "error" in outcome:
                    raise outcome["error"]
                later_records, later_s = fleet.run_serial(server, later, post_ledger, True)
        cpu_s = all_cpu_seconds() - cpu_before
        after = server.fleet_metrics()
        rss_parts = fleet_peak_rss_mb()
    finally:
        server.stop()
        shutil.rmtree(store, ignore_errors=True)
    window = outcome["window"]
    cycle = DriftCycle(
        setup_s=copy_s + start_s,
        refresh_s=window[1] - window[0],
        accepted=sorted(outcome["reports"]),
        label_rps=(feed_records + later_records) / (feed_s + later_s),
        post_accuracy=post_ledger.accuracy,
        post_floors=dict(post_ledger.floors_seen),
        reads=read_result,
        sweep_window=window,
        rss_parts=rss_parts,
        ledgers=[before_ledger, post_ledger],
        gc_pauses=pauses.pauses,
        gc_pause_s=pauses.seconds,
    )
    return cycle, (after, cpu_s)


def run_label_drift(root: Path, seed: int, seconds: float, trace: bool) -> RunResult:
    scenarios = fleet.drift_scenarios()
    vocab = MacVocab()
    truth: Dict[str, int] = {}
    num_floors: Dict[str, int] = {}
    drifting: List[str] = []
    feed: List[fleet.TrafficRequest] = []
    later: List[fleet.TrafficRequest] = []
    read_streams = {}
    first_records = {}
    for scenario, is_drifting in scenarios:
        building_id = scenario.initial.building_id
        num_floors[building_id] = scenario.initial.num_floors
        truth.update((r.record_id, r.floor) for r in scenario.drifted)
        first_records[building_id] = [scenario.initial[0].without_floor()]
        wave = [record.without_floor() for record in scenario.drifted]
        if is_drifting:
            drifting.append(building_id)
            feed += fleet.batches_of(building_id, wave[0::2], 8, vocab)
            later += fleet.batches_of(building_id, wave[1::2], 8, vocab)
        else:
            read_streams[building_id] = wave
    # Reads are sent while the sweep runs; the trace is long enough for any
    # sweep shorter than ``--seconds``.
    reads = fleet.traffic(
        read_streams, int(DRIFT_READ_RATE_HZ * seconds), DRIFT_READ_RATE_HZ, seed, vocab
    )
    requests = (one_record_requests(first_records, vocab), feed, reads, later)
    ledger_args = (truth, num_floors)
    problems: List[str] = []

    directory = work_dir(root)
    try:
        surveys = [scenario.initial for scenario, _ in scenarios]
        warm_s = warm_fit(surveys)
        trees = TreeCounter()
        recorder = fit_recorder(trees) if trace else contextlib.nullcontext()
        cpu_started = time.process_time()
        with recorder:
            outcomes, store_s = fleet.fit_and_store(
                surveys, directory / "pristine", keep_generations=3
            )
        fit_cpu_s = time.process_time() - cpu_started
        fits = fit_samples(outcomes, surveys)
        by_id = {survey.building_id: outcome for survey, outcome in zip(surveys, outcomes)}
        cycles: List[DriftCycle] = []
        started = time.perf_counter()
        while len(cycles) < DRIFT_CYCLES or time.perf_counter() - started < seconds:
            cycle, _ = drift_cycle(directory, len(cycles), requests, drifting, ledger_args)
            cycles.append(cycle)
            fits += refit(rotation(surveys, len(cycles) - 1), by_id, problems)
        if trace:
            submits = SpanRecorder(SERVING_TARGETS)
            traced, (after, cpu_s) = drift_cycle(
                directory, len(cycles), requests, drifting, ledger_args, submits
            )
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    checked = cycles + ([traced] if trace else [])
    first = cycles[0]
    for cycle in checked[1:]:
        if cycle.accepted != first.accepted:
            problems.append(f"accepted refreshes differ: {first.accepted} vs {cycle.accepted}")
        if cycle.post_floors != first.post_floors:
            problems.append("post-refresh labels differ between cycles")
    if first.post_accuracy < MIN_DRIFT_LABEL_ACCURACY:
        problems.append(
            f"post-refresh accuracy {first.post_accuracy:.4f} below {MIN_DRIFT_LABEL_ACCURACY}"
        )
    fit_accuracy = float(np.mean([outcome.accuracy for outcome in outcomes]))
    if fit_accuracy < MIN_FIT_ACCURACY:
        problems.append(f"fit accuracy {fit_accuracy:.4f} below {MIN_FIT_ACCURACY}")
    ledgers = [ledger for cycle in checked for ledger in cycle.ledgers]
    for ledger in ledgers:
        problems.extend(_ledger_problems(ledger))
    attempted = sum(ledger.attempted for ledger in ledgers)
    failed = sum(ledger.failed for ledger in ledgers)
    latencies = np.concatenate([cycle.reads.latencies_s for cycle in cycles])
    metrics = {
        "setup_s": warm_s + store_s + median([cycle.setup_s for cycle in cycles]),
        "fit_s": per_record(fits, sum(len(survey) for survey in surveys)),
        "fit_accuracy": fit_accuracy,
        "label_p50_ms": percentile_ms(latencies, 50),
        "label_rps": median([cycle.label_rps for cycle in cycles]),
        "label_accuracy": first.post_accuracy,
        "label_ok_frac": (attempted - failed) / attempted,
        "refresh_s": median([cycle.refresh_s for cycle in cycles]),
        "rss_peak_mb": median([sum(cycle.rss_parts) for cycle in cycles]),
    }
    result = RunResult(metrics, attempted + len(fits), failed, problems)
    result.notes.append(setup_note(warm_s, store_s, [cycle.setup_s for cycle in cycles]))
    result.notes.append(
        f"{len(cycles)} cycles; each accepted refreshes of {', '.join(first.accepted) or 'none'}"
    )
    for cycle in cycles:
        result.notes.append(
            f"peak RSS (MB) of benchmark and shards: {rss_parts_text(cycle.rss_parts)}"
        )
    if trace:
        during = np.concatenate(
            [
                cycle.reads.latencies_s[
                    (cycle.reads.due_s >= cycle.sweep_window[0])
                    & (cycle.reads.due_s <= cycle.sweep_window[1])
                ]
                for cycle in cycles
            ]
        )
        layers = serving_layer_metrics(
            None,
            after,
            submits,
            sum(ledger.answered for ledger in traced.ledgers),
            cpu_s,
        )
        layers.update(fit_layer_metrics(recorder, trees, [o.ari for o in outcomes]))
        trips = layers["drift.trips"]
        layers.update(
            {
                "fit.cpu_s": fit_cpu_s,
                "refresh.accepted": float(len(traced.accepted)),
                "refresh.accepted_frac": len(traced.accepted) / trips if trips else 0.0,
                "label.p99_ms": percentile_ms(latencies, 99),
                "label.samples": float(latencies.size),
                "label.gen_lag_p99_ms": percentile_ms(
                    np.concatenate([cycle.reads.lags_s for cycle in cycles]), 99
                ),
                "label.during_refresh_p50_ms": percentile_ms(during, 50),
                "runtime.gc_gen2_pauses": sum(c.gc_pauses for c in cycles) / len(cycles),
                "runtime.gc_gen2_pause_s": sum(c.gc_pause_s for c in cycles) / len(cycles),
                "trace.overhead_frac": (
                    np.median(traced.reads.latencies_s) / np.median(latencies) - 1.0
                ),
            }
        )
        result.metrics = layers
    return result
