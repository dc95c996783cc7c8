"""The ``activedp_long`` workload: seeded ActiveDP trials with a simulated user.

Each trial runs youtube at scale 1.0 for 100 iterations, where the LF
count reaches ~90 and LabelPick's graphical lasso dominates.  It is driven
through ``get_pipeline("activedp", ...)`` with the paper configuration,
exactly as the evaluation protocol drives it, but with every interactive
step and every evaluation timed on its own.

At every evaluation point the run's product so far -- the label payload a
served request would return -- is built from the live run and published to
a result store (the cold label), then served again from the store (the warm
label).  The last one is the finished trial's product.  This publishing is
timed on its own and kept out of ``run_s``.
"""

from __future__ import annotations

import contextlib
import gc
import math
import time
from pathlib import Path

import numpy as np

import repro.datasets as datasets
from repro.baselines import get_pipeline
from repro.baselines.lfset import export_labeling_artifacts
from repro.core.results import IterationRecord, RunHistory
from repro.experiments.protocol import EvaluationProtocol
from repro.labeling.lf import ABSTAIN, KeywordLF
from repro.runner.results import create_result_store
from repro.runner.spec import TrialSpec
from repro.serving.schemas import canonical_json, label_payload

from common import Checks, Operations, TokenIndex, derived_seeds, p50, p90, rounds_for


WORKLOAD = "activedp_long"
DATASET, SCALE = "youtube", 1.0
ITERATIONS, EVAL_EVERY = 100, 10
#: Trials per run are ``round(seconds / ROUND_SECONDS)``; a trial takes
#: 10-15 s on the reference machine, so the default 48 s makes four.
ROUND_SECONDS = 13.0
#: Timed set-ups per trial: set-up is cheap, so it is repeated to give the
#: set-up median enough samples.
SETUPS_PER_TRIAL = 3

#: Reads of each published payload back from the store.
WARM_REPEATS = 3


def run(seed: int, seconds: float, work_dir: Path, tracer=None) -> dict:
    """Run ``activedp_long``; returns samples, checks and accounting."""
    n_trials = rounds_for(seconds, ROUND_SECONDS)
    trial_seeds = derived_seeds(WORKLOAD, seed, n_trials)
    store = create_result_store("pickle", work_dir / "store")
    ops, checks = Operations(), Checks()
    samples = {"setup": [], "step": [], "labels": [], "cold": [], "warm": []}
    test_accuracies, label_accuracy, label_coverage = [], [], []
    record_counters = {"glasso_sweeps": 0, "lm_em_iterations": 0}
    run_seconds = 0.0

    for trial_seed in trial_seeds:
        for _ in range(SETUPS_PER_TRIAL):
            gc.collect()
            started = time.perf_counter()
            split = datasets.load_dataset(DATASET, scale=SCALE, random_state=trial_seed)
            pipeline = get_pipeline("activedp", split, random_state=trial_seed)
            samples["setup"].append(time.perf_counter() - started)

        protocol = EvaluationProtocol(
            n_iterations=ITERATIONS, eval_every=EVAL_EVERY, n_seeds=1, dataset_scale=SCALE,
        )
        eval_points = set(protocol.evaluation_iterations())
        end_models = _keep_end_models(pipeline)
        history = RunHistory(framework="activedp", dataset=DATASET, seed=trial_seed)
        final_quality = {"accuracy": 0.0, "coverage": 0.0}
        with _paused(tracer):
            train_index, valid_index = TokenIndex(split.train), TokenIndex(split.valid)
        for iteration in range(1, ITERATIONS + 1):
            started = time.perf_counter()
            try:
                record = pipeline.step()
            except Exception as error:  # noqa: BLE001 - counted as a failed step
                ops.record("step", False)
                checks.expect(False, f"step {iteration} raised {error!r}")
                break
            elapsed = time.perf_counter() - started
            samples["step"].append(elapsed)
            run_seconds += elapsed
            ops.record("step", True)
            record = record or IterationRecord(iteration=iteration, query_index=-1)
            record.iteration = iteration
            history.add(record)
            if iteration in eval_points:
                started = time.perf_counter()
                accuracy = pipeline.evaluate_end_model(C=protocol.end_model_C)
                quality = pipeline.label_quality()
                elapsed = time.perf_counter() - started
                samples["labels"].append(elapsed)
                run_seconds += elapsed
                ops.record("evaluation", True)
                record.test_accuracy = accuracy
                record.label_coverage = quality["coverage"]
                record.label_accuracy = quality["accuracy"]
                for field, value in pipeline.refit_counters().items():
                    setattr(record, field, value)
                test_accuracies.append(accuracy)
                with _paused(tracer):
                    final_quality = _check_evaluation(
                        pipeline, split, accuracy, quality, end_models.pop(),
                        train_index, valid_index, checks,
                        f"seed {trial_seed} iteration {iteration}",
                    )
                _serve_product(
                    pipeline, split, iteration, history, store, samples, ops, checks
                )

        queries = [r.query_index for r in history.records]
        checks.expect(
            len(queries) == len(set(queries)), f"query index repeated in trial {trial_seed}"
        )
        label_accuracy.append(final_quality["accuracy"])
        label_coverage.append(final_quality["coverage"])
        if history.records:
            final = history.records[-1]
            record_counters["glasso_sweeps"] += final.glasso_sweeps or 0
            record_counters["lm_em_iterations"] += final.lm_em_iterations or 0

    if tracer is not None:
        # The wrappers count the same fits the records do; a mismatch means
        # the trace missed calls.
        for name, value in record_counters.items():
            checks.expect(
                tracer.counters[name] == value,
                f"traced {name} {tracer.counters[name]} != records {value}",
            )

    return {
        "ops": ops,
        "checks": checks,
        "setup": samples["setup"],
        "run_s": run_seconds,
        "info": {"step_ms_p50": p50(samples["step"]) * 1e3},
        "metrics": {
            "step_ms_mean": float(np.mean(samples["step"])) * 1e3,
            "step_ms_p90": p90(samples["step"]) * 1e3,
            "labels_ms_p50": p50(samples["labels"]) * 1e3,
            "cold_label_ms_mean": float(np.mean(samples["cold"])) * 1e3,
            "warm_label_ms_p50": p50(samples["warm"]) * 1e3,
            "avg_test_accuracy": float(np.mean(test_accuracies)),
            "label_accuracy": float(np.mean(label_accuracy)),
            "label_coverage": float(np.mean(label_coverage)),
        },
    }


def _serve_product(pipeline, split, iteration, history, store, samples, ops, checks) -> None:
    """Publish the run's label payload so far, then serve it from the store."""
    protocol = EvaluationProtocol(
        n_iterations=iteration, eval_every=iteration, n_seeds=1, dataset_scale=SCALE
    )
    spec = TrialSpec(framework="activedp", dataset=split.name, seed=history.seed, protocol=protocol)
    started = time.perf_counter()
    history.artifacts = export_labeling_artifacts(pipeline.framework, split)
    store.put(spec, history)
    cold = canonical_json(label_payload(spec, history))
    samples["cold"].append(time.perf_counter() - started)
    ops.record("cold_label", True)
    for _ in range(WARM_REPEATS):
        started = time.perf_counter()
        stored = store.get(spec)
        body = canonical_json(label_payload(spec, stored)) if stored is not None else None
        elapsed = time.perf_counter() - started
        samples["warm"].append(elapsed)
        ops.record("warm_label", stored is not None)
        checks.expect(body == cold, f"warm label payload at iteration {iteration} differs")


def _keep_end_models(pipeline) -> list:
    """Keep each end model ``evaluate_end_model`` trains, for the output checks.

    Shadows the bound method on this one pipeline object; the cost is one
    extra Python call per evaluation.
    """
    models = []
    train_end_model = pipeline.train_end_model

    def keep(*args, **kwargs):
        model = train_end_model(*args, **kwargs)
        models.append(model)
        return model

    pipeline.train_end_model = keep
    return models


def _check_evaluation(
    pipeline, split, accuracy, quality, model, train_index, valid_index, checks, where
) -> dict:
    """Recompute one evaluation point apart from the program; returns the quality."""
    train, valid, test = split.train, split.valid, split.test
    indices, labels = pipeline.generate_labels()
    coverage = len(indices) / len(train)
    label_acc = float(np.mean(train.labels[indices] == labels)) if len(indices) else 0.0
    checks.expect(
        math.isclose(coverage, quality["coverage"], rel_tol=1e-12, abs_tol=1e-12)
        and math.isclose(label_acc, quality["accuracy"], rel_tol=1e-12, abs_tol=1e-12),
        f"{where}: label_quality {quality} != recomputed ({coverage}, {label_acc})",
    )

    if model is None:
        majority = int(np.argmax(np.bincount(valid.labels, minlength=split.n_classes)))
        expected = float(np.mean(test.labels == majority))
    else:
        expected = float(np.mean(model.predict(test.features) == test.labels))
    checks.expect(
        math.isclose(accuracy, expected, rel_tol=1e-12, abs_tol=1e-12),
        f"{where}: test accuracy {accuracy} != recomputed {expected}",
    )

    framework = pipeline.framework
    lfs = framework.lfs
    selection = framework.state.selection
    selected = list(selection.selected_indices)
    keep_all = selected == list(range(len(lfs))) and set(
        selection.pruned_low_accuracy
    ) == set(range(len(lfs)))
    covered = np.zeros(len(train), dtype=bool)
    for j in selected:
        lf = lfs[j]
        checks.expect(isinstance(lf, KeywordLF), f"{where}: LF {lf!r} is not a keyword LF")
        fired = valid_index.fires(lf.keyword)
        if fired.any() and not keep_all:
            valid_acc = float(np.mean(valid.labels[fired] == lf.label))
            checks.expect(
                valid_acc > 1.0 / split.n_classes,
                f"{where}: selected LF {lf.name} has validation accuracy {valid_acc}",
            )
        covered |= train_index.fires(lf.keyword)
    accepted = np.zeros(len(train), dtype=bool)
    accepted[indices] = True
    checks.expect(
        not np.any(covered & ~accepted),
        f"{where}: {int(np.sum(covered & ~accepted))} rows covered by a selected LF "
        "were rejected (Eq. 1)",
    )
    checks.expect(bool(np.all(labels != ABSTAIN)), f"{where}: an accepted label abstains")
    return {"accuracy": label_acc, "coverage": coverage}


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()
