"""The benchmark's workloads and the checks that their outputs are correct.

Each workload is built from a seed, sets itself up untimed, and then offers
``call()`` (the timed work) and ``checks(out)`` (untimed).  At a workload's
pinned seed the checks compare the output with ``golden.json``, recorded from
the code by ``record_golden.py``, and require every study gate to pass; at any
other seed the gates are calibrated for nothing, so only exceptions and
nonzero exit codes count as failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path

from pathfuse import cli, evaluation
from pathfuse import io as pio
from pathfuse.evaluation import ExperimentSpec
from pathfuse.seeding import substream
from pathfuse.synthesis import OutlierSpec, SynthesisSpec, inject_outliers, synthesize_corpus

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: agreement required between an output value and its golden value (dB)
GOLDEN_TOLERANCE = 1e-9

TRIALS = 10

#: the campaign-fit corpus: the registry's largest campaign, 8,000 samples,
#: a 200 m blocker band hit at 20% with 55 dB excess
CAMPAIGN_SOURCE = "uma-2ghz-nokia-aau"
CAMPAIGN_SAMPLES = 8000
CAMPAIGN_OUTLIERS = OutlierSpec(
    rho=0.75, band_width=200.0, contamination_fraction=0.2, magnitude_scale=55.0
)
#: campaign-fit sigma must lie within this share of the published sigma
CAMPAIGN_SIGMA_SHARE = 0.10


def load_golden(path=GOLDEN_PATH):
    with open(path) as fh:
        return json.load(fh)


def report_values(result):
    """Every report's sigma, LOOCV, ratio and coefficients, keyed by cell."""
    out = {}
    for r in result.reports:
        cell = [r.study, r.method, r.scenario]
        if r.band_ghz is not None:
            cell.append(f"{r.band_ghz[0]:g}-{r.band_ghz[1]:g}")
        values = {
            name: getattr(r, name)
            for name in ("sigma_db", "sigma_clean_db", "error_ratio_percent", "loocv_db")
            if getattr(r, name) is not None
        }
        values.update({f"coef.{k}": v for k, v in (r.coefficients or {}).items()})
        out["|".join(str(c) for c in cell)] = values
    return out


def _values_match(expected, actual):
    return set(expected) == set(actual) and all(
        abs(expected[k] - actual[k]) <= GOLDEN_TOLERANCE for k in expected
    )


def compare_reports(expected, actual):
    """One check per golden report, plus one that no report is unexpected."""
    checks = [
        (f"golden:{key}", key in actual and _values_match(values, actual[key]))
        for key, values in expected.items()
    ]
    checks.append(("golden:report-set", set(actual) == set(expected)))
    return checks


class _Workload:
    NAME = ""
    #: the seed the golden snapshot is recorded at
    PINNED_SEED = 0

    def __init__(self, seed, golden, workdir):
        self.seed = seed
        self.golden = golden.get(self.NAME) if golden else None
        self.pinned = self.golden is not None and self.golden["seed"] == seed

    def setup(self):
        pass


class _Studies(_Workload):
    """A sequence of studies run as in ``pathfuse experiment``: study, then gates."""

    #: (study runner name, ExperimentSpec.which, seed offset, gates at the pinned seed)
    STUDIES = ()

    def __init__(self, seed, golden, workdir):
        super().__init__(seed, golden, workdir)
        gates = sum(n for *_, n in self.STUDIES)
        self.n_checks = (
            gates + len(self.golden["reports"]) + 1 if self.pinned else len(self.STUDIES)
        )

    def _run(self, trials):
        out = []
        for runner, which, offset, _ in self.STUDIES:
            spec = ExperimentSpec(which=which, trials=trials, seed=self.seed + offset)
            result = getattr(evaluation, runner)(spec)
            out.append((result, evaluation.evaluate_gates(result)))
        return out

    def warm_up(self):
        self._run(trials=1)

    def call(self):
        return self._run(trials=TRIALS)

    def snapshot(self, out):
        values = {}
        for result, _ in out:
            values.update(report_values(result))
        return {"seed": self.seed, "reports": values}

    def checks(self, out):
        if not self.pinned:
            return [(f"completed:{result.study}", True) for result, _ in out]
        checks = []
        for (result, gates), (*_, expected) in zip(out, self.STUDIES):
            checks += [(f"gate:{g.name}", g.passed) for g in gates]
            if len(gates) != expected:
                checks.append((f"gate-count:{result.study}", False))
        return checks + compare_reports(self.golden["reports"], self.snapshot(out)["reports"])


class Integration(_Studies):
    """The integration study: 270 pipeline fits over 9 scenario x band cells."""

    NAME = "integration"
    PINNED_SEED = 1
    STUDIES = (("run_integration_study", "IntegrationStudy", 0, 18),)


class SmallStudies(_Studies):
    """The order study at the seed, then the robust study at the seed plus one."""

    NAME = "small-studies"
    STUDIES = (
        ("run_order_study", "OrderStudy", 0, 9),
        ("run_robust_study", "RobustStudy", 1, 4),
    )


class CampaignFit(_Workload):
    """``pathfuse fit`` with default options on one large contaminated campaign."""

    NAME = "campaign-fit"

    def __init__(self, seed, golden, workdir):
        super().__init__(seed, golden, workdir)
        self.n_checks = 5 if self.pinned else 1
        self.samples_csv = os.path.join(workdir, "campaign.csv")
        self.model_json = os.path.join(workdir, "model.json")

    def setup(self):
        model = next(m for m in pio.load_registry() if m.id == CAMPAIGN_SOURCE)
        self.published_sigma = model.sigma
        spec = SynthesisSpec(
            points_per_model=CAMPAIGN_SAMPLES, distance_sampling="UniformDistance"
        )
        corpus = synthesize_corpus([model], spec, substream(self.seed, "campaign-fit"))
        corpus, _ = inject_outliers(
            corpus, CAMPAIGN_OUTLIERS, substream(self.seed, "campaign-fit", "outliers")
        )
        pio.save_samples(corpus, self.samples_csv)

    def call(self):
        argv = ["fit", "--samples", self.samples_csv, "--out", self.model_json]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code

    def warm_up(self):
        self.call()
        os.remove(self.model_json)

    def snapshot(self, out):
        with open(self.model_json) as fh:
            model = json.load(fh)
        return {
            "seed": self.seed,
            "coefficients": model["coefficients"],
            "sigma_db": model["sigma_db"],
            "n_rejected": model["provenance"]["n_rejected"],
        }

    def checks(self, rc):
        checks = [("exit-code", rc == 0)]
        try:
            if not self.pinned:
                return checks
            got = self.snapshot(rc)
        except (OSError, ValueError, KeyError):
            return checks + [("model-json", False)] * (self.n_checks - 1)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.model_json)
        want = self.golden
        share = abs(got["sigma_db"] - self.published_sigma) / self.published_sigma
        return checks + [
            ("golden:coefficients", len(got["coefficients"]) == len(want["coefficients"])
             and all(abs(a - b) <= GOLDEN_TOLERANCE
                     for a, b in zip(got["coefficients"], want["coefficients"]))),
            ("golden:sigma_db", abs(got["sigma_db"] - want["sigma_db"]) <= GOLDEN_TOLERANCE),
            ("golden:n_rejected", got["n_rejected"] == want["n_rejected"]),
            ("published-sigma", math.isfinite(share) and share <= CAMPAIGN_SIGMA_SHARE),
        ]


WORKLOADS = {cls.NAME: cls for cls in (Integration, SmallStudies, CampaignFit)}
PINNED_SEEDS = {name: cls.PINNED_SEED for name, cls in WORKLOADS.items()}


def make(name, seed, workdir, golden):
    return WORKLOADS[name](seed, golden, workdir)
