"""Ablations of T-Chain's design choices (DESIGN.md §5).

Each ablation switches off (or sweeps) one mechanism and measures
what the paper says it buys:

* flow-control window k (paper fixes k = 2): balances smoothing vs
  overload; the system must work across k;
* opportunistic seeding: keeps upload capacity busy under churn;
* indirect reciprocity: rescues asymmetric-interest meetings;
* newcomer both-need bootstrapping: cheap entry without altruism.
"""

from conftest import run_once

from repro.analysis.reporting import format_table
from repro.analysis.stats import summarize
from repro.experiments.parallel import grid_specs, per_cell, run_specs


def _mct(scale, variants):
    """``{name: (mean completion, completion rate)}`` for each
    ``(name, seed label, config overrides)`` variant, all of them one
    ``run_specs`` call."""
    specs = [spec for _, label, overrides in variants
             for spec in grid_specs(label, [dict(
                 protocol="tchain", leechers=40, pieces=24, **overrides)],
                 scale)]
    out = {}
    for (name, _, _), results in zip(variants,
                                     per_cell(run_specs(specs), scale)):
        mct = summarize([r.mean_completion_time() for r in results])
        rate = sum(r.completion_rate("leecher")
                   for r in results) / len(results)
        out[name] = (mct.mean if mct else float("nan"), rate)
    return out


def test_ablation_flow_control_k(benchmark, scale, artifact):
    def run():
        return _mct(scale, [(k, f"abl-k/{k}", {"flow_control_k": k})
                            for k in (1, 2, 4, 8)])

    by_k = run_once(benchmark, run)
    artifact("ablation_flow_k", format_table(
        ["k", "mean completion (s)", "completion rate"],
        [(k, v[0], v[1]) for k, v in sorted(by_k.items())],
        title="Ablation: flow-control window k"))

    for k, (mct, rate) in by_k.items():
        assert rate == 1.0, f"k={k} broke completion"
    # The paper's k=2 is within 35 % of the best k.
    best = min(v[0] for v in by_k.values())
    assert by_k[2][0] <= 1.35 * best


def test_ablation_mechanism_switches(benchmark, scale, artifact):
    def run():
        return _mct(scale, [
            ("full", "abl-full", {}),
            ("no opportunistic seeding", "abl-noos",
             {"opportunistic_seeding": False}),
            ("direct reciprocity only", "abl-direct",
             {"indirect_reciprocity": False}),
            ("no newcomer bootstrap rule", "abl-noboot",
             {"newcomer_bootstrap": False}),
        ])

    variants = run_once(benchmark, run)
    artifact("ablation_mechanisms", format_table(
        ["variant", "mean completion (s)", "completion rate"],
        [(name, v[0], v[1]) for name, v in variants.items()],
        title="Ablation: T-Chain mechanism switches"))

    # Everything still completes (robustness)...
    for name, (mct, rate) in variants.items():
        assert rate == 1.0, name
    # ...and the full design is at least as fast as the no-
    # opportunistic-seeding variant (it exists to fill idle capacity).
    full = variants["full"][0]
    assert full <= 1.1 * variants["no opportunistic seeding"][0]
    # Dropping indirect reciprocity may not beat the full design by
    # much either (it exists for asymmetric interests).
    assert full <= 1.35 * variants["direct reciprocity only"][0]
