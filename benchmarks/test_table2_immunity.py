"""Table II: the incentive-comparison matrix, measured.

Shape checks against the paper's verdicts: T-Chain measures *good*
on every attack column; BitTorrent is exploitable through altruism
and the large-view exploit; FairTorrent falls to whitewashing; and
every measured verdict lands within one grade of the paper's.
"""

from conftest import run_once

from repro.experiments import run_figure, table2


def test_table2_immunity_matrix(benchmark, scale, artifact):
    table = run_once(benchmark, lambda: run_figure(table2, scale))
    artifact("table2", table2.render(table))

    # T-Chain: good across all measured attack columns.
    for feature in ("exploiting altruism", "large-view exploit",
                    "whitewashing", "fairness"):
        assert table.verdict(feature, "tchain") == table2.GOOD, feature

    # Collusion: not free for T-Chain's colluders either — at worst
    # medium (paper: limited opportunities).
    assert table.verdict("collusion", "tchain") in (table2.GOOD,
                                                    table2.MEDIUM)

    # BitTorrent's altruism is exploitable.
    assert table.verdict("exploiting altruism", "bittorrent") \
        != table2.GOOD
    assert table.verdict("large-view exploit", "bittorrent") \
        != table2.GOOD

    # FairTorrent falls to whitewashing.
    assert table.verdict("whitewashing", "fairtorrent") != table2.GOOD

    # Overall agreement with the paper's matrix.
    agreeing = sum(1 for c in table.cells if c.agrees)
    assert agreeing >= 0.75 * len(table.cells)
