"""Table II, indirect-reciprocity columns: EigenTrust and Dandelion
versus T-Chain.

The paper's Table II credits reputation schemes (EigenTrust) with
immunity to altruism exploitation and the large-view exploit, but
marks them down for false praise and inflexible newcomer
bootstrapping; credit schemes (Dandelion) are fair but carry a
central server and a fixed bootstrap subsidy; T-Chain is good across
the board.  This benchmark measures those cells head-to-head:

* plain free-riders against EigenTrust survive on the 10 % newcomer
  budget; a false-praise ring fully rehabilitates them;
* plain free-riders against Dandelion starve on their grant, but
  whitewashing refreshes it and defeats the scheme;
* the same attackers against T-Chain stay starved either way.
"""

from conftest import run_once

from repro.analysis.reporting import format_table
from repro.attacks import FreeRiderOptions
from repro.experiments import parallel

LEECHERS = 30
PIECES = 16


def _cell(results):
    fr_rate = sum(r.completion_rate("freerider")
                  for r in results) / len(results)
    fr_times = [r.mean_completion_time("freerider") for r in results]
    fr_times = [t for t in fr_times if t is not None]
    compliant = [r.mean_completion_time("leecher") for r in results]
    return {
        "fr_rate": fr_rate,
        "fr_time": (sum(fr_times) / len(fr_times)) if fr_times
        else None,
        "compliant": sum(t for t in compliant if t) / len(compliant),
    }


def test_table2_indirect_reciprocity(benchmark, scale, artifact):
    plain = FreeRiderOptions(large_view=True, whitewash=False)
    praise = FreeRiderOptions(large_view=True, whitewash=False,
                              collude=True)
    whitewash = FreeRiderOptions(large_view=True, whitewash=True)

    grid = [("eigentrust", "plain", plain, "plain"),
            ("eigentrust", "false praise", praise, "praise"),
            ("dandelion", "plain", plain, "plain"),
            ("dandelion", "whitewash", whitewash, "whitewash"),
            ("tchain", "plain", plain, "plain"),
            ("tchain", "false praise", praise, "praise"),
            ("tchain", "whitewash", whitewash, "whitewash")]

    def run():
        specs = [spec for protocol, _, options, label in grid
                 for spec in parallel.grid_specs(
                     f"t2i/{label}/{protocol}", [dict(
                         protocol=protocol, leechers=LEECHERS,
                         pieces=PIECES, freerider_fraction=0.25,
                         freerider_options=options, max_time=6000.0)],
                     scale)]
        return {(protocol, attack): _cell(results)
                for (protocol, attack, _, _), results in zip(
                    grid, parallel.per_cell(parallel.run_specs(specs),
                                            scale))}

    cells = run_once(benchmark, run)
    artifact("table2_indirect", format_table(
        ["protocol", "attack", "FR completion rate",
         "FR completion (s)", "compliant (s)"],
        [(proto, attack, c["fr_rate"], c["fr_time"], c["compliant"])
         for (proto, attack), c in cells.items()],
        title="Table II (indirect reciprocity): EigenTrust vs "
              "T-Chain under free-riding"))

    eigen_plain = cells[("eigentrust", "plain")]
    eigen_praise = cells[("eigentrust", "false praise")]
    tchain_plain = cells[("tchain", "plain")]
    tchain_praise = cells[("tchain", "false praise")]

    # EigenTrust: free-riders survive on the newcomer budget...
    assert eigen_plain["fr_rate"] > 0.5
    # ...and false praise makes the attack cheap (at least as fast as
    # without it).
    assert eigen_praise["fr_time"] is not None
    if eigen_plain["fr_time"] is not None:
        assert eigen_praise["fr_time"] <= 1.1 * eigen_plain["fr_time"]

    # Dandelion: unforgeable credit starves plain free-riders, but a
    # fresh identity refreshes the grant — whitewashing defeats the
    # fixed bootstrap subsidy (the paper's critique of such schemes).
    assert cells[("dandelion", "plain")]["fr_rate"] == 0.0
    assert cells[("dandelion", "whitewash")]["fr_rate"] > 0.5

    # T-Chain: plain free-riders never finish, the same praise ring
    # gains no purchase (no reputation aggregate to poison; only the
    # bounded collusion trickle remains), and whitewashing resets
    # nothing worth resetting.
    assert tchain_plain["fr_rate"] == 0.0
    assert tchain_praise["fr_rate"] <= 0.5
    assert cells[("tchain", "whitewash")]["fr_rate"] == 0.0

    # Compliant leechers stay functional in every cell.
    for cell in cells.values():
        assert cell["compliant"] > 0
