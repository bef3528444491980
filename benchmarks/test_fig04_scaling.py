"""Figure 4: file-size and swarm-size scaling of T-Chain.

Shape checks: completion time grows ~linearly with file size
(R² close to 1); completion time converges as the swarm grows
(largest swarm within a small factor of the mid-size ones) and small
seeder-dominated swarms are fastest.
"""

from conftest import run_once

from repro.experiments import fig4, run_figure


def test_fig4_file_and_swarm_size(benchmark, scale, artifact):
    file_rows, swarm_rows = run_once(benchmark,
                                     lambda: run_figure(fig4, scale))
    artifact("fig04", fig4.render((file_rows, swarm_rows)))

    # (a) linear growth with file size.
    assert fig4.linearity_r2(file_rows) >= 0.9
    times = [r.mean_completion_s for r in file_rows]
    assert times == sorted(times)  # monotone in file size

    # (b) convergence: the two largest swarms differ by < 50 %.
    swarm_rows.sort(key=lambda r: r.swarm_size)
    last, prev = swarm_rows[-1], swarm_rows[-2]
    assert last.mean_completion_s <= 1.5 * prev.mean_completion_s

    # (b) seeder-dominated small swarms complete fastest.
    assert swarm_rows[0].mean_completion_s <= \
        min(r.mean_completion_s for r in swarm_rows[2:])
