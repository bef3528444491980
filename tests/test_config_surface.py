"""The configuration surface, pinned in plain view.

Sec. IV-A fixes the paper's simulation setup once; those values are
module constants, not fields.  A field is something an experiment,
example or test actually varies, and ``RunSpec`` is the one list of
run parameters: ``run_swarm`` takes its fields (plus any
``SwarmConfig`` field as an override) and the ``setup`` test seam.
A new knob has to edit the lists below, the way a new lint rule edits
``tests/test_simlint.py::TestRegistry``.

The README's protocol, arrival-model and topology lists are held to
the registries the code reads (``PROTOCOLS``, ``runner.ARRIVALS``,
``topogen.GENERATORS``), as its lint-rule list is to the rule
registry.
"""

import inspect
import os
import re
from dataclasses import fields

from repro.attacks.freerider import FreeRiderOptions
from repro.bt.config import SwarmConfig
from repro.bt.protocols import PROTOCOLS
from repro.cli import build_parser
from repro.experiments import RunSpec, run_swarm
from repro.experiments.runner import ARRIVALS
from repro.net.topogen import GENERATORS
from repro.replication import ReplicationConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def names(cls):
    return [f.name for f in fields(cls)]


class TestConfigSurface:
    def test_swarm_config_fields(self):
        assert names(SwarmConfig) == [
            "n_pieces", "piece_size_kb", "seeder_capacity_kbps",
            "max_neighbors", "control_latency_s", "flow_control_k",
            "opportunistic_seeding", "indirect_reciprocity",
            "newcomer_bootstrap", "real_crypto", "seed",
            "quiet_window_s", "chain_stall_timeout_s", "extra"]

    def test_replication_config_fields(self):
        assert names(ReplicationConfig) == [
            "capacity_units", "transfer_time_s", "duration_s",
            "freerider_fraction", "mode", "seed"]

    def test_freerider_options_fields(self):
        assert names(FreeRiderOptions) == [
            "large_view", "whitewash", "collude", "send_reports"]

    def test_run_spec_fields(self):
        assert names(RunSpec) == [
            "protocol", "seed", "leechers", "freerider_fraction",
            "arrival", "file_mb", "pieces", "piece_size_kb", "max_time",
            "freerider_options", "initial_piece_fraction",
            "trace_horizon_s", "series", "sanitize", "fault_plan",
            "config_overrides"]

    def test_run_swarm_takes_run_spec_fields_and_setup(self):
        """``run_swarm`` declares no run parameter of its own: its
        keyword arguments become a ``RunSpec``, each spec field as
        itself and anything else as a config override."""
        params = inspect.signature(run_swarm).parameters
        assert [(p.name, p.kind) for p in params.values()] == [
            ("setup", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("kwargs", inspect.Parameter.VAR_KEYWORD)]
        direct = [name for name in names(RunSpec)
                  if name != "config_overrides"]
        spec = RunSpec.from_kwargs(**{name: getattr(RunSpec(), name)
                                      for name in direct})
        assert spec == RunSpec()
        assert RunSpec.from_kwargs(real_crypto=True).config_overrides \
            == (("real_crypto", True),)


def readme_names(pattern):
    """The names README lists in ``pattern``'s group."""
    with open(os.path.join(REPO, "README.md"), "r",
              encoding="utf-8") as handle:
        match = re.search(pattern, handle.read(), re.S)
    assert match, pattern
    return sorted(set(re.findall(r"\w+", match.group(1))) - {"and"})


class TestReadmeLists:
    def test_protocols(self):
        assert readme_names(r"the protocols under bt/protocols/ "
                            r"\(([^)]*)\)") == sorted(PROTOCOLS)

    def test_arrival_models(self):
        assert readme_names(r"run_swarm's arrival models\s+(.*?)\s+"
                            r"\(runner\.ARRIVALS") == sorted(ARRIVALS)

    def test_topologies(self):
        assert readme_names(r"generated topologies \(([^:]*):\s*"
                            r"topogen\.GENERATORS") == sorted(GENERATORS)

    def test_cli_net_choices_are_the_generators(self):
        run = build_parser()._subparsers._group_actions[0].choices["run"]
        net, = [a for a in run._actions if a.dest == "net"]
        assert list(net.choices) == list(GENERATORS)
