"""Example P4 programs: the paper's running example, §4's scenarios, and
programs promoted from the fuzz corpus.  Each is defined by its ``.p4``
source in this package; its module adds config, traffic and target."""

from repro.programs import (
    cgnat,
    ddos_mitigation,
    enterprise,
    example_firewall,
    failure_detection,
    load_balancer,
    nat_gre,
    sourceguard,
    telemetry,
)
from repro.programs.common import EXAMPLE_TARGET

__all__ = [
    "EXAMPLE_TARGET",
    "cgnat",
    "ddos_mitigation",
    "enterprise",
    "example_firewall",
    "failure_detection",
    "load_balancer",
    "nat_gre",
    "sourceguard",
    "telemetry",
]
