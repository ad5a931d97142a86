"""Unit tests for parser specs and parser-based validity reasoning."""

import pytest

from repro.exceptions import P4ValidationError
from repro.p4.expressions import FieldRef
from repro.p4.parser_spec import ACCEPT, ParserSpec, ParserState


def ethernet_chain():
    """eth -> ipv4 -> {udp -> {dns | dhcp}, gre}."""
    return ParserSpec(
        states={
            "start": ParserState(
                "start",
                extracts=("ethernet",),
                select=FieldRef("ethernet", "etherType"),
                transitions={0x800: "parse_ipv4"},
            ),
            "parse_ipv4": ParserState(
                "parse_ipv4",
                extracts=("ipv4",),
                select=FieldRef("ipv4", "protocol"),
                transitions={17: "parse_udp", 47: "parse_gre"},
            ),
            "parse_udp": ParserState(
                "parse_udp",
                extracts=("udp",),
                select=FieldRef("udp", "dstPort"),
                transitions={53: "parse_dns", 67: "parse_dhcp"},
            ),
            "parse_gre": ParserState("parse_gre", extracts=("gre",)),
            "parse_dns": ParserState("parse_dns", extracts=("dns",)),
            "parse_dhcp": ParserState("parse_dhcp", extracts=("dhcp",)),
        },
        start="start",
    )


class TestValidation:
    def test_valid_spec_passes(self):
        ethernet_chain().validate()

    def test_unknown_start_rejected(self):
        spec = ParserSpec(states={}, start="ghost")
        with pytest.raises(P4ValidationError):
            spec.validate()

    def test_dangling_transition_rejected(self):
        spec = ParserSpec(
            states={
                "start": ParserState(
                    "start",
                    extracts=("eth",),
                    select=FieldRef("eth", "t"),
                    transitions={1: "ghost"},
                )
            },
            start="start",
        )
        with pytest.raises(P4ValidationError):
            spec.validate()

    def test_cycle_rejected(self):
        spec = ParserSpec(
            states={
                "a": ParserState("a", extracts=("h1",), default="b"),
                "b": ParserState("b", extracts=("h2",), default="a"),
            },
            start="a",
        )
        with pytest.raises(P4ValidationError):
            spec.validate()

    def test_transitions_without_select_rejected(self):
        with pytest.raises(P4ValidationError):
            ParserState("s", transitions={1: ACCEPT})


def _may_both_be_valid(spec, a, b):
    return any(a in s and b in s for s in spec.valid_header_sets())


def _implies_valid(spec, a, b):
    return all(b in s for s in spec.valid_header_sets() if a in s)


class TestValidHeaderSets:
    def test_all_paths_enumerated(self):
        sets = ethernet_chain().valid_header_sets()
        assert frozenset({"ethernet"}) in sets  # non-IPv4
        assert frozenset({"ethernet", "ipv4"}) in sets
        assert frozenset({"ethernet", "ipv4", "udp"}) in sets
        assert frozenset({"ethernet", "ipv4", "udp", "dns"}) in sets
        assert frozenset({"ethernet", "ipv4", "udp", "dhcp"}) in sets
        assert frozenset({"ethernet", "ipv4", "gre"}) in sets

    def test_no_dns_and_dhcp_together(self):
        """DNS and DHCP live on different parser branches — the static
        mutual exclusivity Ex. 1's analysis relies on."""
        assert not _may_both_be_valid(ethernet_chain(), "dns", "dhcp")

    def test_udp_and_dns_together(self):
        assert _may_both_be_valid(ethernet_chain(), "udp", "dns")

    def test_same_header_trivially_covalid(self):
        assert _may_both_be_valid(ethernet_chain(), "udp", "udp")


class TestImplication:
    def test_dhcp_implies_udp(self):
        """Every DHCP packet is a UDP packet — what makes the paper's
        ACL_DHCP relocation into ACL_UDP's miss branch safe (§3.2)."""
        assert _implies_valid(ethernet_chain(), "dhcp", "udp")

    def test_udp_does_not_imply_dns(self):
        assert not _implies_valid(ethernet_chain(), "udp", "dns")

    def test_gre_implies_ipv4(self):
        assert _implies_valid(ethernet_chain(), "gre", "ipv4")

    def test_everything_implies_ethernet(self):
        spec = ethernet_chain()
        for header in ("ipv4", "udp", "dns", "dhcp", "gre"):
            assert _implies_valid(spec, header, "ethernet")


class TestReachability:
    def test_reachable_states(self):
        spec = ethernet_chain()
        reachable, stack = set(), [spec.start]
        while stack:
            name = stack.pop()
            if name not in reachable and name != "accept":
                reachable.add(name)
                stack.extend(spec.states[name].next_states())
        assert reachable == {
            "start",
            "parse_ipv4",
            "parse_udp",
            "parse_gre",
            "parse_dns",
            "parse_dhcp",
        }

    def test_headers_extracted(self):
        assert any(
            "dns" in state.extracts
            for state in ethernet_chain().states.values()
        )
