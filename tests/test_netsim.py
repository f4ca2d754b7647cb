import base64
import dataclasses
import io
import itertools
import json
import random

import pytest

from iiotsim import netsim
from iiotsim.netsim import (Acl, AclRule, Frame, LinkProfile, Simulation,
                            capture_export, write_capture_jsonl)

from conftest import SilentSlave, frame_to_record, unbind_tcp

GW_MAC = "b8:27:eb:61:e5:14"
ROUTER_MAC = "00:0c:29:6e:a7:ca"
ATTACKER_MAC = "00:0c:29:5b:a2:99"


def lan_pair(jitter_us=0, base_us=500, loss=0.0, acl=None):
    sim = Simulation(seed=1)
    sim.add_segment("lan", LinkProfile(base_us, jitter_us, loss),
                    subnet="192.168.10.0/24")
    gw = sim.attach_host("edge-gw", [("lan", GW_MAC, "192.168.10.150")])
    router = sim.attach_host("router", [("lan", ROUTER_MAC, "192.168.10.1")],
                             is_router=True, acl=acl)
    return sim, gw, router


def tcp_stamped_in_send_order(sim):
    """Each host's TCP frames, in the order it sent them, carry times that
    never go down."""
    last = {}
    for f in sim.capture:
        if f.l4 == "TCP":
            if f.ts_us < last.get(f.sender, 0):
                return False
            last[f.sender] = f.ts_us
    return True


def holds_nothing(sim):
    return all(not h._streams and not h._conntrack
               for h in sim.hosts.values())


class TestAttach:
    def test_attach_and_count(self):
        sim, gw, router = lan_pair()
        assert len(sim.hosts) == 2
        assert sim.hosts["edge-gw"].interfaces[0].mac == GW_MAC

    def test_duplicate_ip_rejected(self):
        sim, gw, router = lan_pair()
        with pytest.raises(netsim.NetConfigError):
            sim.attach_host("other", [("lan", "02:00:00:00:00:01",
                                       "192.168.10.150")])

    def test_duplicate_mac_rejected(self):
        sim, gw, router = lan_pair()
        with pytest.raises(netsim.NetConfigError):
            sim.attach_host("other", [("lan", GW_MAC, "192.168.10.99")])

    def test_mac_text_is_lowercase_colon_hex(self):
        sim = Simulation()
        sim.add_segment("lan", LinkProfile())
        host = sim.attach_host("h", [("lan", "AA:BB:CC:00:11:22", "10.0.0.1")])
        assert host.interfaces[0].mac == "aa:bb:cc:00:11:22"
        with pytest.raises(netsim.NetConfigError):
            sim.attach_host("h2", [("lan", "nonsense", "10.0.0.2")])


class TestArp:
    def test_resolve_router_mac_with_request_reply_exchange(self):
        sim, gw, router = lan_pair()
        mac, ready = gw.arp_resolve("192.168.10.1")
        assert mac == ROUTER_MAC
        ops = [json.loads(f.payload)["op"] for f in sim.capture
               if f.l4 == "ARP"]
        assert ops == ["request", "reply"]
        assert ready > 0

    def test_cache_hit_returns_immediately(self):
        sim, gw, router = lan_pair()
        gw.arp_resolve("192.168.10.1")
        n_frames = len(sim.capture)
        mac, ready = gw.arp_resolve("192.168.10.1")
        assert mac == ROUTER_MAC
        assert len(sim.capture) == n_frames

    def test_a_hit_waits_for_the_reply_in_flight(self):
        sim, gw, router = lan_pair()
        mac, ready = gw.arp_resolve("192.168.10.1")
        assert ready > sim.now_us
        assert gw.arp_resolve("192.168.10.1") == (ROUTER_MAC, ready)
        frame = gw.send_ip("192.168.10.1", 9, b"x", "RAW", src_port=1)
        assert frame.ts_us == ready
        sim.run_until(ready + 1)
        assert gw.arp_resolve("192.168.10.1") == (ROUTER_MAC, ready + 1)

    def test_own_ip_resolves_to_own_mac(self):
        sim, gw, router = lan_pair()
        assert gw.arp_resolve("192.168.10.150")[0] == GW_MAC
        # even with its own IP poisoned in its cache, and with no ARP frame
        router.send_gratuitous_arp(gw, "192.168.10.150", ROUTER_MAC, "lan")
        sim.run_until(10_000)
        assert gw.arp_cache["192.168.10.150"][0] == ROUTER_MAC
        frame = gw.send_ip("192.168.10.150", 9, b"x", "RAW", src_port=1)
        assert frame.src_mac == frame.dst_mac == GW_MAC
        assert [f.l4 for f in sim.capture] == ["ARP", "UDP"]

    def test_gratuitous_reply_overwrites(self):
        sim, gw, router = lan_pair()
        attacker = sim.attach_host("attacker",
                                   [("lan", ATTACKER_MAC, "192.168.10.151")])
        gw.arp_resolve("192.168.10.1")
        sim.run_until(10_000)   # let the solicited reply land first
        attacker.send_gratuitous_arp(gw, "192.168.10.1", ATTACKER_MAC, "lan")
        sim.run_until(20_000)
        assert gw.arp_resolve("192.168.10.1")[0] == ATTACKER_MAC

    def test_no_responder_fails(self):
        sim, gw, router = lan_pair()
        with pytest.raises(netsim.ArpFailure):
            gw.arp_resolve("192.168.10.77")
        # the unanswered request is still on the wire
        assert any(f.l4 == "ARP" for f in sim.capture)


class TestSendAndFirewall:
    def test_zero_jitter_delivery_time(self):
        sim, gw, router = lan_pair(jitter_us=0, base_us=500)
        frame = gw.send_ip("192.168.10.1", 9, b"x", "RAW", l4="UDP",
                           src_port=1000)
        sim.run_until(1_000_000)
        assert frame.delivered
        assert frame.deliver_ts_us == frame.ts_us + 500

    def test_poisoned_cache_redirects_frames(self):
        sim, gw, router = lan_pair()
        attacker = sim.attach_host("attacker",
                                   [("lan", ATTACKER_MAC, "192.168.10.151")])
        gw.arp_resolve("192.168.10.1")
        sim.run_until(10_000)
        attacker.send_gratuitous_arp(gw, "192.168.10.1", ATTACKER_MAC, "lan")
        sim.run_until(20_000)
        frame = gw.send_ip("192.168.10.1", 9, b"x", "RAW", src_port=1)
        assert frame.dst_mac == ATTACKER_MAC

    def test_poisoned_cache_redirects_an_established_stream(self):
        sim, gw, router = lan_pair()
        attacker = sim.attach_host("attacker",
                                   [("lan", ATTACKER_MAC, "192.168.10.151")])
        router.bind_tcp(443, EchoService())
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        sim.run_until(10_000)
        assert stream.state == "established"
        before = stream.write(b"a")
        sim.run_until(20_000)
        attacker.send_gratuitous_arp(gw, "192.168.10.1", ATTACKER_MAC, "lan")
        sim.run_until(30_000)
        after = stream.write(b"b")
        assert before.tcp_flags == after.tcp_flags == ("ACK", "PSH")
        assert (before.dst_mac, after.dst_mac) == (ROUTER_MAC, ATTACKER_MAC)

    def firewall(self, acl=None):
        acl = acl or Acl([AclRule("any", "any", "any", frozenset({9999}),
                                  "deny")], default="allow")
        sim = Simulation(seed=2)
        sim.add_segment("lan", LinkProfile(100, 0, 0))
        sim.add_segment("wan", LinkProfile(100, 0, 0))
        gw = sim.attach_host("edge-gw", [("lan", GW_MAC, "192.168.10.150")],
                             gateway_ip="192.168.10.1")
        router = sim.attach_host("router",
                                 [("lan", ROUTER_MAC, "192.168.10.1"),
                                  ("wan", "00:0c:29:6e:a7:cb", "192.168.2.1")],
                                 is_router=True, acl=acl)
        router.wan_segments = {"wan"}
        sim.attach_host("cloud",
                        [("wan", "00:50:56:c0:00:10", "192.168.2.10")],
                        gateway_ip="192.168.2.1")
        return sim, gw, acl

    def test_firewall_denied_frame_never_reaches_egress(self):
        sim, gw, _ = self.firewall()
        denied = gw.send_ip("192.168.2.10", 9999, b"x", "RAW", l4="UDP",
                            src_port=5)
        allowed = gw.send_ip("192.168.2.10", 80, b"x", "RAW", l4="UDP",
                             src_port=6)
        sim.run_until(1_000_000)
        assert denied.fw_denied
        wan_frames = [f for f in sim.capture if f.segment == "wan"]
        assert all(f.dst_port != 9999 for f in wan_frames)
        assert any(f.dst_port == 80 and f.delivered for f in wan_frames)

    def test_acl_scans_its_rules_once_per_flow(self, monkeypatch):
        sim, gw, acl = self.firewall()
        scans = []
        scan = acl._scan

        def counted(*key):
            scans.append(key)
            return scan(*key)

        monkeypatch.setattr(acl, "_scan", counted)
        flows = [gw.send_ip("192.168.2.10", port, b"x", "RAW", l4="UDP",
                            src_port=src_port)
                 for _ in range(4) for port, src_port in ((9999, 5), (80, 6))]
        sim.run_until(1_000_000)
        assert [f.fw_denied for f in flows] == [True, False] * 4
        # the later frames of each flow reuse the first one's verdict
        assert scans == [("out", "192.168.10.150", "192.168.2.10", 9999),
                         ("out", "192.168.10.150", "192.168.2.10", 80)]
        verdict = acl.decide("out", "192.168.10.150", "192.168.2.10", 80)
        assert verdict == "allow" and len(scans) == 2

    def test_a_closed_flows_reverse_tuple_is_checked_again(self):
        # inbound is denied, so only replies on a tracked flow come in
        sim, gw, _ = self.firewall(Acl([AclRule("in", "any", "any", None,
                                                "deny")]))
        router, cloud = sim.hosts["router"], sim.hosts["cloud"]
        cloud.bind_tcp(443, EchoService())
        stream = gw.open_tcp("192.168.2.10", 443, "HTTPS")
        stream.on_established = lambda s: (s.write(b"ping"), s.close())
        sim.run_until(1_000_000)
        assert stream.state == "closed"
        assert not any(f.fw_denied for f in sim.capture)
        assert router._conntrack == {}
        # the closed flow's reverse tuple, now from the WAN side
        gw.bind_tcp(stream.key[1], EchoService())
        cloud._eph_port = 443
        inbound = cloud.open_tcp("192.168.10.150", stream.key[1], "HTTPS")
        sim.run_until(2_000_000)
        assert inbound.state == "refused"
        assert [f.tcp_flags for f in sim.capture if f.fw_denied] == [("SYN",)]
        assert router._conntrack == {}

    def test_a_simultaneous_close_across_the_router_ends_its_flow(self):
        sim, gw, _ = self.firewall()
        router, cloud = sim.hosts["router"], sim.hosts["cloud"]
        svc = SilentSlave()
        opened = []
        svc.on_open = opened.append
        cloud.bind_tcp(443, svc)
        stream = gw.open_tcp("192.168.2.10", 443, "HTTPS")
        sim.run_until(100_000)
        assert len(router._conntrack) == 1
        for s in (stream, *opened):     # both ends at the same instant
            s.write(b"bye")
            s.close()
        sim.run_until(1_000_000)
        tcp = [f for f in sim.capture if f.l4 == "TCP"]
        assert sum("FIN" in f.tcp_flags for f in tcp) == 4   # two per hop
        assert all("RST" not in f.tcp_flags for f in tcp)
        assert router._conntrack == {}
        assert gw._streams == {} and cloud._streams == {}

    def test_a_close_as_the_stream_opens_across_the_router_ends_its_flow(
            self):
        # every hop's FIN follows its SYN while ARP still resolves the next
        # hop, so the server gets the FIN before the handshake's last ACK
        sim, gw, _ = self.firewall()
        cloud = sim.hosts["cloud"]
        cloud.bind_tcp(443, EchoService())
        stream = gw.open_tcp("192.168.2.10", 443, "HTTPS")
        stream.close()
        sim.run_until(1_000_000)
        assert tcp_stamped_in_send_order(sim)
        assert [(f.segment, f.tcp_flags) for f in sim.capture
                if f.sender == "router" and f.l4 == "TCP"] == [
            ("wan", ("SYN",)), ("wan", ("ACK", "FIN")),
            ("lan", ("ACK", "SYN")), ("lan", ("ACK",)),
            ("lan", ("ACK", "FIN")), ("wan", ("ACK",)), ("wan", ("ACK",))]
        assert all("RST" not in f.tcp_flags for f in sim.capture)
        assert stream.state == "closed"
        assert holds_nothing(sim)

    def test_a_write_and_close_as_the_stream_opens_across_the_router(self):
        # both wait for the handshake, so every hop carries them after its
        # last ACK and the server echoes while established
        sim, gw, _ = self.firewall()
        cloud = sim.hosts["cloud"]
        svc = EchoService()
        states = []
        svc.on_data = lambda s, data: (states.append(s.state),
                                       s.write(b"echo:" + data))
        cloud.bind_tcp(443, svc)
        stream = gw.open_tcp("192.168.2.10", 443, "HTTPS")
        got = []
        stream.on_data = lambda s, data: got.append((s.state, data))
        stream.write(b"ping")
        stream.close()
        sim.run_until(1_000_000)
        assert tcp_stamped_in_send_order(sim)
        assert [(f.segment, f.tcp_flags) for f in sim.capture
                if f.sender in ("edge-gw", "router") and f.l4 == "TCP"
                and f.dst_ip == "192.168.2.10"][:6] == [
            ("lan", ("SYN",)), ("wan", ("SYN",)),
            ("lan", ("ACK",)), ("lan", ("ACK", "PSH")),
            ("lan", ("ACK", "FIN")), ("wan", ("ACK",))]
        assert states == ["established"]
        assert got == [("closing", b"echo:ping")]
        assert all("RST" not in f.tcp_flags for f in sim.capture)
        assert stream.state == "closed"
        assert holds_nothing(sim)

    def test_router_drops_a_packet_it_cannot_route(self):
        sim, gw, _ = self.firewall()
        frame = gw.send_udp("8.8.8.8", 53, b"x", "DNS")
        sim.run_until(1_000_000)
        # it reaches the router, which has no route on and sends no second hop
        assert frame.delivered and not frame.final
        assert [f for f in sim.capture if f.dst_ip == "8.8.8.8"] == [frame]

    def test_unroutable_destination_raises(self):
        sim, gw, router = lan_pair()
        with pytest.raises(netsim.RouteError):
            gw.send_ip("8.8.8.8", 53, b"x", "DNS")

    def test_attach_host_changes_a_remembered_route(self):
        sim = Simulation(seed=1)
        sim.add_segment("lan", LinkProfile())
        sim.add_segment("dmz", LinkProfile())
        a = sim.attach_host("a", [("lan", "02:00:00:00:00:01", "10.0.0.1")],
                            gateway_ip="10.0.0.254")
        sim.attach_host("r", [("lan", "02:00:00:00:00:fe", "10.0.0.254")])
        iface, next_hop = a.route("10.0.0.2")
        assert (iface.ip, next_hop) == ("10.0.0.1", "10.0.0.254")
        b = sim.attach_host("b", [("lan", "02:00:00:00:00:02", "10.0.0.2")])
        iface, next_hop = a.route("10.0.0.2")
        assert (iface.ip, next_hop) == ("10.0.0.1", "10.0.0.2")
        assert b.ips == frozenset({"10.0.0.2"})
        frame = a.send_udp("10.0.0.2", 9, b"x", "RAW")
        sim.run_until(1_000_000)
        assert frame.delivered and frame.final
        # a failed lookup is not remembered
        c = sim.attach_host("c", [("dmz", "02:00:00:00:01:01", "10.1.0.1")])
        with pytest.raises(netsim.RouteError):
            c.route("10.1.0.2")
        d = sim.attach_host("d", [("dmz", "02:00:00:00:01:02", "10.1.0.2"),
                                  ("lan", "02:00:00:00:01:03", "10.0.0.3")])
        assert c.route("10.1.0.2")[1] == "10.1.0.2"
        assert d.ips == frozenset({"10.1.0.2", "10.0.0.3"})


class TestEventKernel:
    def record(self, sim, seen):
        return lambda *args: seen.append((sim.now_us, args))

    def test_events_carry_arguments_and_equal_times_run_in_order(self):
        sim = Simulation()
        seen = []
        record = self.record(sim, seen)
        sim.schedule_at(20, record, "late")
        for n in range(3):
            sim.schedule_at(10, record, n, -n)
        sim.schedule(10, record)
        sim.run_until(100)
        assert seen == [(10, (0, 0)), (10, (1, -1)), (10, (2, -2)), (10, ()),
                        (20, ("late",))]
        assert sim.now_us == 100

    def test_every_int_period_runs_up_to_the_horizon(self):
        sim = Simulation()
        sim.horizon_us = 30
        seen = []
        record = self.record(sim, seen)
        sim.every(10, record)
        sim.every(10, record, first_us=31)      # starts past the horizon
        sim.run_until(1_000)
        assert [ts for ts, _ in seen] == [10, 20, 30]

    def test_every_period_function_and_first_run(self):
        sim = Simulation()
        sim.horizon_us = 100
        periods = iter([10, 20, 30, 40, 50])
        seen = []
        sim.every(lambda: next(periods), self.record(sim, seen), first_us=5)
        sim.run_until(1_000)
        # the period is asked for after each run; 65 + 40 passes the horizon
        assert [ts for ts, _ in seen] == [5, 15, 35, 65]
        assert next(periods) == 50

    def test_loops_at_equal_times_run_in_scheduling_order(self):
        sim = Simulation()
        seen = []
        sim.every(10, lambda: seen.append("a"))
        sim.every(5, lambda: seen.append("b"), first_us=10)
        sim.schedule_at(20, seen.append, "c")
        sim.run_until(20)     # no horizon: run_until bounds the loops
        # c was scheduled before a's second run, so it runs first at 20
        assert seen == ["a", "b", "b", "c", "a", "b"]

    @pytest.mark.parametrize("period", [0, -1, 2.5, None])
    def test_every_refuses_a_period_that_is_not_a_positive_int(self, period):
        sim = Simulation()
        with pytest.raises(ValueError, match="tick: period must be"):
            def tick():
                pass
            sim.every(period, tick)
        assert sim._events == []

    def test_every_refuses_a_period_function_that_returns_zero(self):
        sim = Simulation()
        sim.horizon_us = 100
        seen = []
        # a first run 0 us away is legal; the period after it is not
        sim.every(lambda: 0, lambda: seen.append(sim.now_us), first_us=0)
        with pytest.raises(ValueError, match="period must be a positive int "
                                             "of us, got 0"):
            sim.run_until(100)
        assert seen == [0]

    def test_schedule_at_refuses_a_time_before_now(self):
        sim = Simulation()
        sim.run_until(100)

        def tick():
            pass

        with pytest.raises(ValueError, match="tick: cannot run at 99 us, "
                                             r"before now \(100 us\)"):
            sim.schedule_at(99, tick)
        with pytest.raises(ValueError, match="tick: cannot run at 90 us"):
            sim.schedule(-10, tick)
        assert sim._events == []
        sim.schedule_at(100, tick)      # now itself is not the past
        sim.run_until(100)
        assert sim._eseq == 1 and sim._events == []

    def test_series_runs_in_the_order_schedule_at_gives(self):
        times = [5, 5, 7, 7, 7, 9]
        runs = {}
        for lazy in (False, True):
            sim = Simulation()
            seen = runs[lazy] = []
            sim.schedule_at(7, seen.append, "before")
            if lazy:
                sim.series(len(times), times.__getitem__, seen.append)
            else:
                for i, ts in enumerate(times):
                    sim.schedule_at(ts, seen.append, i)
            sim.schedule_at(7, seen.append, "after")
            # what a run schedules for its own time goes after the series
            sim.schedule_at(5, lambda: sim.schedule(2, seen.append, "new"))
            assert len(sim._events) == (4 if lazy else 3 + len(times))
            sim.run_until(100)
            assert sim._eseq == 3 + len(times) + 1
        assert runs[True] == runs[False] == [
            0, 1, "before", 2, 3, 4, "after", "new", 5]


class EchoService:
    def __init__(self):
        self.received = []

    def on_open(self, stream):
        pass

    def on_data(self, stream, data):
        self.received.append(data)
        stream.write(b"echo:" + data)


class TestTcpStreams:
    def test_handshake_triple_in_capture(self):
        sim, gw, router = lan_pair()
        router.bind_tcp(443, EchoService())
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        sim.run_until(1_000_000)
        assert stream.state == "established"
        flags = [f.tcp_flags for f in sim.capture if f.l4 == "TCP"]
        assert flags[:3] == [("SYN",), ("ACK", "SYN"), ("ACK",)]

    def test_closed_port_is_refused(self):
        sim, gw, router = lan_pair()
        outcome = []
        stream = gw.open_tcp("192.168.10.1", 4000, "RAW")
        stream.on_refused = lambda s: outcome.append("refused")
        sim.run_until(1_000_000)
        assert stream.state == "refused"
        assert outcome == ["refused"]

    def test_write_emits_psh_ack_and_pure_ack(self):
        sim, gw, router = lan_pair()
        router.bind_tcp(443, EchoService())
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.on_established = lambda s: s.write(b"hello")
        sim.run_until(1_000_000)
        data_frames = [f for f in sim.capture
                       if f.tcp_flags == ("ACK", "PSH") and f.payload == b"hello"]
        assert len(data_frames) == 1
        assert len(data_frames[0].payload) == 5
        acks_after = [f for f in sim.capture
                      if f.tcp_flags == ("ACK",) and not f.payload
                      and f.ts_us >= data_frames[0].deliver_ts_us]
        assert acks_after

    def test_fin_close_sequence(self):
        sim, gw, router = lan_pair()
        svc = EchoService()
        router.bind_tcp(443, svc)
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.on_established = lambda s: s.close()
        sim.run_until(1_000_000)
        fins = [f for f in sim.capture if "FIN" in f.tcp_flags]
        assert len(fins) == 2      # one FIN per side
        assert stream.state == "closed"

    @pytest.mark.parametrize("closer", ["client", "server"])
    def test_orderly_close_frees_both_streams(self, closer):
        sim, gw, router = lan_pair()
        svc = EchoService()
        if closer == "server":
            svc.on_data = lambda s, data: s.close()
        router.bind_tcp(443, svc)
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.on_established = (
            lambda s: s.close() if closer == "client" else s.write(b"bye"))
        sim.run_until(1_000_000)
        assert [f.tcp_flags for f in sim.capture][-1] == ("ACK",)
        assert stream.state == "closed"
        assert gw._streams == {} and router._streams == {}

    def test_simultaneous_close_ends_without_resets(self):
        # both ends send FIN at the same instant, so each FIN arrives
        # before the ACK of the other
        sim, gw, router = lan_pair()
        svc = EchoService()
        svc.on_open = lambda s: s.close()
        router.bind_tcp(443, svc)
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.on_established = lambda s: sim.schedule(500, s.close)
        sim.run_until(1_000_000)
        tcp = [(f.ts_us, f.sender, f.tcp_flags) for f in sim.capture
               if f.l4 == "TCP"]
        assert tcp[-4:] == [(3500, "router", ("ACK", "FIN")),
                            (3500, "edge-gw", ("ACK", "FIN")),
                            (4000, "edge-gw", ("ACK",)),
                            (4000, "router", ("ACK",))]
        assert len(tcp) == 7
        assert stream.state == "closed"
        assert gw._streams == {} and router._streams == {}

    def test_simultaneous_close_right_after_a_write_ends_without_resets(
            self):
        # the server writes and closes as the client closes, so it is owed
        # two ACKs (its data and its FIN) when the client's FIN frees it
        sim, gw, router = lan_pair()
        svc = EchoService()
        svc.on_open = lambda s: (s.write(b"hello"), s.close())
        router.bind_tcp(443, svc)
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.on_established = lambda s: sim.schedule(500, s.close)
        sim.run_until(1_000_000)
        tcp = [(f.ts_us, f.sender, f.tcp_flags) for f in sim.capture
               if f.l4 == "TCP"]
        assert tcp[3:] == [(3500, "router", ("ACK", "PSH")),
                           (3500, "router", ("ACK", "FIN")),
                           (3500, "edge-gw", ("ACK", "FIN")),
                           (4000, "edge-gw", ("ACK",)),
                           (4000, "edge-gw", ("ACK",)),
                           (4000, "router", ("ACK",))]
        assert stream.state == "closed"
        assert gw._streams == {} and router._streams == {}

    def test_close_as_a_write_crosses_the_peers_fin_ends_without_resets(
            self):
        # the server's data and the client's FIN cross; the server closes on
        # the FIN and waits for the ACKs of its data and its FIN
        sim, gw, router = lan_pair()
        svc = EchoService()
        svc.on_open = lambda s: s.write(b"x")
        router.bind_tcp(443, svc)
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.on_established = lambda s: sim.schedule(500, s.close)
        sim.run_until(1_000_000)
        tcp = [(f.ts_us, f.sender, f.tcp_flags) for f in sim.capture
               if f.l4 == "TCP"]
        assert tcp[-3:] == [(4000, "router", ("ACK",)),
                            (4000, "router", ("ACK", "FIN")),
                            (4500, "edge-gw", ("ACK",))]
        assert all("RST" not in flags for _, _, flags in tcp)
        assert gw._streams == {} and router._streams == {}

    def test_no_write_follows_the_streams_own_fin(self):
        # both ends write and close at the same instant, so the server's
        # echo of the client's data would follow its own FIN
        sim, gw, router = lan_pair()
        refused = []

        def echo(s, data):
            try:
                s.write(b"echo:" + data)
            except RuntimeError as exc:
                refused.append(str(exc))

        svc = EchoService()
        svc.on_open = lambda s: (s.write(b"hello"), s.close())
        svc.on_data = echo
        router.bind_tcp(443, svc)
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.on_established = lambda s: sim.schedule(
            500, lambda: (s.write(b"ping"), s.close()))
        sim.run_until(1_000_000)
        assert refused == ["stream not writable (state=closing)"]
        tcp = [f for f in sim.capture if f.l4 == "TCP"]
        assert [f.payload for f in tcp if f.payload] == [b"hello", b"ping"]
        assert all("RST" not in f.tcp_flags for f in tcp)
        assert stream.state == "closed"
        assert gw._streams == {} and router._streams == {}

    def test_a_close_as_the_stream_opens_ends_without_resets(self):
        # the FIN follows the SYN while ARP still resolves the peer, and the
        # server gets it before the handshake's last ACK, which pays only
        # for the SYN_ACK
        sim, gw, router = lan_pair()
        router.bind_tcp(443, EchoService())
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.close()
        sim.run_until(1_000_000)
        assert tcp_stamped_in_send_order(sim)
        tcp = [(f.ts_us, f.sender, f.tcp_flags) for f in sim.capture
               if f.l4 == "TCP"]
        assert tcp == [(1000, "edge-gw", ("SYN",)),
                       (1000, "edge-gw", ("ACK", "FIN")),
                       (2500, "router", ("ACK", "SYN")),
                       (2500, "router", ("ACK",)),
                       (2500, "router", ("ACK", "FIN")),
                       (3000, "edge-gw", ("ACK",)),
                       (3000, "edge-gw", ("ACK",))]
        assert stream.state == "closed"
        assert holds_nothing(sim)

    def test_a_write_as_the_stream_opens_reaches_an_open_service(self):
        sim, gw, router = lan_pair()
        seen = []
        svc = EchoService()
        svc.on_open = lambda s: seen.append(("open", s.state))
        svc.on_data = lambda s, data: seen.append(("data", s.state, data))
        router.bind_tcp(443, svc)
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.write(b"early")
        sim.run_until(1_000_000)
        assert seen == [("open", "established"),
                        ("data", "established", b"early")]
        tcp = [(f.ts_us, f.sender, f.tcp_flags) for f in sim.capture
               if f.l4 == "TCP"]
        assert tcp == [(1000, "edge-gw", ("SYN",)),
                       (2500, "router", ("ACK", "SYN")),
                       (3000, "edge-gw", ("ACK",)),
                       (3000, "edge-gw", ("ACK", "PSH")),
                       (3500, "router", ("ACK",))]

    def test_a_write_and_close_as_the_stream_opens_follow_the_handshake(
            self):
        # the data and then the FIN are held until the SYN_ACK, and leave
        # right after the handshake's last ACK
        sim, gw, router = lan_pair()
        svc = EchoService()
        states = []
        svc.on_data = lambda s, data: (states.append(s.state),
                                       s.write(b"echo:" + data))
        router.bind_tcp(443, svc)
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        got = []
        stream.on_data = lambda s, data: got.append((s.state, data))
        assert stream.write(b"ping") is None
        stream.close()
        assert stream.state == "closing"
        sim.run_until(1_000_000)
        assert tcp_stamped_in_send_order(sim)
        sent = [(f.ts_us, f.tcp_flags) for f in sim.capture
                if f.sender == "edge-gw" and f.l4 == "TCP"]
        assert sent[:4] == [(1000, ("SYN",)), (3000, ("ACK",)),
                            (3000, ("ACK", "PSH")), (3000, ("ACK", "FIN"))]
        assert not any(f.payload for f in sim.capture
                       if f.l4 == "TCP" and f.ts_us < 3000)
        assert states == ["established"]
        assert got == [("closing", b"echo:ping")]
        assert all("RST" not in f.tcp_flags for f in sim.capture)
        assert stream.state == "closed"
        assert holds_nothing(sim)

    def test_a_refused_connect_drops_its_held_write(self):
        sim, gw, router = lan_pair()
        stream = gw.open_tcp("192.168.10.1", 4000, "RAW")
        stream.write(b"x")
        sim.run_until(1_000_000)
        assert stream.state == "refused"
        assert [(f.sender, f.tcp_flags) for f in sim.capture
                if f.l4 == "TCP"] == [("edge-gw", ("SYN",)),
                                      ("router", ("RST",))]
        assert gw._streams == {} and router._streams == {}

    def test_a_second_close_sends_nothing(self):
        sim, gw, router = lan_pair()
        router.bind_tcp(443, EchoService())
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.on_established = lambda s: (s.close(), s.close())
        sim.run_until(1_000_000)
        fins = [f.sender for f in sim.capture if "FIN" in f.tcp_flags]
        assert fins == ["edge-gw", "router"]
        assert all("RST" not in f.tcp_flags for f in sim.capture)
        assert stream.state == "closed"
        assert gw._streams == {} and router._streams == {}

    def test_replies_counts_the_data_handed_to_on_data(self):
        # the count is taken before the call, so the n-th reply sees n
        sim, gw, router = lan_pair()
        router.bind_tcp(443, EchoService())
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.write(b"0")
        seen = []

        def on_data(s, data):
            seen.append((s.replies, data))
            if s.replies < 3:
                s.write(b"%d" % s.replies)
            else:
                s.close()

        stream.on_data = on_data
        sim.run_until(1_000_000)
        assert seen == [(1, b"echo:0"), (2, b"echo:1"), (3, b"echo:2")]
        assert stream.replies == 3 and stream.state == "closed"

    def test_a_closing_stream_acks_and_delivers_the_peers_data(self):
        # half-close: the client's FIN is out, the server still writes
        sim, gw, router = lan_pair()
        router.bind_tcp(443, EchoService())
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        got = []
        stream.on_established = lambda s: (s.write(b"ping"), s.close())
        stream.on_data = lambda s, data: got.append((s.state, data))
        sim.run_until(1_000_000)
        assert got == [("closing", b"echo:ping")]
        echo = next(f for f in sim.capture if f.payload == b"echo:ping")
        assert any(f.sender == "edge-gw" and f.tcp_flags == ("ACK",)
                   and f.ts_us == echo.deliver_ts_us for f in sim.capture)
        assert all("RST" not in f.tcp_flags for f in sim.capture)
        assert stream.state == "closed"
        assert gw._streams == {} and router._streams == {}

    def test_a_stream_closed_while_connecting_stays_closing(self):
        sim, gw, router = lan_pair()
        router.bind_tcp(443, EchoService())
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.close()
        assert stream.state == "closing"
        events = []
        stream.on_established = lambda s: events.append("established")
        stream.on_closed = lambda s: events.append("closed")
        sim.run_until(1_000_000)
        # its SYN_ACK does not reopen it, and the peer's FIN closes it
        assert events == ["closed"]
        assert not any(f.payload for f in sim.capture if f.l4 == "TCP")
        assert gw._streams == {}

    def test_ack_after_an_orderly_close_is_still_refused(self):
        # only a closed stream still owed ACKs absorbs a late ACK
        sim, gw, router = lan_pair()
        router.bind_tcp(443, EchoService())
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.on_established = lambda s: s.close()
        sim.run_until(1_000_000)
        local_ip, local_port, peer_ip, peer_port = stream.key
        gw.send_ip(peer_ip, peer_port, b"", "HTTPS", l4="TCP",
                   tcp_flags=("ACK",), src_port=local_port)
        sim.run_until(2_000_000)
        assert sim.capture[-1].tcp_flags == ("RST",)
        assert sim.capture[-1].sender == "router"

    def test_reset_terminates(self):
        sim, gw, router = lan_pair()
        router.bind_tcp(443, EchoService())
        stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
        stream.on_established = lambda s: s.reset()
        sim.run_until(1_000_000)
        rsts = [f for f in sim.capture if f.tcp_flags == ("RST",)]
        assert len(rsts) == 1
        assert stream.state == "closed"

    @pytest.mark.parametrize("unbind", [False, True])
    def test_reused_source_port_after_close(self, unbind):
        sim, gw, router = lan_pair()
        svc = EchoService()
        router.bind_tcp(443, svc)
        echoes = []

        def on_data(s, data):
            echoes.append(data)
            s.close()

        def connect(payload):
            gw._eph_port = 50000
            stream = gw.open_tcp("192.168.10.1", 443, "HTTPS")
            stream.on_established = lambda s: s.write(payload)
            stream.on_data = on_data
            sim.run_until(sim.now_us + 1_000_000)
            return stream

        assert connect(b"one").state == "closed"
        if unbind:
            unbind_tcp(router, 443)
        second = connect(b"two")
        if unbind:
            assert second.state == "refused"
            assert svc.received == [b"one"]
            assert echoes == [b"echo:one"]
            last = [f for f in sim.capture if f.sender == "router"][-1]
            assert last.tcp_flags == ("RST",)
        else:
            assert second.state == "closed"
            assert svc.received == [b"one", b"two"]
            assert echoes == [b"echo:one", b"echo:two"]


class TestCaptureExport:
    def run_fixture(self, seed=3):
        sim = Simulation(seed=seed)
        sim.add_segment("lan", LinkProfile(100, 40, 0))
        a = sim.attach_host("a", [("lan", "02:00:00:00:00:01", "10.0.0.1")])
        b = sim.attach_host("b", [("lan", "02:00:00:00:00:02", "10.0.0.2")])
        for n in range(30):
            a.send_udp("10.0.0.2", 1000 + n % 3, json.dumps({"n": n}).encode(),
                       "MQTT" if n % 2 else "COAP")
        sim.run_until(10_000_000)
        return sim

    def test_empty_simulation(self):
        sim = Simulation(seed=9)
        sim.add_segment("lan", LinkProfile())
        assert capture_export(sim) == []

    def test_rerun_is_byte_identical(self):
        buf1, buf2 = io.StringIO(), io.StringIO()
        for buf in (buf1, buf2):
            sim = self.run_fixture(seed=3)
            for f in capture_export(sim):
                buf.write(json.dumps(frame_to_record(f)) + "\n")
        assert buf1.getvalue() == buf2.getvalue()

    def test_export_schema_and_round_trip(self, tmp_path):
        sim = self.run_fixture()
        frames = capture_export(sim)
        path = tmp_path / "capture.jsonl"
        write_capture_jsonl(frames, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert list(first) == list(frame_to_record(frames[0]))
        back = netsim.read_capture_jsonl(path)
        assert len(back) == len(frames)
        assert back[0].payload == frames[0].payload
        assert back[0].tcp_flags == frames[0].tcp_flags

    @staticmethod
    def hard_frames():
        """Quotes, backslashes, non-ASCII and control characters, empty and
        all-256-byte payloads, and both values of every boolean."""
        texts = ["", "lan", 'quo"te', "back\\slash", "caf\u00e9 \U0001f600",
                 "ctl\x00\x1f\x7f\n\t"]
        flag_sets = [(), ("SYN",), ("ACK", "SYN"), ("ACK", "FIN", "PSH")]
        payloads = [b"", bytes(range(256))]
        frames = []
        for k, (flags, payload, bools) in enumerate(itertools.product(
                flag_sets, payloads,
                itertools.product((False, True), repeat=4))):
            text = [texts[(k + n) % len(texts)] for n in range(4)]
            frames.append(Frame(
                ts_us=k * 1_000_003, segment=text[0], sender=text[1],
                src_mac="02:00:00:00:00:01", dst_mac=netsim.BROADCAST_MAC,
                src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=k,
                dst_port=65535 - k, l4=("TCP", "UDP", "ARP")[k % 3],
                tcp_flags=flags, payload=payload, proto_tag=text[2],
                origin=bools[0], final=bools[1], delivered=bools[2],
                deliver_ts_us=k * 7, drop_reason=text[3],
                fw_denied=bools[3]))
        return frames

    def test_writer_matches_json_dumps_of_every_record(self, tmp_path):
        frames = self.hard_frames()
        path = tmp_path / "capture.jsonl"
        write_capture_jsonl(frames, path)
        expected = "".join(json.dumps(frame_to_record(f)) + "\n"
                           for f in frames)
        assert path.read_bytes() == expected.encode()
        assert netsim.read_capture_jsonl(path) == frames

    def test_hard_cases_read_back_through_both_paths(self, tmp_path,
                                                     monkeypatch):
        # every hard frame has escaped text, so it takes the fallback; its
        # copy with plain text takes the strict path
        hard = self.hard_frames()
        frames = hard + [dataclasses.replace(
            f, segment="lan", sender="", proto_tag="lan", drop_reason="")
            for f in hard]
        path = tmp_path / "capture.jsonl"
        write_capture_jsonl(frames, path)
        parsed = count_fallbacks(monkeypatch)
        back = netsim.read_capture_jsonl(path)
        assert back == frames
        assert repr(back) == repr(frames)
        assert len(parsed) == len(hard)
        assert len({id(f.src_ip) for f in back}) == 1
        assert len({id(f.tcp_flags) for f in back}) == 4

    def test_sorted_by_timestamp(self):
        sim = self.run_fixture()
        frames = capture_export(sim)
        assert all(frames[i].ts_us <= frames[i + 1].ts_us
                   for i in range(len(frames) - 1))


def reference_read_capture(path):
    """The line-by-line json.loads reader that iter_capture_jsonl replaced,
    kept as the reference for its values, checks and record numbers. Like
    the reader, it refuses a time or port that is not a JSON integer, a
    field the writer writes as text that is not a JSON string, a field it
    writes as true or false that is neither those nor the integer 0 or 1,
    and flags that are not a list of TCP flag names."""
    out = []
    with open(path) as fh:
        try:
            for line in fh:
                line = line.strip()
                if line:
                    rec = json.loads(line)
                    get = rec.get
                    for key in ("ts_us", "src_port", "dst_port",
                                "deliver_ts_us"):
                        if key in rec and type(rec[key]) is not int:
                            raise TypeError(f"{key} {rec[key]!r} is not an "
                                            "integer")
                    for key in ("src_mac", "dst_mac", "src_ip", "dst_ip", "l4",
                                "proto_tag", "payload_b64", "segment",
                                "sender", "drop_reason"):
                        if key in rec and type(rec[key]) is not str:
                            raise TypeError(f"{key} {rec[key]!r} is not a "
                                            "string")
                    for key in ("origin", "final", "delivered", "fw_denied"):
                        if key in rec and not (rec[key] is True
                                               or rec[key] is False
                                               or type(rec[key]) is int
                                               and rec[key] in (0, 1)):
                            raise TypeError(f"{key} {rec[key]!r} is not a "
                                            "boolean")
                    flags = tuple(rec["tcp_flags"])
                    if type(rec["tcp_flags"]) is not list or any(
                            f not in ("ACK", "FIN", "PSH", "RST", "SYN")
                            for f in flags):
                        raise TypeError(f"tcp_flags {rec['tcp_flags']!r} is "
                                        "not a list of TCP flags")
                    out.append(Frame(
                        rec["ts_us"], get("segment", ""), get("sender", ""),
                        rec["src_mac"], rec["dst_mac"], rec["src_ip"],
                        rec["dst_ip"], rec["src_port"], rec["dst_port"],
                        rec["l4"], flags,
                        base64.b64decode(rec["payload_b64"]), rec["proto_tag"],
                        get("origin", True), get("final", False),
                        get("delivered", False), get("deliver_ts_us", 0),
                        get("drop_reason", ""), get("fw_denied", False)))
        except (ValueError, KeyError, TypeError) as e:
            raise ValueError(f"{path}: bad capture record {len(out) + 1}: "
                             f"{type(e).__name__}: {e}") from e
    return out


def count_fallbacks(monkeypatch):
    """The lines iter_capture_jsonl hands to _parse_record from now on."""
    parsed = []
    parse = netsim._parse_record

    def counted(line):
        parsed.append(line)
        return parse(line)

    monkeypatch.setattr(netsim, "_parse_record", counted)
    return parsed


class TestCaptureReader:
    IPS = ("10.0.0.1", "10.0.0.2", "192.168.10.150")

    def frames(self, n=5000):
        out = []
        for k in range(n):
            tcp = k % 3 != 2
            out.append(Frame(
                ts_us=k * 1000, segment=("lan", "wan")[k % 2],
                sender=f"h{k % 5}", src_mac=f"02:00:00:00:00:0{k % 4}",
                dst_mac=netsim.BROADCAST_MAC, src_ip=self.IPS[k % 3],
                dst_ip=self.IPS[(k + 1) % 3], src_port=40000 + k % 7,
                dst_port=502, l4="TCP" if tcp else "UDP",
                tcp_flags=(("SYN",), ("ACK", "SYN"),
                           ("ACK", "PSH"))[k // 3 % 3] if tcp else (),
                payload=bytes([k % 256]) * (k % 9), proto_tag="MODBUS",
                origin=k % 2 == 0, final=k % 3 == 0, delivered=k % 4 != 0,
                deliver_ts_us=k * 1000 + 7, drop_reason="" if k % 4 else
                "loss", fw_denied=k % 11 == 0))
        return out

    def write(self, path, frames, replace=None):
        """The capture of frames with blank and padded lines mixed in;
        replace maps a record index to the lines written instead."""
        with open(path, "w") as fh:
            for k, f in enumerate(frames):
                if k % 1000 == 999:
                    fh.write("\n   \n")
                line = json.dumps(frame_to_record(f))
                for text in (replace or {}).get(k, [line]):
                    fh.write(f" {text}\t\n" if k % 250 == 0 else text + "\n")

    def test_round_trip_of_many_records_with_blank_lines(self, tmp_path):
        frames = self.frames()
        path = tmp_path / "capture.jsonl"
        self.write(path, frames)
        back = netsim.read_capture_jsonl(path)
        assert back == frames == reference_read_capture(path)
        assert list(netsim.iter_capture_jsonl(path)) == back

    def test_equal_values_are_one_object(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        self.write(path, self.frames(300))
        back = netsim.read_capture_jsonl(path)
        for ip in self.IPS:
            same = {id(v) for f in back for v in (f.src_ip, f.dst_ip)
                    if v == ip}
            assert len(same) == 1
        assert len({id(f.sender) for f in back}) == 5
        assert len({id(f.tcp_flags) for f in back}) == 4

    GARBLES = {
        "truncated": lambda line, rec: [line[:40]],
        "split_over_two_lines": lambda line, rec: [line[:200], line[200:]],
        "two_records_on_one_line": lambda line, rec: [line + "," + line],
        "missing_field": lambda line, rec: [json.dumps(
            {k: v for k, v in rec.items() if k != "dst_mac"})],
        "bad_base64": lambda line, rec: [json.dumps(
            dict(rec, payload_b64="abc"))],
        "flags_not_a_list": lambda line, rec: [json.dumps(
            dict(rec, tcp_flags=7))],
        "ip_a_number": lambda line, rec: [json.dumps(dict(rec, src_ip=5))],
        "flags_a_string": lambda line, rec: [json.dumps(
            dict(rec, tcp_flags="SYN"))],
        "unknown_flag": lambda line, rec: [json.dumps(
            dict(rec, tcp_flags=["ACK", "SYNX"]))],
        "boolean_a_string": lambda line, rec: [json.dumps(
            dict(rec, delivered="false"))],
    }

    @pytest.mark.parametrize("garble", sorted(GARBLES))
    def test_bad_record_gives_the_reference_error(self, tmp_path, garble):
        frames = self.frames()
        rec = frame_to_record(frames[3333])
        path = tmp_path / "capture.jsonl"
        self.write(path, frames, {3333: self.GARBLES[garble](
            json.dumps(rec), rec)})
        with pytest.raises(ValueError) as reference_error:
            reference_read_capture(path)
        with pytest.raises(ValueError) as error:
            netsim.read_capture_jsonl(path)
        assert "bad capture record 3334: " in str(error.value)
        assert str(error.value) == str(reference_error.value)

    @staticmethod
    def ts_us(text):
        return lambda line, rec: [line.replace(
            f'"ts_us": {rec["ts_us"]},', f'"ts_us": {text},')]

    @staticmethod
    def wire_len(text):
        return lambda line, rec: [line.replace(
            f'"len": {rec["len"]},', f'"len": {text},')]

    # lines of JSON that the writer does not write: each is valid or not
    # exactly as json.loads says, with its value or error
    UNWRITTEN = {
        "unicode_escape": lambda line, rec: [json.dumps(
            dict(rec, proto_tag="caf\u00e9"))],
        "escaped_quote": lambda line, rec: [json.dumps(
            dict(rec, sender='h"1'))],
        "ts_minus_zero": ts_us("-0"),
        "ts_leading_zero": ts_us("01"),
        "ts_float": ts_us("1.0"),
        "ts_exponent": ts_us("1e3"),
        "ts_underscore": ts_us("1_000"),
        # past 640 digits int() may refuse an int, as json.loads does
        "ts_641_digits": ts_us("1" * 641),
        "ts_5000_digits": ts_us("1" * 5000),
        "len_5000_digits": wire_len("1" * 5000),
        "ts_arabic_indic_digit": ts_us("\u0661"),
        "doubled_spaces": lambda line, rec: [line.replace(", ", ",  ")],
        "reordered_keys": lambda line, rec: [json.dumps(
            dict(reversed(rec.items())))],
        "no_segment": lambda line, rec: [json.dumps(
            {k: v for k, v in rec.items() if k != "segment"})],
        "lower_case_flags": lambda line, rec: [json.dumps(
            dict(rec, tcp_flags=["ack", "syn"]))],
        "int_for_a_boolean": lambda line, rec: [json.dumps(
            dict(rec, origin=1))],
        "two_for_a_boolean": lambda line, rec: [json.dumps(
            dict(rec, final=2))],
        "float_for_a_boolean": lambda line, rec: [json.dumps(
            dict(rec, fw_denied=0.0))],
    }

    @pytest.mark.parametrize("case", sorted(UNWRITTEN))
    def test_unwritten_line_reads_as_the_reference(self, tmp_path,
                                                   monkeypatch, case):
        frames = self.frames(20)
        rec = frame_to_record(frames[12])
        path = tmp_path / "capture.jsonl"
        self.write(path, frames, {12: self.UNWRITTEN[case](
            json.dumps(rec), rec)})
        parsed = count_fallbacks(monkeypatch)
        try:
            expected = reference_read_capture(path)
        except ValueError as e:
            with pytest.raises(ValueError) as error:
                netsim.read_capture_jsonl(path)
            assert str(error.value) == str(e)
        else:
            back = netsim.read_capture_jsonl(path)
            assert back == expected and repr(back) == repr(expected)
        assert len(parsed) == 1

    def test_writer_output_never_takes_the_fallback(self, tmp_path,
                                                    monkeypatch):
        def refuse(line):
            raise AssertionError(f"fallback parse of {line!r}")

        frames = self.frames()
        path = tmp_path / "capture.jsonl"
        write_capture_jsonl(frames, path)
        monkeypatch.setattr(netsim, "_parse_record", refuse)
        assert netsim.read_capture_jsonl(path) == frames

    @staticmethod
    def keep(l4, src_ip, dst_ip):
        return l4 == "TCP" and "10.0.0.1" in (src_ip, dst_ip)

    def test_keep_builds_only_the_frames_it_is_true_of(self, tmp_path,
                                                       monkeypatch):
        frames = self.frames(600)
        path = tmp_path / "capture.jsonl"
        # lines of both paths: a valid unwritten shape every 40 records
        shapes = ("unicode_escape", "escaped_quote", "doubled_spaces",
                  "reordered_keys", "no_segment")
        replace = {}
        for k, shape in enumerate(shapes * 3):
            rec = frame_to_record(frames[7 + 40 * k])
            replace[7 + 40 * k] = self.UNWRITTEN[shape](json.dumps(rec), rec)
        self.write(path, frames, replace)
        expected = [f for f in netsim.read_capture_jsonl(path)
                    if self.keep(f.l4, f.src_ip, f.dst_ip)]
        built = []

        def frame(*args):
            built.append(Frame(*args))
            return built[-1]

        monkeypatch.setattr(netsim, "Frame", frame)
        kept = list(netsim.iter_capture_jsonl(path, keep=self.keep))
        assert kept == expected and repr(kept) == repr(expected)
        assert len(built) == len(kept)
        assert 0 < len(kept) < len(frames) / 2

    @pytest.mark.parametrize("garble", sorted(GARBLES))
    def test_keep_still_checks_the_records_it_drops(self, tmp_path, garble):
        frames = self.frames()
        rec = frame_to_record(frames[3333])
        path = tmp_path / "capture.jsonl"
        self.write(path, frames, {3333: self.GARBLES[garble](
            json.dumps(rec), rec)})
        with pytest.raises(ValueError) as reference_error:
            netsim.read_capture_jsonl(path)
        with pytest.raises(ValueError) as error:
            list(netsim.iter_capture_jsonl(path, keep=lambda *_: False))
        assert str(error.value) == str(reference_error.value)

    # the UNWRITTEN shapes json.loads reads as a record
    READABLE = ("unicode_escape", "escaped_quote", "ts_minus_zero",
                "ts_641_digits", "doubled_spaces", "reordered_keys",
                "no_segment", "int_for_a_boolean")

    def test_keep_sees_every_record_once_in_file_order(self, tmp_path,
                                                       monkeypatch):
        frames = self.frames(600)
        path = tmp_path / "capture.jsonl"
        replace = {}
        for k, shape in enumerate(self.READABLE * 2):
            rec = frame_to_record(frames[5 + 31 * k])
            replace[5 + 31 * k] = self.UNWRITTEN[shape](json.dumps(rec), rec)
        self.write(path, frames, replace)
        reference = reference_read_capture(path)
        parsed = count_fallbacks(monkeypatch)
        calls = []

        def keep(*fields):
            calls.append(fields)
            return self.keep(*fields)

        kept = list(netsim.iter_capture_jsonl(path, keep=keep))
        assert calls == [(f.l4, f.src_ip, f.dst_ip) for f in reference]
        expected = [f for f in reference if self.keep(f.l4, f.src_ip,
                                                      f.dst_ip)]
        assert kept == expected and repr(kept) == repr(expected)
        # only the unwritten lines took the fallback, kept or dropped
        assert parsed == [lines[0] for _, lines in sorted(replace.items())]
        assert 0 < len(kept) < len(frames) / 2

    @pytest.mark.parametrize("case", sorted(UNWRITTEN))
    def test_keep_refuses_what_the_reference_refuses(self, tmp_path, case):
        frames = self.frames(20)
        rec = frame_to_record(frames[12])
        path = tmp_path / "capture.jsonl"
        self.write(path, frames, {12: self.UNWRITTEN[case](
            json.dumps(rec), rec)})
        calls = []

        def drop(*fields):
            calls.append(fields)
            return False

        try:
            reference = reference_read_capture(path)
        except ValueError as e:
            with pytest.raises(ValueError) as error:
                list(netsim.iter_capture_jsonl(path, keep=drop))
            assert str(error.value) == str(e)
            assert len(calls) == 12
        else:
            assert list(netsim.iter_capture_jsonl(path, keep=drop)) == []
            assert calls == [(f.l4, f.src_ip, f.dst_ip) for f in reference]

    @pytest.mark.parametrize("text", ["[{}]", "null", "7", '"text"'])
    def test_record_that_is_not_an_object(self, tmp_path, text):
        frames = self.frames(20)
        path = tmp_path / "capture.jsonl"
        self.write(path, frames, {12: [text]})
        with pytest.raises(ValueError) as error:
            netsim.read_capture_jsonl(path)
        kind = type(json.loads(text)).__name__
        assert str(error.value) == (
            f"{path}: bad capture record 13: TypeError: record is a JSON "
            f"{kind}, not an object")


class TestLinkProperties:
    def test_causality_bound(self):
        sim = self.run = Simulation(seed=11)
        sim.add_segment("lan", LinkProfile(200, 80, 0))
        a = sim.attach_host("a", [("lan", "02:00:00:00:00:01", "10.0.0.1")])
        sim.attach_host("b", [("lan", "02:00:00:00:00:02", "10.0.0.2")])
        for n in range(200):
            a.send_udp("10.0.0.2", 7, b"x", "RAW")
        sim.run_until(10_000_000)
        for f in sim.capture:
            if f.delivered:
                assert f.deliver_ts_us >= f.ts_us + 200 - 80

    def test_fifo_per_sender(self):
        sim = Simulation(seed=12)
        sim.add_segment("lan", LinkProfile(100, 90, 0))
        a = sim.attach_host("a", [("lan", "02:00:00:00:00:01", "10.0.0.1")])
        sim.attach_host("b", [("lan", "02:00:00:00:00:02", "10.0.0.2")])
        frames = [a.send_udp("10.0.0.2", 7, bytes([n]), "RAW")
                  for n in range(100)]
        sim.run_until(10_000_000)
        deliveries = [f.deliver_ts_us for f in frames]
        assert deliveries == sorted(deliveries)

    def test_loss_drops_frames_deterministically(self):
        def run():
            sim = Simulation(seed=13)
            sim.add_segment("lan", LinkProfile(100, 0, 0.3))
            a = sim.attach_host("a", [("lan", "02:00:00:00:00:01", "10.0.0.1")])
            sim.attach_host("b", [("lan", "02:00:00:00:00:02", "10.0.0.2")])
            for n in range(100):
                a.send_udp("10.0.0.2", 7, b"x", "RAW")
            sim.run_until(10_000_000)
            return [f.drop_reason for f in sim.capture]
        first, second = run(), run()
        assert first == second
        assert "loss" in first

    @pytest.mark.parametrize("jitter_us", [50, 10**16])
    def test_draws_match_an_independent_reference(self, jitter_us):
        """Every frame's loss, jitter, clamp at 0 and per-(sender, segment)
        FIFO, against Random.uniform on the sender's data and ARP lanes. At
        10**16 us a float step is 2 us, so only uniform's own expression
        gives the same delays."""
        base_us, loss = 30, 0.3
        sim = Simulation(seed=21)
        sim.add_segment("lan", LinkProfile(base_us, jitter_us, loss))
        a = sim.attach_host("a", [("lan", "02:00:00:00:00:01", "10.0.0.1")])
        b = sim.attach_host("b", [("lan", "02:00:00:00:00:02", "10.0.0.2")])
        for n in range(300):
            sim.run_until(n * 100)
            a.send_udp("10.0.0.2", 7, b"x", "RAW")
            if n % 3 == 0:
                b.send_udp("10.0.0.1", 7, b"y", "RAW")
            if n % 5 == 0:
                a.send_gratuitous_arp(b, "10.0.0.1", "02:00:00:00:00:01",
                                      "lan")
        sim.run_until(4 * 10**16)
        lanes, fifo, clamped = {}, {}, 0
        for f in sim.capture:
            lane = f"21/net/{f.sender}" + ("/arp" if f.l4 == "ARP" else "")
            rng = lanes.setdefault(lane, random.Random(lane))
            if rng.random() < loss:
                assert (f.drop_reason, f.deliver_ts_us) == ("loss", 0)
                continue
            delay = base_us + int(round(rng.uniform(-jitter_us, jitter_us)))
            clamped += delay < 0
            key = (f.sender, f.segment)
            fifo[key] = max(f.ts_us + max(0, delay), fifo.get(key, 0))
            assert (f.drop_reason, f.deliver_ts_us) == ("", fifo[key])
            assert f.delivered
        assert clamped
        assert {(f.l4, f.drop_reason) for f in sim.capture} == {
            ("UDP", ""), ("UDP", "loss"), ("ARP", ""), ("ARP", "loss")}
