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
        all-256-byte payloads, and both values of every boolean; each frame
        is delivered, if at all, at or after its ts_us."""
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
                tcp_flags=flags, payload=payload,
                proto_tag=netsim.PROTO_TAGS[k % len(netsim.PROTO_TAGS)],
                origin=bools[0], final=bools[1], delivered=bools[2],
                deliver_ts_us=k * 1_000_010, drop_reason=text[3],
                fw_denied=bools[3]))
        return frames

    def test_writer_matches_json_dumps_of_every_record(self, tmp_path):
        frames = self.hard_frames()
        path = tmp_path / "capture.jsonl"
        write_capture_jsonl(frames, path)
        expected = "".join(json.dumps(frame_to_record(f)) + "\n"
                           for f in frames)
        assert path.read_bytes() == expected.encode()

    def test_writer_lines_equal_json_dumps_on_edge_frames(self, tmp_path):
        # every flag tuple under each l4, ARP frames with payloads, empty
        # payloads, ports 0 and 65535 and escaped or non-ASCII text, each
        # memoised segment's fields met with other values around them
        flag_sets = [c for n in range(len(netsim.FLAG_LETTER) + 1)
                     for c in itertools.combinations(
                         sorted(netsim.FLAG_LETTER), n)]
        texts = ["", "lan", 'quo"te', "back\\slash", "caf\u00e9 \U0001f600",
                 "ctl\x00\x1f\x7f\n\t"]
        frames = []
        for k, (flags, l4) in enumerate(itertools.product(
                flag_sets, ("TCP", "UDP", "ARP"))):
            t = [texts[(k * 7 // n) % len(texts)] for n in range(1, 9)]
            frames.append(Frame(
                ts_us=k, segment=t[0], sender=t[1], src_mac=t[2],
                dst_mac=t[3], src_ip=t[4], dst_ip=t[5],
                src_port=(0, 65535, k)[k % 3],
                dst_port=(65535, 0, 1)[k // 3 % 3], l4=l4, tcp_flags=flags,
                payload=bytes(range(k % 7 * 3)),
                proto_tag=netsim.PROTO_TAGS[k % len(netsim.PROTO_TAGS)],
                origin=k % 2 == 0, final=k % 4 < 2, delivered=k % 3 == 0,
                deliver_ts_us=k * 11, drop_reason=t[7],
                fw_denied=k % 5 == 0))
        path = tmp_path / "capture.jsonl"
        write_capture_jsonl(frames, path)
        lines = path.read_text().splitlines()
        assert lines == [json.dumps(frame_to_record(f)) for f in frames]
        arp = [json.loads(line) for line in lines if '"l4": "ARP"' in line]
        assert {rec["len"] for rec in arp} == {42}
        assert any(rec["payload_b64"] for rec in arp)
        assert {tuple(json.loads(line)["tcp_flags"]) for line in lines} \
            == set(flag_sets) and len(flag_sets) == 32

    @pytest.mark.parametrize("tag", ["x", "modbus", "UDP", ""])
    def test_writer_refuses_a_tag_the_reader_would(self, tmp_path, tag):
        frame = Frame(ts_us=0, segment="lan", sender="a",
                      src_mac="02:00:00:00:00:01",
                      dst_mac="02:00:00:00:00:02", src_ip="10.0.0.1",
                      dst_ip="10.0.0.2", src_port=1, dst_port=2, l4="UDP",
                      tcp_flags=(), payload=b"", proto_tag=tag)
        with pytest.raises(ValueError, match="proto_tag"):
            write_capture_jsonl([frame], tmp_path / "capture.jsonl")

    def test_writer_lines_cross_write_batches_whole(self, tmp_path):
        # lines that fill several batches, one longer than a batch alone
        big = 3 * netsim.WRITE_BATCH // 4
        frames = [Frame(
            ts_us=k, segment="lan", sender="a", src_mac="02:00:00:00:00:01",
            dst_mac="02:00:00:00:00:02", src_ip="10.0.0.1",
            dst_ip="10.0.0.2", src_port=1, dst_port=2, l4="UDP",
            tcp_flags=(), payload=bytes([k % 256]) * (
                big if k in (3, 4, 9) else k * 1_000),
            proto_tag="COAP") for k in range(12)]
        path = tmp_path / "capture.jsonl"
        write_capture_jsonl(frames, path)
        assert path.read_text() == "".join(
            json.dumps(frame_to_record(f)) + "\n" for f in frames)
        assert len(path.read_text().splitlines()[3]) > netsim.WRITE_BATCH

    def test_hard_cases_read_back_through_both_paths(self, tmp_path):
        # the hard text of each frame in its segment and sender, the two
        # fields a plan names freely, read whole and streamed
        hard = [dataclasses.replace(f, proto_tag="MODBUS", drop_reason="")
                for f in self.hard_frames()]
        # each copy follows its frame, at the same ts_us
        frames = [g for f in hard for g in (f, dataclasses.replace(
            f, segment="lan", sender=""))]
        path = tmp_path / "capture.jsonl"
        write_capture_jsonl(frames, path)
        assert "\\" in path.read_text()
        back = netsim.read_capture_jsonl(path)
        assert back == frames
        assert repr(back) == repr(frames)
        streamed = list(netsim.iter_capture_jsonl(path))
        assert streamed == frames and repr(streamed) == repr(frames)
        assert len({id(f.src_ip) for f in back}) == 1
        assert len({id(f.tcp_flags) for f in back}) == 4
        texts = [v for f in back for v in (f.segment, f.sender)]
        assert len({id(v) for v in texts}) == len(set(texts)) == 6

    def test_sorted_by_timestamp(self):
        sim = self.run_fixture()
        frames = capture_export(sim)
        assert all(frames[i].ts_us <= frames[i + 1].ts_us
                   for i in range(len(frames) - 1))


class TestCaptureReader:
    IPS = ("10.0.0.1", "10.0.0.2", "192.168.10.150")
    # host ids a plan may name freely, which the writer escapes
    SENDERS = ("h0", "h1", 'h"2', "h\\3", "h\u00e9 4")

    def frames(self, n=5000):
        out = []
        for k in range(n):
            tcp = k % 3 != 2
            out.append(Frame(
                ts_us=k * 1000, segment=("lan", 'w\u00e4n "b"')[k % 2],
                sender=self.SENDERS[k % 5],
                src_mac=f"02:00:00:00:00:0{k % 4}",
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
        """The capture of frames, as the writer writes it; replace maps a
        record index to the lines written instead, in which a surrogate
        stands for the byte that is not UTF-8 it is written as."""
        with open(path, "w", errors="surrogateescape") as fh:
            for k, f in enumerate(frames):
                line = json.dumps(frame_to_record(f))
                for text in (replace or {}).get(k, [line]):
                    fh.write(text + "\n")

    def test_round_trip_of_many_records(self, tmp_path):
        frames = self.frames()
        path = tmp_path / "capture.jsonl"
        self.write(path, frames)
        written = tmp_path / "written.jsonl"
        write_capture_jsonl(frames, written)
        assert path.read_bytes() == written.read_bytes()
        back = netsim.read_capture_jsonl(path)
        assert back == frames and repr(back) == repr(frames)
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
        assert len({id(f.segment) for f in back}) == 2
        assert len({id(f.tcp_flags) for f in back}) == 4

    @staticmethod
    def departs(field):
        return f"the line departs from the writer's at {field}"

    # a line -> the lines written in its place, and how the reader refuses
    # the first of them: the reference error each test expects
    GARBLES = {
        "truncated": (lambda line, rec: [line[:40]], departs("src_mac")),
        "split_over_two_lines": (lambda line, rec: [line[:200], line[200:]],
                                 departs("tcp_flags")),
        "two_records_on_one_line": (lambda line, rec: [line + "," + line],
                                    departs("fw_denied")),
        "missing_field": (lambda line, rec: [json.dumps(
            {k: v for k, v in rec.items() if k != "dst_mac"})],
            departs("dst_mac")),
        "bad_base64": (lambda line, rec: [json.dumps(
            dict(rec, payload_b64="abc"))],
            "payload_b64 is not base64: Incorrect padding"),
        "flags_not_a_list": (lambda line, rec: [json.dumps(
            dict(rec, tcp_flags=7))], departs("tcp_flags")),
        "ip_a_number": (lambda line, rec: [json.dumps(dict(rec, src_ip=5))],
                        departs("src_ip")),
        "flags_a_string": (lambda line, rec: [json.dumps(
            dict(rec, tcp_flags="SYN"))], departs("tcp_flags")),
        "unknown_flag": (lambda line, rec: [json.dumps(
            dict(rec, tcp_flags=["ACK", "SYNX"]))], departs("tcp_flags")),
        "boolean_a_string": (lambda line, rec: [json.dumps(
            dict(rec, delivered="false"))], departs("delivered")),
        "blank_line": (lambda line, rec: ["", line], departs("ts_us")),
        "padded_line": (lambda line, rec: [f" {line}\t"], departs("ts_us")),
        "negative_ts": (lambda line, rec: [json.dumps(dict(rec, ts_us=-5))],
                        departs("ts_us")),
        "byte_not_utf8": (lambda line, rec: [line.replace(
            '"sender": "', '"sender": "\udcff', 1)], departs("sender")),
    }

    @pytest.mark.parametrize("garble", sorted(GARBLES))
    def test_bad_record_gives_the_reference_error(self, tmp_path, garble):
        frames = self.frames()
        rec = frame_to_record(frames[3333])
        edit, expected = self.GARBLES[garble]
        path = tmp_path / "capture.jsonl"
        self.write(path, frames, {3333: edit(json.dumps(rec), rec)})
        with pytest.raises(ValueError) as error:
            netsim.read_capture_jsonl(path)
        assert str(error.value) == (
            f"{path}: bad capture record 3334: {expected}")

    @staticmethod
    def ts_us(text):
        return lambda line, rec: [line.replace(
            f'"ts_us": {rec["ts_us"]},', f'"ts_us": {text},')]

    @staticmethod
    def wire_len(text):
        return lambda line, rec: [line.replace(
            f'"len": {rec["len"]},', f'"len": {text},')]

    # lines, JSON or not, that the writer does not write: the field the
    # reader refuses each at is its reference
    UNWRITTEN = {
        "unicode_escape": (lambda line, rec: [json.dumps(
            dict(rec, proto_tag="caf\u00e9"))], "proto_tag"),
        "escaped_quote": (lambda line, rec: [json.dumps(
            dict(rec, drop_reason='lo"ss'))], "drop_reason"),
        # address text that plan validation refuses
        "mac_with_a_newline": (lambda line, rec: [json.dumps(
            dict(rec, src_mac="02:00:00:00:00:01\n"))], "src_mac"),
        "ip_of_other_digits": (lambda line, rec: [json.dumps(
            dict(rec, dst_ip="\u0661\u0660.0.0.1"))], "dst_ip"),
        "unknown_l4": (lambda line, rec: [json.dumps(dict(rec, l4="x"))],
                       "l4"),
        "unknown_proto_tag": (lambda line, rec: [json.dumps(
            dict(rec, proto_tag="x"))], "proto_tag"),
        "proto_tag_in_lower_case": (lambda line, rec: [json.dumps(
            dict(rec, proto_tag="modbus"))], "proto_tag"),
        "src_port_above_65535": (lambda line, rec: [json.dumps(
            dict(rec, src_port=70000))], "src_port"),
        "dst_port_65536": (lambda line, rec: [json.dumps(
            dict(rec, dst_port=65536))], "dst_port"),
        "port_of_six_digits": (lambda line, rec: [json.dumps(
            dict(rec, src_port=100000))], "src_port"),
        # a name whose escape JSON has not
        "bad_escape_in_a_name": (lambda line, rec: [json.dumps(
            dict(rec, sender="h\\q")).replace("h\\\\q", "h\\q")],
            "sender"),
        "ts_minus_zero": (ts_us("-0"), "ts_us"),
        "ts_leading_zero": (ts_us("01"), "ts_us"),
        "ts_float": (ts_us("1.0"), "ts_us"),
        "ts_exponent": (ts_us("1e3"), "ts_us"),
        "ts_underscore": (ts_us("1_000"), "ts_us"),
        # past 640 digits int() may refuse an int
        "ts_641_digits": (ts_us("1" * 641), "ts_us"),
        "ts_5000_digits": (ts_us("1" * 5000), "ts_us"),
        "len_5000_digits": (wire_len("1" * 5000), "len"),
        "ts_arabic_indic_digit": (ts_us("\u0661"), "ts_us"),
        "doubled_spaces": (lambda line, rec: [line.replace(", ", ",  ")],
                           "src_mac"),
        "reordered_keys": (lambda line, rec: [json.dumps(
            dict(reversed(rec.items())))], "ts_us"),
        "no_segment": (lambda line, rec: [json.dumps(
            {k: v for k, v in rec.items() if k != "segment"})], "segment"),
        "lower_case_flags": (lambda line, rec: [json.dumps(
            dict(rec, tcp_flags=["ack", "syn"]))], "tcp_flags"),
        # a Frame's flags are a sorted tuple
        "flags_out_of_order": (lambda line, rec: [json.dumps(
            dict(rec, tcp_flags=["SYN", "ACK"]))], "tcp_flags"),
        "flag_twice": (lambda line, rec: [json.dumps(
            dict(rec, tcp_flags=["ACK", "ACK"]))], "tcp_flags"),
        "int_for_a_boolean": (lambda line, rec: [json.dumps(
            dict(rec, origin=1))], "origin"),
        "two_for_a_boolean": (lambda line, rec: [json.dumps(
            dict(rec, final=2))], "final"),
        "float_for_a_boolean": (lambda line, rec: [json.dumps(
            dict(rec, fw_denied=0.0))], "fw_denied"),
    }

    def write_unwritten(self, path, case):
        """20 records, the 13th replaced by the case's line."""
        frames = self.frames(20)
        rec = frame_to_record(frames[12])
        edit, field = self.UNWRITTEN[case]
        self.write(path, frames, {12: edit(json.dumps(rec), rec)})
        return f"{path}: bad capture record 13: {self.departs(field)}"

    @pytest.mark.parametrize("case", sorted(UNWRITTEN))
    def test_unwritten_line_reads_as_the_reference(self, tmp_path, case):
        path = tmp_path / "capture.jsonl"
        expected = self.write_unwritten(path, case)
        with pytest.raises(ValueError) as error:
            netsim.read_capture_jsonl(path)
        assert str(error.value) == expected

    def test_a_record_out_of_ts_order_is_refused(self, tmp_path):
        for times, record in (((5, 5, 9, 7), 4), ((5, 9, 7), 3)):
            frames = [Frame(ts, "lan", "h", "m", "m", "10.0.0.1",
                            "10.0.0.2", 1, 2, "UDP", (), b"", "DNS")
                      for ts in times]
            path = tmp_path / "capture.jsonl"
            write_capture_jsonl(frames, path)
            with pytest.raises(ValueError) as error:
                list(netsim.iter_capture_jsonl(path))
            assert str(error.value) == (
                f"{path}: bad capture record {record}: ts_us 7 is below the "
                f"previous record's 9")

    @pytest.mark.parametrize("l4, payload, written", [
        ("TCP", b"", 54), ("TCP", b"abc", 57), ("UDP", b"ab", 44),
        ("ARP", b"abcd", 42)])
    def test_a_len_not_the_wire_length_is_refused(self, tmp_path, l4,
                                                  payload, written):
        frames = [Frame(ts, "lan", "h", "m", "m", "10.0.0.1", "10.0.0.2", 1,
                        2, l4, (), payload, "DNS") for ts in (5, 6, 7)]
        path = tmp_path / "capture.jsonl"
        write_capture_jsonl(frames, path)
        assert [f.wire_len for f in netsim.read_capture_jsonl(path)] == \
            [written] * 3
        for wrong in (written - 1, written + 1, 0):
            lines = path.read_text().splitlines(keepends=True)
            lines[2] = lines[2].replace(f'"len": {written},',
                                        f'"len": {wrong},')
            (tmp_path / "edited.jsonl").write_text("".join(lines))
            with pytest.raises(ValueError) as error:
                netsim.read_capture_jsonl(tmp_path / "edited.jsonl")
            assert str(error.value) == (
                f"{tmp_path / 'edited.jsonl'}: bad capture record 3: len "
                f"{wrong} is not the wire length of a {l4} record with a "
                f"{len(payload)}-byte payload")

    def test_a_delivery_before_its_send_is_refused(self, tmp_path):
        # an undelivered record's deliver_ts_us is not a time
        frames = [Frame(ts, "lan", "h", "m", "m", "10.0.0.1", "10.0.0.2", 1,
                        2, "UDP", (), b"", "DNS", delivered=delivered,
                        deliver_ts_us=deliver)
                  for ts, delivered, deliver in ((5, True, 5), (6, False, 0),
                                                 (7, True, 6))]
        path = tmp_path / "capture.jsonl"
        write_capture_jsonl(frames, path)
        with pytest.raises(ValueError) as error:
            netsim.read_capture_jsonl(path)
        assert str(error.value) == (
            f"{path}: bad capture record 3: deliver_ts_us 6 of a delivered "
            f"record is below its ts_us 7")
        write_capture_jsonl(frames[:2], path)
        assert len(netsim.read_capture_jsonl(path)) == 2

    @pytest.mark.parametrize("text", ["[{}]", "null", "7", '"text"'])
    def test_record_that_is_not_an_object(self, tmp_path, text):
        frames = self.frames(20)
        path = tmp_path / "capture.jsonl"
        self.write(path, frames, {12: [text]})
        with pytest.raises(ValueError) as error:
            list(netsim.iter_capture_jsonl(path))
        assert str(error.value) == (
            f"{path}: bad capture record 13: {self.departs('ts_us')}")


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
