"""A reference BGP speaker, written from the paper's §3 and §5 prose alone.

It exists to check :class:`repro.bgp.BgpSpeaker` against something that is
not itself, so it is deliberately naive and shares none of its code:

* the RIBs are plain dicts of dicts; paths are tuples of AS numbers,
  converted to and from :class:`~repro.bgp.path.AsPath` only on the wire;
* every received UPDATE re-runs a brute-force decision — the minimum over
  every stored candidate — for its prefix, and a changed best route is
  synced to every live neighbor at once;
* MRAI is one timer per (peer, prefix) (§3), or one per peer
  (``mode="per-peer"``, the dragon simulator's ``MRAI_PEER_BASED``), whose
  expiry re-derives the whole table toward that peer and re-arms once;
* SSLD, WRATE, Assertion and Ghost Flushing follow the sentences quoted
  beside them;
* no route interning, no decision cache, no shared candidate groups, no
  UPDATE packing, no session layer, no damping.

From :mod:`repro.bgp` it imports only the wire types.  It subclasses
:class:`repro.net.Node`, so it runs on the same engine, channels and
per-node RNG streams (``processing-delay:<id>``, ``mrai-jitter:<id>``) as
the fast speaker: with the same seed both see the same service times and,
while their timers arm in the same order, the same jitter.
"""

from __future__ import annotations

from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.path import AsPath
from repro.net import Node

PER_PREFIX = "per-prefix"
PER_PEER = "per-peer"


class ReferenceSpeaker(Node):
    """One path-vector router with the paper's shortest-path policy.

    ``config`` is read for its knobs only (``mrai``, ``mrai_jitter``,
    ``mrai_mode``, ``processing_delay`` and the four enhancement flags).
    """

    def __init__(self, node_id, scheduler, config, streams, fib_listener=None):
        low, high = config.processing_delay
        delays = streams.stream(f"processing-delay:{node_id}")
        super().__init__(node_id, scheduler, lambda: delays.uniform(low, high))
        self.mrai = config.mrai
        self.jitter = config.mrai_jitter
        self.per_peer = config.mrai_mode == PER_PEER
        self.ssld = config.ssld
        self.wrate = config.wrate
        self.assertion = config.assertion
        self.ghost_flushing = config.ghost_flushing
        self.jitter_rng = streams.stream(f"mrai-jitter:{node_id}")
        self.fib_listener = fib_listener
        self.origins = set()
        self.rib_in = {}  # prefix -> {neighbor: path as received}
        self.loc_rib = {}  # prefix -> (path as stored, next hop or None)
        self.rib_out = {}  # peer -> {prefix: path last sent, None = withdrawn}
        self.fib = {}  # prefix -> next hop (own id = local delivery)
        self.timers = {}  # (peer, prefix) or (peer, None) -> pending event
        self.open_rounds = {}  # peer -> "sent something" during a table round

    # ------------------------------------------------------------------
    # Origination and adjacency changes
    # ------------------------------------------------------------------

    def originate(self, prefix):
        if prefix not in self.origins:
            self.origins.add(prefix)
            self.decide(prefix)

    def withdraw_origin(self, prefix):
        self.origins.discard(prefix)
        self.decide(prefix)

    def update_origins(self, add, remove):
        for prefix in add:
            self.originate(prefix)
        for prefix in remove:
            if prefix in self.origins:
                self.withdraw_origin(prefix)

    def start(self):
        peers = self.neighbors
        for peer in peers:
            self.open_round(peer)
        for prefix in sorted(self.origins):
            self.decide(prefix)
            for peer in peers:
                self.sync(peer, prefix)
        for peer in reversed(peers):
            self.close_round(peer)

    def on_link_down(self, neighbor):
        """Forget the peer (both directions) and re-decide what it carried."""
        lost = sorted(p for p, routes in self.rib_in.items() if neighbor in routes)
        for prefix in lost:
            del self.rib_in[prefix][neighbor]
        self.rib_out.pop(neighbor, None)
        for key in [key for key in self.timers if key[0] == neighbor]:
            self.timers.pop(key).cancel()
        self.open_rounds.pop(neighbor, None)
        for prefix in lost:
            self.decide(prefix)

    def on_link_up(self, neighbor):
        """The initial table exchange: every Loc-RIB prefix, one round."""
        self.open_round(neighbor)
        for prefix in sorted(self.loc_rib):
            self.sync(neighbor, prefix)
        self.close_round(neighbor)

    # ------------------------------------------------------------------
    # Receipt
    # ------------------------------------------------------------------

    def handle_message(self, src, message):
        if not self.link_is_up(src):
            return
        if isinstance(message, Announcement):
            path = tuple(message.path)
            assert path[0] == src, (path, src)
        elif isinstance(message, Withdrawal):
            path = None
        else:
            raise TypeError(f"the reference speaker only speaks plain UPDATEs: {message!r}")
        prefix = message.prefix
        routes = self.rib_in.setdefault(prefix, {})
        if self.assertion:
            # "When node v receives a path path(u, new) from neighbor u, v
            # removes any backup paths that include u and contain a sub-path
            # different from path(u, new)"; a withdrawal leaves u no path.
            for neighbor, stored in list(routes.items()):
                if neighbor != src and src in stored:
                    if path is None or stored[stored.index(src):] != path:
                        del routes[neighbor]
        if path is None or self.node_id in path:
            # Withdrawn, or poison-reversed: "a path containing the receiver
            # is discarded" and replaces the sender's previous route.
            routes.pop(src, None)
        else:
            routes[src] = path
        self.decide(prefix)

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------

    def decide(self, prefix):
        """Brute force: shortest path, then the lowest next hop; local first."""
        candidates = [((), None)] if prefix in self.origins else []
        candidates += [(path, hop) for hop, path in self.rib_in.get(prefix, {}).items()]
        best = min(
            candidates,
            key=lambda c: (len(c[0]), -1 if c[1] is None else c[1]),
            default=None,
        )
        if best == self.loc_rib.get(prefix):
            return
        if best is None:
            del self.loc_rib[prefix]
            hop = None
        else:
            self.loc_rib[prefix] = best
            hop = self.node_id if best[1] is None else best[1]
        if self.fib.get(prefix) != hop:
            self.fib[prefix] = hop
            if self.fib_listener is not None:
                self.fib_listener(self.scheduler.now, self.node_id, prefix, hop)
        for peer in self.neighbors:
            self.sync(peer, prefix)

    # ------------------------------------------------------------------
    # Dissemination
    # ------------------------------------------------------------------

    def desired(self, peer, prefix):
        best = self.loc_rib.get(prefix)
        if best is None:
            return None
        path = (self.node_id,) + best[0]
        if self.ssld and peer in path:
            # SSLD: "Before sending a path, a node checks whether the
            # receiver is present in the path ... [it] will send a
            # withdrawal message (which is not limited by the MRAI timer)."
            return None
        return path

    def sync(self, peer, prefix):
        """Tell ``peer`` what it should now hold for ``prefix``, if allowed."""
        if not self.link_is_up(peer):
            return
        want = self.desired(peer, prefix)
        sent = self.rib_out.setdefault(peer, {})
        last = sent.get(prefix)
        if want == last:
            return
        key = (peer, None) if self.per_peer else (peer, prefix)
        held = self.mrai > 0 and key in self.timers and peer not in self.open_rounds
        if want is None:
            if self.wrate and held:
                return  # WRATE: withdrawals wait for the timer like announcements
            self.transmit(peer, prefix, None)
            if self.wrate:
                self.rate_limited(peer, key)
            return
        if not held:
            self.transmit(peer, prefix, want)
            self.rate_limited(peer, key)
        elif self.ghost_flushing and last is not None and len(want) > len(last):
            # Ghost Flushing: "a node immediately send[s] a withdrawal when
            # the node changes to a longer path [and] the new path
            # announcement is delayed by the MRAI timer".
            self.transmit(peer, prefix, None)

    def transmit(self, peer, prefix, path):
        self.rib_out[peer][prefix] = path
        if path is None:
            self.send(peer, Withdrawal(prefix=prefix))
        else:
            self.send(peer, Announcement(prefix=prefix, path=AsPath(path)))

    # ------------------------------------------------------------------
    # MRAI
    # ------------------------------------------------------------------

    def rate_limited(self, peer, key):
        """A rate-limited update went out: (re)start its timer, or note it
        for the end of an open per-peer round."""
        if self.mrai <= 0:
            return
        if peer in self.open_rounds:
            self.open_rounds[peer] = True
            return
        self.arm(key)

    def arm(self, key):
        pending = self.timers.pop(key, None)
        if pending is not None:
            pending.cancel()
        low, high = self.jitter
        delay = self.mrai * self.jitter_rng.uniform(low, high)
        self.timers[key] = self.scheduler.call_after(delay, lambda: self.expire(key))

    def expire(self, key):
        del self.timers[key]
        peer, prefix = key
        if not self.link_is_up(peer):
            return
        if prefix is not None:
            self.sync(peer, prefix)
            return
        # Per-peer: re-derive the whole table toward the peer in one round.
        live = {p for p, path in self.rib_out.get(peer, {}).items() if path is not None}
        self.open_round(peer)
        for prefix in sorted(set(self.loc_rib) | live):
            self.sync(peer, prefix)
        self.close_round(peer)

    def open_round(self, peer):
        """Per-peer mode: sends to ``peer`` go out freely until the round
        closes; the shared timer is then armed once if anything was sent."""
        if self.per_peer and self.mrai > 0:
            self.open_rounds[peer] = False

    def close_round(self, peer):
        if self.open_rounds.pop(peer, False):
            self.arm((peer, None))
