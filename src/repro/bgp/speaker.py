"""The BGP speaker: one path-vector router.

This is the protocol engine whose transient behavior the paper studies.  It
implements, per §3:

* full-path announcements with **path-based poison reverse** on receipt
  (a path containing the receiver is discarded — treated as an implicit
  withdrawal of the sender's previous route),
* storage of "the most recent paths received from each of its neighbors"
  (Adj-RIB-In) and **path exploration**: on losing the best route, fall back
  to the best stored alternate before resorting to an explicit withdrawal,
* the per-(destination, neighbor) **MRAI timer** with jitter, applied to
  announcements only (unless WRATE), or one timer per neighbor
  (:mod:`repro.bgp.mrai`),
* duplicate suppression: a route is advertised once and re-advertised only
  on change (tracked via the Adj-RIB-Out),
* the four §5 enhancements, enabled by :class:`~repro.bgp.config.BgpConfig`
  flags, with their decision logic in :mod:`repro.bgp.variants`,
* the session lifecycle (when ``BgpConfig.hold_time > 0``): hold/keepalive
  liveness, ConnectRetry re-establishment after a session loss via an OPEN
  handshake, and the RFC 1771 initial table exchange on session-up.

There is one path through it, the many-prefix one, and its unit of work
is the route-state group: the prefixes whose decision inputs are equal.
Every UPDATE form enters one ``(withdrawn, nlri)`` handler (a single
announcement or withdrawal is a batch of one), which applies each run of
routes sharing a path to the Adj-RIB-In as one transition per state group;
:meth:`BgpSpeaker._run_decisions` decides once per group;
:meth:`BgpSpeaker._sync` plans each peer's update once per outcome, syncs
peers prefix-outer, peer-inner, and holds every rate-limiting,
duplicate-suppression and enhancement rule; an MRAI expiry and the
full-table exchanges both sync their prefixes to one peer in one MRAI
round (:meth:`BgpSpeaker._release`); one emit step sends or queues each
route for a batched UPDATE.  What stays per prefix is what the outputs are
made of: each NLRI entry and Adj-RIB-Out record, each Loc-RIB and FIB
change with its listener records, and every observer hook.

The speaker maintains a one-prefix-deep FIB (``prefix -> next hop``); every
FIB change is reported to an optional listener, which is how the data plane
reconstructs the forwarding graph over time.
"""

from __future__ import annotations

from contextlib import ExitStack
from itertools import repeat
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..engine import RandomStreams, Scheduler
from ..errors import ProtocolError
from ..net import Node
from .config import BgpConfig
from .damping import RouteFlapDamper
from .decision import DecisionProcess
from .messages import Announcement, Keepalive, Open, Prefix, UpdateBatch, Withdrawal
from .mrai import MraiManager
from .session import SessionManager
from .path import AsPath
from .policy import RoutingPolicy, ShortestPathPolicy
from .rib import EMPTY_VIEW, AdjRibIn, AdjRibOut, LocRib
from .route import Route, intern_route
from .variants import (
    converts_to_withdrawal,
    should_flush,
    stale_entries,
    withdrawals_rate_limited,
)

_FIRST = itemgetter(0)
_PENDING = object()  # a value not computed yet

FibListener = Callable[[float, int, Prefix, Optional[int]], None]
"""``listener(time, node, prefix, next_hop)``; ``next_hop is None`` = no route,
``next_hop == node`` = local delivery."""

RouteListener = Callable[
    [float, int, Prefix, Optional[AsPath], Optional[AsPath]], None
]
"""``listener(time, node, prefix, old_path, new_path)`` fired on every best-
path change; paths are in the paper's notation (the node itself at the
head), ``None`` meaning no route.  This is the "route change trace" §6
proposes examining."""


class BgpSpeaker(Node):
    """A router speaking the (possibly enhanced) path-vector protocol.

    Parameters
    ----------
    node_id, scheduler:
        Identity and the shared simulation scheduler.
    config:
        Protocol variant and timing knobs.
    streams:
        The run's named RNG streams (jitter and processing-delay draws are
        taken from per-node streams, keeping runs reproducible).
    policy:
        Routing policy; defaults to the paper's shortest-path policy.
    fib_listener:
        Optional callback invoked on every next-hop change.
    """

    def __init__(
        self,
        node_id: int,
        scheduler: Scheduler,
        config: BgpConfig,
        streams: RandomStreams,
        policy: Optional[RoutingPolicy] = None,
        fib_listener: Optional[FibListener] = None,
        route_listener: Optional[RouteListener] = None,
    ) -> None:
        proc_rng = streams.stream(f"processing-delay:{node_id}")
        low, high = config.processing_delay

        def service_time() -> float:
            return proc_rng.uniform(low, high)

        super().__init__(node_id, scheduler, service_time)
        self.config = config
        self.policy = policy or ShortestPathPolicy()
        self._wrate = withdrawals_rate_limited(config)
        self.decision = DecisionProcess(self.policy)
        self.adj_rib_in = AdjRibIn(preference_key=self.policy.preference_key)
        self.loc_rib = LocRib()
        self.adj_rib_out = AdjRibOut()
        self.mrai = MraiManager(
            scheduler,
            interval=config.mrai,
            jitter=config.mrai_jitter,
            rng=streams.stream(f"mrai-jitter:{node_id}"),
            on_expiry=self._on_mrai_expiry,
            mode=config.mrai_mode,
        )
        self.damper: Optional[RouteFlapDamper] = None
        if config.damping is not None:
            self.damper = RouteFlapDamper(
                scheduler, config.damping, on_reuse=self._damping_reuse
            )
        self.sessions: Optional[SessionManager] = None
        if config.sessions_enabled:
            self.sessions = SessionManager(
                scheduler,
                hold_time=config.hold_time,
                keepalive_interval=config.effective_keepalive,
                send_keepalive=self._send_keepalive_to,
                on_session_down=self._purge_neighbor,
                connect=self._attempt_connect,
                on_session_up=self._session_established,
                retry_base=config.connect_retry,
                retry_cap=config.connect_retry_cap,
                rng=streams.stream(f"connect-retry:{node_id}"),
            )
        self._origins: Set[Prefix] = set()
        self.fib: Dict[Prefix, Optional[int]] = {}
        self._fib_listener = fib_listener
        self._route_listener = route_listener
        # Batched-UPDATE send queue (config.batch_updates): per peer, the
        # prefixes queued this instant, ``None`` meaning withdraw.  A
        # same-instant flush event drains each peer's queue into one
        # UpdateBatch; Adj-RIB-Out is maintained at queue time, so all
        # suppression logic sees the post-queue state.
        self._pending_updates: Dict[int, Dict[Prefix, Optional[AsPath]]] = {}
        self._flush_scheduled: Set[int] = set()
        self.session_resets_seen = 0

    # ------------------------------------------------------------------
    # Public protocol API
    # ------------------------------------------------------------------

    @property
    def origins(self) -> Set[Prefix]:
        """Prefixes this speaker currently originates (copy)."""
        return set(self._origins)

    def originate(self, prefix: Prefix) -> None:
        """Start originating ``prefix`` (the destination AS's role)."""
        self.update_origins([prefix], [])

    def withdraw_origin(self, prefix: Prefix) -> None:
        """Stop originating ``prefix`` — the Tdown trigger.

        The destination host behind this AS is gone; the speaker re-runs its
        decision (finding nothing, since every peer-learned path for its own
        prefix is poison-reversed away) and withdraws from all peers.
        """
        if prefix not in self._origins:
            raise ProtocolError(f"node {self.node_id} does not originate {prefix!r}")
        self.update_origins([], [prefix])

    def update_origins(self, add: Sequence[Prefix], remove: Sequence[Prefix]) -> None:
        """Start originating ``add`` and stop originating ``remove``
        (disjoint), then decide them in one pass, ``add`` first.  A prefix
        already in the wanted state is left alone.

        Each decision reads only its own prefix's state, so one pass is
        outcome-identical to originating and withdrawing one prefix at a
        time in that order (:meth:`originate` and :meth:`withdraw_origin`
        are the one-prefix cases).
        """
        origins = self._origins
        added = [prefix for prefix in dict.fromkeys(add) if prefix not in origins]
        origins.update(added)
        removed = [prefix for prefix in dict.fromkeys(remove) if prefix in origins]
        origins.difference_update(removed)
        self._run_decisions(added + removed)

    def start(self) -> None:
        """Bring up sessions and advertise pre-configured originations.

        The burst runs under per-peer MRAI flush windows (no-ops in
        per-prefix mode), as deployed peer-based implementations do.  But
        :meth:`update_origins` before this call already decided and synced,
        outside any window: one prefix per peer went out and armed its
        timer, the rest were held.  This call decides again, sends the rest
        and re-arms each timer; the held pairs later release as no-ops.
        """
        if self.sessions is not None:
            for peer in self.neighbors:
                self.sessions.establish(peer)
        with ExitStack() as stack:
            for peer in self.neighbors:
                stack.enter_context(self.mrai.flush_window(peer))
            origins = sorted(self._origins)
            self._run_decisions(origins)
            self._sync(self._ports, origins)

    def best_route(self, prefix: Prefix) -> Optional[Route]:
        """The current Loc-RIB entry for ``prefix``."""
        return self.loc_rib.get(prefix)

    def next_hop(self, prefix: Prefix) -> Optional[int]:
        """Current forwarding next hop (own id = deliver locally)."""
        return self.fib.get(prefix)

    def full_path(self, prefix: Prefix) -> Optional[AsPath]:
        """The node's path in the paper's notation: itself at the head."""
        best = self.loc_rib.get(prefix)
        if best is None:
            return None
        return best.path.prepend(self.node_id)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def handle_message(self, src: int, message) -> None:
        """Process one message after its CPU service delay.

        With sessions enabled, liveness/staleness is judged by *session*
        state (a silent link failure is invisible until the hold timer
        fires); without them, by physical link state — the paper's
        interface-detection model.
        """
        if isinstance(message, Open):
            # Handshake messages are meaningful precisely when the session
            # is NOT established, so they bypass the staleness gate below.
            self._handle_open(src, message)
            return
        if self.sessions is not None:
            if not self.sessions.established(src):
                return  # stale delivery from a torn-down session
            self.sessions.message_received(src)
            if isinstance(message, Keepalive):
                return
        elif not self.link_is_up(src):
            return  # stale delivery from an adjacency that has since died
        if isinstance(message, Announcement):
            self._handle_update(src, (), ((message.prefix, message.path),))
        elif isinstance(message, Withdrawal):
            self._handle_update(src, (message.prefix,), ())
        elif isinstance(message, UpdateBatch):
            self._handle_update(src, message.withdrawn, message.nlri)
        else:
            raise ProtocolError(f"unexpected message {message!r} from {src}")

    def _handle_update(
        self,
        src: int,
        withdrawn: Sequence[Prefix],
        nlri: Sequence[Tuple[Prefix, AsPath]],
    ) -> None:
        """One UPDATE: withdrawn routes first, then NLRI — RFC 4271's
        processing order — then one decision pass over every prefix it
        named.  A single announcement or withdrawal is a batch of one.

        The routes carrying one path (or none: the withdrawn) are applied
        as one run; an UPDATE names each prefix once, so applying run by
        run is applying route by route.
        """
        runs: Dict[Optional[AsPath], List[Prefix]] = {}
        if withdrawn:
            runs[None] = list(withdrawn)
        last: Optional[AsPath] = None
        run: List[Prefix] = []
        for prefix, path in nlri:
            if path is not last:
                # Neighboring prefixes mostly share a path: look up only
                # when it changes.
                last = path
                run = runs.setdefault(path, [])
            run.append(prefix)
        for path, prefixes in runs.items():
            self._apply_run(src, path, prefixes)
        self._run_decisions([*withdrawn, *map(_FIRST, nlri)])

    def _apply_run(self, src: int, path: Optional[AsPath], prefixes: List[Prefix]) -> None:
        """Adj-RIB-In effects of ``src``'s routes for ``prefixes``, all
        carrying ``path`` (``None``: withdrawn); no decision run.

        The import policy, prefix-blind by contract, is evaluated once for
        the run and the result applied as one
        :meth:`~repro.bgp.rib.AdjRibIn.assign`.
        """
        if path is not None and path.head != src:
            raise ProtocolError(
                f"announcement head {path.head} does not match sender {src}"
            )
        if self.config.assertion:
            for prefix in prefixes:
                self._apply_assertion(prefix, src, path)
        rib = self.adj_rib_in
        # Path-based poison reverse: a path through us is unusable, and it
        # *replaces* src's previous announcement (implicit withdrawal).
        unusable = path is None or self.node_id in path
        if self.damper is not None:
            for prefix in prefixes:
                previous = rib.get(src, prefix)
                if previous is None:
                    continue
                if unusable:
                    self.damper.record_withdrawal(src, prefix)
                elif previous.path != path:
                    self.damper.record_change(src, prefix)
        if unusable:
            observer = self.scheduler.observer
            if path is not None and observer is not None:
                for _prefix in prefixes:
                    observer.on_variant_extra(self.node_id, "poison_reverse")
            rib.assign(src, prefixes, None)
            return
        assert path is not None
        provisional = intern_route(prefixes[0], path, src)
        local_pref = self.policy.local_pref(src, provisional)
        if local_pref == provisional.local_pref:
            route = provisional  # default pref: already the shared instance
        else:
            route = intern_route(prefixes[0], path, src, local_pref)
        accepted = self.policy.accept_import(src, route)
        rib.assign(src, prefixes, (route.path, src, local_pref) if accepted else None)

    def _apply_assertion(
        self, prefix: Prefix, src: int, new_path: Optional[AsPath]
    ) -> None:
        """Invalidate stored routes the update from ``src`` proves stale."""
        observer = self.scheduler.observer
        for neighbor in stale_entries(self.adj_rib_in, prefix, src, new_path):
            self.adj_rib_in.remove(neighbor, prefix)
            if observer is not None:
                observer.on_variant_extra(self.node_id, "assertion_removal")

    # ------------------------------------------------------------------
    # Adjacency changes
    # ------------------------------------------------------------------

    def on_link_down(self, neighbor: int) -> None:
        """Interface reported the adjacency down: purge immediately."""
        if self.sessions is not None:
            self.sessions.teardown(neighbor)
        self._purge_neighbor(neighbor)

    def _purge_neighbor(self, neighbor: int) -> None:
        """Forget everything learned from / sent to a dead peer, re-decide.

        Shared by interface-level detection (:meth:`on_link_down`) and
        hold-timer expiry (session mode).
        """
        affected = self.adj_rib_in.drop_neighbor(neighbor)
        self.adj_rib_out.drop_neighbor(neighbor)
        self.mrai.cancel_peer(neighbor)
        self._pending_updates.pop(neighbor, None)
        if self.damper is not None:
            self.damper.cancel_peer(neighbor)
        self._run_decisions(affected)

    def on_link_up(self, neighbor: int) -> None:
        """Adjacency (re-)established: bring the session up, advertise."""
        if self.sessions is not None:
            self.sessions.establish(neighbor)
        self._release(neighbor, self.loc_rib.prefixes())

    def on_session_reset(self, neighbor: int) -> None:
        """The TCP session to ``neighbor`` died; the physical link is fine.

        Both in-flight directions were destroyed with the connection, so
        everything learned from (and believed sent to) the peer is stale:
        purge, then rebuild.  With the session layer on, ConnectRetry drives
        an OPEN handshake (``immediate=True`` — the peer is expected back
        momentarily, no accumulated backoff).  Without it, TCP
        re-establishment is modeled as instantaneous: re-exchange at once.
        """
        self.session_resets_seen += 1
        if self.sessions is not None:
            self.sessions.teardown(neighbor)
            self._purge_neighbor(neighbor)
            self.sessions.start_reconnect(neighbor, immediate=True)
            return
        self._purge_neighbor(neighbor)
        self._release(neighbor, self.loc_rib.prefixes())

    def _send_keepalive_to(self, peer: int) -> None:
        """Session-layer callback; guards the physical link state."""
        if self.link_is_up(peer):
            self.send(peer, Keepalive())

    # ------------------------------------------------------------------
    # Session re-establishment (ConnectRetry + OPEN handshake)
    # ------------------------------------------------------------------

    def _attempt_connect(self, peer: int) -> None:
        """ConnectRetry fired: send an OPEN if the link can carry it.

        With the link physically down the retry goes dormant — the
        interface-up notification re-establishes directly
        (see :meth:`on_link_up`).
        """
        assert self.sessions is not None
        if not self.alive or self.sessions.established(peer):
            return
        if not self.link_is_up(peer):
            return
        self.send(peer, Open())
        # No reply yet: keep probing with the next backoff step.
        self.sessions.start_reconnect(peer)

    def _handle_open(self, src: int, message: Open) -> None:
        """(Re-)build the session with ``src`` and trigger the re-exchange.

        The echo reply is sent *before* establishing so the peer processes
        it — and establishes its side — ahead of the full-table updates that
        establishment emits (the channel is FIFO).  Crossing OPENs terminate
        because an echo is never answered.
        """
        if self.sessions is None or not self.link_is_up(src):
            return
        if not message.echo:
            if self.sessions.established(src):
                # The peer restarted its side of the session: everything we
                # hold from — and believe we sent to — it is stale.
                self.sessions.teardown(src)
                self._purge_neighbor(src)
            self.send(src, Open(echo=True))
        self.sessions.establish(src)
        self.sessions.message_received(src)

    def _session_established(self, peer: int) -> None:
        """Session-up callback: the RFC 1771 initial table exchange.

        The purge at session loss dropped the peer's Adj-RIB-Out record,
        so every Loc-RIB prefix re-advertises from scratch.
        """
        self._release(peer, self.loc_rib.prefixes())

    # ------------------------------------------------------------------
    # Whole-router fault injection
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose all protocol state: RIBs, timers, sessions, CPU queue.

        Route and FIB listeners see the crashed router's routes disappear
        (its data plane forwards nothing), keeping the forwarding-graph
        reconstruction truthful through the outage.
        """
        for prefix in sorted(self.loc_rib.prefixes()):
            if self._route_listener is not None:
                self._route_listener(
                    self.scheduler.now,
                    self.node_id,
                    prefix,
                    self._node_path(self.loc_rib.get(prefix)),
                    None,
                )
            self._update_fib(prefix, None)
        if self.sessions is not None:
            self.sessions.shutdown()
        self.mrai.cancel_all()
        self._pending_updates.clear()
        self._flush_scheduled.clear()
        if self.damper is not None:
            for neighbor in sorted(self.network.topology.neighbors(self.node_id)):
                self.damper.cancel_peer(neighbor)
        self.adj_rib_in = AdjRibIn(preference_key=self.policy.preference_key)
        self.loc_rib = LocRib()
        self.adj_rib_out = AdjRibOut()
        super().crash()

    def restart(self) -> None:
        """Cold boot: configured originations intact, everything else gone.

        :meth:`Network.restart_node` restores the links *after* this runs,
        so dissemination (and session re-establishment) begins as the
        ``on_link_up`` notifications arrive one adjacency at a time.
        """
        super().restart()
        self._run_decisions(sorted(self._origins))

    # ------------------------------------------------------------------
    # Decision + dissemination
    # ------------------------------------------------------------------

    def _usable_predicate(self, prefix: Prefix):
        if self.damper is None:
            return None
        damper = self.damper

        def usable(route: Route) -> bool:
            assert route.next_hop is not None
            return not damper.is_suppressed(route.next_hop, prefix)

        return usable

    def _select_best(self, prefix: Prefix) -> Optional[Route]:
        """The decision-process optimum, honoring damping suppression."""
        return self.decision.select(
            prefix,
            self.adj_rib_in,
            originated=prefix in self._origins,
            usable=self._usable_predicate(prefix),
        )

    def _select_best_naive(self, prefix: Prefix) -> Optional[Route]:
        """Ground-truth selection via the full candidate scan.

        Bypasses the Adj-RIB-In's incremental ranking so sanitizers and
        invariant checks validate the cached winner against an independent
        derivation.
        """
        return self.decision.select_naive(
            prefix,
            self.adj_rib_in,
            originated=prefix in self._origins,
            usable=self._usable_predicate(prefix),
        )

    def _damping_reuse(self, peer: int, prefix: Prefix) -> None:
        """A suppressed (peer, prefix) decayed below reuse: reconsider it."""
        self._run_decisions([prefix])

    def _decision_keys(self, prefixes: Sequence[Prefix]) -> Iterable[Tuple]:
        """Per prefix, everything its decision reads: its Adj-RIB-In state
        group (candidates and ranking), whether we originate it, and —
        with damping — which of its candidates are suppressed.  Equal keys,
        equal winners, because the policy is prefix-blind
        (:class:`~repro.bgp.policy.RoutingPolicy`)."""
        groups = self.adj_rib_in.groups(prefixes)
        originated = map(self._origins.__contains__, prefixes)
        damper = self.damper
        if damper is None:
            return zip(groups, originated)
        neighbors_with = self.adj_rib_in.neighbors_with
        suppressed = [
            tuple(
                peer for peer in neighbors_with(prefix) if damper.is_suppressed(peer, prefix)
            )
            for prefix in prefixes
        ]
        return zip(groups, originated, suppressed)

    def _run_decisions(self, prefixes: Sequence[Prefix]) -> None:
        """Re-select every prefix's best route, then sync the changed ones.

        The decision process runs once per decision key
        (:meth:`_decision_keys`) and each prefix takes its key's winner;
        the Loc-RIB and FIB changes, the route-listener records and
        ``on_decision`` are made per prefix, in order.  Each decision reads
        and writes only its own prefix's state, so deciding every prefix
        before any send is outcome-identical to interleaving, and the sync
        keeps the prefix-outer, peer-inner send order.
        """
        observer = self.scheduler.observer
        loc_rib = self.loc_rib
        listener = self._route_listener
        # key -> [winner as (next_hop, local_pref, path) or None, and its
        # path in node notation once a change needs it]
        winners: Dict[Tuple, List[object]] = {}
        changed = []
        best_of = loc_rib.get
        for prefix, key in zip(prefixes, self._decision_keys(prefixes)):
            old = best_of(prefix)
            if key in winners:
                winner = winners[key]
            else:
                best = self._select_best(prefix)
                winner = winners[key] = [
                    None if best is None else (best.next_hop, best.local_pref, best.path),
                    _PENDING,
                ]
            stored = winner[0]
            # Next hop and preference first: a changed route mostly differs
            # there, before its path is compared.
            if (None if old is None else (old.next_hop, old.local_pref, old.path)) != stored:
                new = (
                    None
                    if stored is None
                    else intern_route(prefix, stored[2], stored[0], stored[1])
                )
                if new is None:
                    loc_rib.remove(prefix)
                else:
                    loc_rib.set(new)
                if listener is not None:
                    if winner[1] is _PENDING:
                        winner[1] = self._node_path(new)
                    listener(
                        self.scheduler.now,
                        self.node_id,
                        prefix,
                        self._node_path(old),
                        winner[1],
                    )
                self._update_fib(prefix, new)
                changed.append(prefix)
            if observer is not None:
                observer.on_decision(self, prefix)
        if changed:
            # Every adjacency; _sync keeps the ones that can receive.
            self._sync(self._ports, changed)

    def _node_path(self, route: Optional[Route]) -> Optional[AsPath]:
        """A route's path in the paper's notation (self at the head)."""
        if route is None:
            return None
        return route.path.prepend(self.node_id)

    def _update_fib(self, prefix: Prefix, best: Optional[Route]) -> None:
        if best is None:
            next_hop: Optional[int] = None
        elif best.next_hop is None:
            next_hop = self.node_id  # a local route: deliver here
        else:
            next_hop = best.next_hop
        fib = self.fib
        if prefix in fib:
            if fib[prefix] == next_hop:
                return
        elif next_hop is None:
            return  # never had a route and still none: nothing changed
        fib[prefix] = next_hop
        observer = self.scheduler.observer
        if observer is not None:
            observer.on_fib_change(
                self.scheduler.now, self.node_id, prefix, next_hop
            )
        if self._fib_listener is not None:
            self._fib_listener(self.scheduler.now, self.node_id, prefix, next_hop)

    def _sync(self, peers: Iterable[int], prefixes: Sequence[Prefix]) -> None:
        """Bring each peer's view of each prefix in line with our Loc-RIB.

        Prefix-outer, peer-inner.  All rate-limiting, duplicate-suppression
        and enhancement behavior funnels through here; an update the MRAI
        timer suppresses is recorded in the timer's held set, and the
        expiry re-enters here (:meth:`_release`) to derive it from the
        *latest* state.

        Updates are only emitted toward peers that can actually receive
        them: the link must be up and, in session mode, the session
        established — otherwise the peer would drop the update while our
        Adj-RIB-Out recorded it as sent, and the re-exchange at session-up
        would skip routes the peer never saw.  Sends cannot change link or
        session state, so eligibility is checked once per call, on the
        port table.  Export, SSLD and the desired path are planned once per
        (peer, outcome) (:meth:`_plan`), and a per-peer MRAI timer's state
        is read once per peer and updated as sends arm it; per (peer,
        prefix) remain the Adj-RIB-Out read, the per-prefix MRAI test in
        per-prefix mode, and the emit or hold.
        """
        ports = self._ports
        sessions = self.sessions
        peers = [
            peer
            for peer in peers
            if ports[peer].up and (sessions is None or sessions.established(peer))
        ]
        if not peers:
            return
        observer = self.scheduler.observer
        node_id = self.node_id
        mrai = self.mrai
        emit = self._emit
        ghost_flushing = self.config.ghost_flushing
        held: List[Tuple[int, Prefix]] = []
        # Per-peer mode: one gate per peer (its timer serves every prefix),
        # 0 closed, 1 open, 2 open with this round's send already recorded
        # (a flush window).
        gates = (
            {peer: int(mrai.can_send_now(peer, None)) for peer in peers}
            if mrai.per_peer
            else None
        )
        best_of = self.loc_rib.get
        # outcome -> plan; the path by identity (every Loc-RIB path is
        # alive throughout, so equal ids are one path)
        plans: Dict[Optional[Tuple], List[Tuple]] = {}
        for prefix in prefixes:
            best = best_of(prefix)
            outcome = (
                None
                if best is None
                else (id(best.path), best.next_hop, best.local_pref)
            )
            plan = plans.get(outcome)
            if plan is None:
                plan = plans[outcome] = self._plan(peers, best)
            for peer, sent, desired, limited, extra in plan:
                if extra is not None and observer is not None:
                    observer.on_variant_extra(node_id, extra)
                last = sent[prefix] if prefix in sent else None
                if desired is last or (
                    desired is not None and last is not None and desired == last
                ):
                    if observer is not None:
                        observer.on_update_suppressed(
                            node_id, peer, prefix, "duplicate"
                        )
                    continue
                if limited:
                    gate = mrai.can_send_now(peer, prefix) if gates is None else gates[peer]
                    if not gate:
                        # Held until the expiry re-derives it (WRATE holds
                        # withdrawals too).
                        held.append((peer, prefix))
                        if observer is not None:
                            observer.on_update_suppressed(
                                node_id, peer, prefix, "wrate" if desired is None else "mrai"
                            )
                        if (
                            ghost_flushing
                            and desired is not None
                            and should_flush(last, desired)
                        ):
                            emit(peer, prefix, None)
                            if observer is not None:
                                observer.on_variant_extra(node_id, "ghost_flush")
                        continue
                emit(peer, prefix, desired)
                if limited:
                    if gates is None:
                        mrai.mark_sent(peer, prefix)
                    elif gate == 1:
                        mrai.mark_sent(peer, prefix)
                        gates[peer] = 2 if mrai.can_send_now(peer, prefix) else 0
        if held:
            mrai.hold(held)

    def _plan(self, peers: List[int], best: Optional[Route]) -> List[Tuple]:
        """Per eligible peer, what it should hold from us given ``best``:
        ``(peer, sent, desired, limited, extra)``.  ``sent`` is the peer's
        Adj-RIB-Out view (a view this sync's first send creates is not it,
        which reads the same: each (peer, prefix) is synced once per call);
        ``desired`` the path (None = nothing); ``limited`` whether sending
        it waits for MRAI (announcements always, withdrawals under WRATE);
        ``extra`` the variant event each of its prefixes reports."""
        wrate = self._wrate
        views = zip(peers, map(self.adj_rib_out.get, peers, repeat(EMPTY_VIEW)))
        if best is None:
            return [(peer, sent, None, wrate, None) for peer, sent in views]
        advertised = best.advertised_by(self.node_id)
        accept_export = self.policy.accept_export
        # SSLD: a peer that would poison-reverse the path away gets the
        # equivalent information as an (immediate) withdrawal instead.
        ssld = self.config.ssld
        return [
            (peer, sent, None, wrate, None)
            if not accept_export(peer, best)
            else (peer, sent, None, wrate, "ssld_conversion")
            if ssld and converts_to_withdrawal(peer, advertised)
            else (peer, sent, advertised, True, None)
            for peer, sent in views
        ]

    def _emit(self, peer: int, prefix: Prefix, path: Optional[AsPath]) -> None:
        """Send one route to ``peer`` (``path is None``: withdraw it) and
        record it in the Adj-RIB-Out — as its own message, or queued for the
        peer's same-instant ``UpdateBatch``.

        A queued route joins the peer's pending map (last write wins).  The
        first one queued for a peer schedules a same-instant flush event;
        every further same-instant update for the peer — including later
        events at this timestamp — joins the same batch.  Because the flush
        fires at the same simulation time the individual messages would
        have been sent, batching only changes packing, never timing.
        """
        observer = self.scheduler.observer
        if observer is not None:
            if path is None:
                observer.on_withdrawal(self, peer, prefix)
            else:
                observer.on_announcement(self, peer, prefix, path)
        if self.config.batch_updates:
            try:
                self._pending_updates[peer][prefix] = path
            except KeyError:
                self._pending_updates[peer] = {prefix: path}
            if peer not in self._flush_scheduled:
                self._flush_scheduled.add(peer)
                self.scheduler.call_at(
                    self.scheduler.now,
                    lambda p=peer: self._flush_updates(p),
                    name=f"batch-flush:{self.node_id}->{peer}",
                )
        elif path is None:
            self.send(peer, Withdrawal(prefix))
        else:
            self.send(peer, Announcement(prefix, path))
        self.adj_rib_out.record(peer, prefix, path)

    # ------------------------------------------------------------------
    # Batched-UPDATE packing (config.batch_updates)
    # ------------------------------------------------------------------

    def _flush_updates(self, peer: int) -> None:
        """Drain the peer's queue into one canonical UpdateBatch."""
        self._flush_scheduled.discard(peer)
        pending = self._pending_updates.pop(peer, None)
        if not pending or not self.alive:
            return
        if not self.link_is_up(peer):
            return  # adjacency died this instant; the purge re-syncs later
        if self.sessions is not None and not self.sessions.established(peer):
            return
        order = sorted(pending)
        withdrawn = tuple([p for p in order if pending[p] is None])
        nlri = tuple([(p, pending[p]) for p in order if pending[p] is not None])
        self.send(peer, UpdateBatch(withdrawn=withdrawn, nlri=nlri))

    def _on_mrai_expiry(self, peer: int, held: List[Prefix]) -> None:
        """An MRAI timer toward ``peer`` expired: release what it held."""
        observer = self.scheduler.observer
        if observer is not None:
            observer.on_mrai_expiry(
                self.scheduler.now, self.node_id, peer,
                held[0] if len(held) == 1 else "*",
            )
        self._release(peer, held)

    def _release(self, peer: int, prefixes: Sequence[Prefix]) -> None:
        """Sync ``prefixes`` toward ``peer`` as one MRAI round: every update
        may go out, and a per-peer timer is re-armed once at the end, only
        if something was sent."""
        if prefixes:  # an empty round would send nothing and arm nothing
            with self.mrai.flush_window(peer):
                self._sync([peer], prefixes)

    # ------------------------------------------------------------------
    # Invariants (exercised by the test suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`ProtocolError` if any RIB/FIB invariant is violated."""
        for neighbor, route in self.adj_rib_in.entries():
            if self.node_id in route.path:
                raise ProtocolError(
                    f"node {self.node_id} stored a looping path {route.path!r} "
                    f"from {neighbor}"
                )
            if route.next_hop != neighbor:
                raise ProtocolError(
                    f"adj-rib-in[{neighbor}] holds route with next hop "
                    f"{route.next_hop}"
                )
        known = set(self.loc_rib.prefixes()) | self._origins
        for _neighbor, route in self.adj_rib_in.entries():
            known.add(route.prefix)
        for prefix in sorted(known):
            # The naive scan is the ground truth here, keeping this check
            # independent of the incremental ranking it helps validate.
            expected = self._select_best_naive(prefix)
            actual = self.loc_rib.get(prefix)
            if expected != actual:
                raise ProtocolError(
                    f"node {self.node_id} loc-rib for {prefix!r} is {actual!r}, "
                    f"decision process says {expected!r}"
                )
            cached = self._select_best(prefix)
            if cached != expected:
                raise ProtocolError(
                    f"node {self.node_id} ranked selection for {prefix!r} is "
                    f"{cached!r}, naive scan says {expected!r}"
                )
            fib_hop = self.fib.get(prefix)
            if expected is None and fib_hop is not None:
                raise ProtocolError(
                    f"node {self.node_id} FIB has {fib_hop} for unreachable "
                    f"{prefix!r}"
                )
            if expected is not None:
                want = self.node_id if expected.is_local else expected.next_hop
                if fib_hop != want:
                    raise ProtocolError(
                        f"node {self.node_id} FIB hop {fib_hop} != best-route "
                        f"hop {want} for {prefix!r}"
                    )
