//! Sender-side protocol state (§3.2, §4).
//!
//! The sender keeps an [`OutboundMessage`] per message in flight and
//! implements SRPT across them: whenever the NIC asks for a packet, the
//! transmittable message with the fewest remaining bytes wins. Grants
//! raise per-message transmission limits; RESENDs queue retransmission
//! ranges (answered with BUSY when the sender is occupied with
//! higher-priority messages, so the peer doesn't time out).
//!
//! Packet selection never scans the held state. An ordered index holds
//! the SRPT rank `(remaining, created_at, key)` of every held message that
//! is currently transmittable, and of no other; the lowest rank is the
//! next message to serve. Every change to a held message goes through one
//! helper that takes the old rank out of the index, applies the change,
//! and puts the new rank back if the message is still transmittable;
//! dropping a message (or replacing it under the same key) takes its rank
//! out first. The index so stays exact however much fully-sent state is
//! retained, and per-packet work no longer grows with it.
//!
//! State lifecycle follows §3.8: response messages are discarded the
//! moment their last byte is handed to the NIC (servers keep no state for
//! completed RPCs); one-way messages linger briefly for retransmission;
//! request messages are owned by the RPC layer and removed when the
//! response arrives.

use crate::config::HomaConfig;
use crate::messages::OutboundMessage;
use crate::packets::{BusyHeader, DataHeader, Dir, MsgKey, PeerId};
use crate::unsched::PriorityMap;
use crate::Nanos;
use std::collections::{BTreeSet, HashMap};

/// How the sender reacted to an incoming RESEND.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResendReaction {
    /// Retransmission queued; data will flow shortly.
    Queued,
    /// Sender is busy with shorter messages; a BUSY notification should be
    /// sent so the peer does not time out (the retransmission is queued
    /// regardless and will be served in SRPT order).
    QueuedButBusy(BusyHeader),
    /// The message is unknown (state already discarded, or never existed).
    Unknown,
}

/// SRPT rank of a message: fewest remaining bytes first, then the oldest,
/// then the lowest key (a total order, so selection is deterministic).
type Rank = (u64, Nanos, MsgKey);

fn rank(m: &OutboundMessage) -> Rank {
    (m.remaining(), m.created_at, m.key)
}

/// Sender half of a Homa endpoint.
#[derive(Debug)]
pub struct SenderState {
    cfg: HomaConfig,
    msgs: HashMap<MsgKey, OutboundMessage>,
    /// Rank of every message in `msgs` that is `transmittable()`, and of
    /// no other. Maintained only by [`update`](Self::update) and
    /// [`remove`](Self::remove).
    ready: BTreeSet<Rank>,
    /// Fully-sent one-way messages kept around until `expire_at` so that
    /// late RESENDs can still be answered.
    linger: Vec<(MsgKey, Nanos)>,
}

impl SenderState {
    /// New sender state.
    pub fn new(cfg: HomaConfig) -> Self {
        SenderState { cfg, msgs: HashMap::new(), ready: BTreeSet::new(), linger: Vec::new() }
    }

    /// Number of messages with state held.
    pub fn active_messages(&self) -> usize {
        self.msgs.len()
    }

    /// Apply `change` to the message held under `key`, keeping the ready
    /// index exact: the old rank leaves before the new one enters (the
    /// index is untouched when the entry would not change). `None` when
    /// no state is held for `key`.
    fn update<R>(
        &mut self,
        key: MsgKey,
        change: impl FnOnce(&mut OutboundMessage) -> R,
    ) -> Option<R> {
        let m = self.msgs.get_mut(&key)?;
        let before = m.transmittable().then(|| rank(m));
        let out = change(m);
        let after = m.transmittable().then(|| rank(m));
        if before != after {
            if let Some(r) = before {
                self.ready.remove(&r);
            }
            if let Some(r) = after {
                self.ready.insert(r);
            }
        }
        Some(out)
    }

    /// Begin transmitting a message. `peer_map` supplies the receiver's
    /// unscheduled priority cutoffs (disseminated or statically
    /// configured). A message already held under `key` (a response
    /// restarted by RPC re-execution, §3.8) is replaced.
    #[allow(clippy::too_many_arguments)]
    pub fn start_message(
        &mut self,
        now: Nanos,
        key: MsgKey,
        dst: PeerId,
        len: u64,
        tag: u64,
        incast_mark: bool,
        peer_map: &PriorityMap,
    ) {
        let unsched_limit = self.cfg.unsched_limit_for(incast_mark).min(len.max(1));
        let msg = OutboundMessage {
            key,
            dst,
            len,
            sent: 0,
            granted: unsched_limit,
            unsched_limit,
            sched_prio: 0,
            unsched_prio: peer_map.unsched_prio(len),
            retx: Vec::new(),
            incast_mark,
            tag,
            created_at: now,
            last_peer_activity: now,
            stall_pokes: 0,
        };
        // The replaced message's rank must go before the new one goes in:
        // a restart of the same length at the same instant has the same
        // rank, and removing it afterwards would unindex the new message.
        self.remove(key);
        if msg.transmittable() {
            self.ready.insert(rank(&msg));
        }
        self.msgs.insert(key, msg);
    }

    /// Handle a GRANT: raise the transmission limit and adopt the
    /// receiver-assigned scheduled priority.
    pub fn on_grant(&mut self, now: Nanos, key: MsgKey, offset: u64, prio: u8) -> bool {
        self.update(key, |m| {
            if offset > m.granted {
                m.granted = offset.min(m.len);
            }
            m.sched_prio = prio;
            m.last_peer_activity = now;
            m.stall_pokes = 0;
        })
        .is_some()
    }

    /// Sender-side stall recovery for messages whose receiver has gone
    /// silent (no grants for a resend interval). For one-way messages the
    /// entire blind prefix may have been lost — the receiver does not even
    /// know the message exists — so retransmit the first packet to
    /// re-create receiver state. For *responses* the client's own chasing
    /// (RESENDs while `awaiting_first_response`, receiver gap chasing
    /// after) covers every loss pattern, so a silent client means the RPC
    /// is dead on its side; just age the state out without retransmitting
    /// (found by the stateful model fuzzer: stalled response state used
    /// to leak forever once the client aborted the RPC). Requests are
    /// skipped: the client RPC sweep owns their whole lifecycle. Gives up
    /// after the abort budget and returns the abandoned `(dst, tag)`s.
    pub fn poke_stalled(&mut self, now: Nanos) -> Vec<(PeerId, u64)> {
        let interval = self.cfg.resend_interval_ns;
        let limit = self.cfg.abort_after_resends;
        let payload = self.cfg.max_payload as u64;
        let mut abandoned = Vec::new();
        let mut dead = Vec::new();
        // Sorted key order so retransmit state changes (and the abandoned
        // list) are independent of HashMap iteration order.
        let mut keys: Vec<MsgKey> = self.msgs.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let m = &self.msgs[&key];
            if key.dir == Dir::Request || m.fully_sent() || m.transmittable() {
                continue;
            }
            if now.saturating_sub(m.last_peer_activity) < interval {
                continue;
            }
            if m.stall_pokes >= limit {
                dead.push(key);
                abandoned.push((m.dst, m.tag));
                continue;
            }
            self.update(key, |m| {
                m.stall_pokes += 1;
                m.last_peer_activity = now;
                if key.dir == Dir::Oneway {
                    m.queue_retx(0, payload.min(m.len));
                }
            });
        }
        for k in dead {
            self.remove(k);
        }
        abandoned
    }

    /// Handle a RESEND for one of our outbound messages.
    pub fn on_resend(&mut self, key: MsgKey, offset: u64, length: u64, prio: u8) -> ResendReaction {
        let shortest_other = self.ready.iter().find(|r| r.2 != key).map(|r| r.0);
        self.update(key, |m| {
            // Also treat the RESEND as an implicit grant: the receiver
            // must have been expecting these bytes.
            if offset + length > m.granted {
                m.granted = (offset + length).min(m.len);
            }
            m.sched_prio = prio;
            m.queue_retx(offset, length);
            match shortest_other {
                Some(r) if r < m.remaining() => ResendReaction::QueuedButBusy(BusyHeader { key }),
                _ => ResendReaction::Queued,
            }
        })
        .unwrap_or(ResendReaction::Unknown)
    }

    /// SRPT packet selection: produce the next DATA packet for the wire,
    /// or `None` when nothing is transmittable.
    pub fn next_data_packet(&mut self, now: Nanos) -> Option<(PeerId, DataHeader)> {
        let &(_, _, key) = self.ready.first()?;
        let max_payload = self.cfg.max_payload;
        let (dst, hdr, done) = self
            .update(key, |m| {
                let (offset, payload, retransmit) =
                    m.next_chunk(max_payload).expect("transmittable");
                let unscheduled = offset < m.unsched_limit && !retransmit;
                let hdr = DataHeader {
                    key,
                    msg_len: m.len,
                    offset,
                    payload,
                    prio: if unscheduled { m.unsched_prio } else { m.sched_prio },
                    unscheduled,
                    retransmit,
                    incast_mark: m.incast_mark,
                    tag: m.tag,
                };
                (m.dst, hdr, m.fully_sent())
            })
            .expect("ready message is held");
        if done {
            self.on_fully_sent(now, key);
        }
        Some((dst, hdr))
    }

    /// Apply the state-retention policy when a message's last byte goes
    /// out (§3.8).
    fn on_fully_sent(&mut self, now: Nanos, key: MsgKey) {
        match key.dir {
            // Servers discard all RPC state as soon as the response is
            // fully transmitted; a later RESEND for it is treated as an
            // unknown message (and triggers re-execution upstream).
            Dir::Response => self.remove(key),
            // One-way messages linger for late retransmissions, bounded
            // by a few resend intervals.
            Dir::Oneway => {
                let expire = now + 4 * self.cfg.resend_interval_ns;
                self.linger.push((key, expire));
            }
            // Requests are retained until the RPC completes (the response
            // acknowledges them); the RPC layer removes them.
            Dir::Request => {}
        }
    }

    /// Remove a message and its rank (used by the RPC layer when a
    /// response arrives, or on abort).
    pub fn remove(&mut self, key: MsgKey) {
        if let Some(m) = self.msgs.remove(&key) {
            if m.transmittable() {
                self.ready.remove(&rank(&m));
            }
        }
    }

    /// Whether the sender holds state for `key`.
    pub fn contains(&self, key: MsgKey) -> bool {
        self.msgs.contains_key(&key)
    }

    /// Read access to a message (diagnostics/tests).
    pub fn get(&self, key: MsgKey) -> Option<&OutboundMessage> {
        self.msgs.get(&key)
    }

    /// Whether any message currently has transmittable bytes.
    pub fn has_transmittable(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Snapshot of outbound messages:
    /// `(key, len, sent, granted, retx_ranges)`. Diagnostics only.
    pub fn outbound_snapshot(&self) -> Vec<(MsgKey, u64, u64, u64, usize)> {
        self.msgs.values().map(|m| (m.key, m.len, m.sent, m.granted, m.retx.len())).collect()
    }

    /// Garbage-collect lingering one-way state.
    pub fn expire_lingering(&mut self, now: Nanos) {
        let mut i = 0;
        while i < self.linger.len() {
            let (key, at) = self.linger[i];
            if at <= now {
                // Only drop if no retransmission was queued meanwhile.
                if self.msgs.get(&key).is_none_or(|m| m.fully_sent()) {
                    self.remove(key);
                }
                self.linger.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seq: u64) -> MsgKey {
        MsgKey { origin: PeerId(0), seq, dir: Dir::Oneway }
    }

    fn sender() -> SenderState {
        SenderState::new(HomaConfig::default())
    }

    fn map() -> PriorityMap {
        PriorityMap {
            num_priorities: 8,
            unsched_levels: 4,
            cutoffs: vec![280, 1_000, 4_000],
            version: 1,
        }
    }

    #[test]
    fn small_message_single_unscheduled_packet() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 100, 9, false, &map());
        let (dst, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(dst, PeerId(1));
        assert_eq!(hdr.offset, 0);
        assert_eq!(hdr.payload, 100);
        assert!(hdr.unscheduled);
        assert_eq!(hdr.prio, 7, "tiny message goes at top priority");
        assert_eq!(hdr.tag, 9);
        assert!(s.next_data_packet(0).is_none());
    }

    #[test]
    fn unsched_prefix_then_waits_for_grant() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 100_000, 0, false, &map());
        let mut sent = 0u64;
        while let Some((_, hdr)) = s.next_data_packet(0) {
            assert!(hdr.unscheduled);
            assert_eq!(hdr.prio, 4, "large message lowest unsched level");
            sent += hdr.payload as u64;
        }
        assert_eq!(sent, 9_700, "exactly RTTbytes sent blindly");
        // A grant opens more of the message at a scheduled priority.
        assert!(s.on_grant(0, key(1), 12_000, 2));
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert!(!hdr.unscheduled);
        assert_eq!(hdr.prio, 2);
        assert_eq!(hdr.offset, 9_700);
    }

    #[test]
    fn srpt_prefers_fewest_remaining() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 8_000, 0, false, &map());
        s.start_message(0, key(2), PeerId(2), 300, 0, false, &map());
        // The 300-byte message wins even though it arrived second.
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(2));
        // Then the big one.
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(1));
    }

    #[test]
    fn srpt_switches_to_shorter_message_mid_stream() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 9_000, 0, false, &map());
        let _ = s.next_data_packet(0).unwrap(); // 1400 of msg 1
        s.start_message(0, key(2), PeerId(2), 500, 0, false, &map());
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(2), "new shorter message preempts");
    }

    #[test]
    fn grant_monotone_and_clamped() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 5_000, 0, false, &map());
        assert!(s.on_grant(0, key(1), 1_000_000, 0));
        assert_eq!(s.get(key(1)).unwrap().granted, 5_000);
        // Stale (smaller) grant does not shrink the window.
        assert!(s.on_grant(0, key(1), 10, 0));
        assert_eq!(s.get(key(1)).unwrap().granted, 5_000);
        assert!(!s.on_grant(0, key(99), 10, 0));
    }

    #[test]
    fn resend_queues_retransmission() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 3_000, 0, false, &map());
        while s.next_data_packet(0).is_some() {}
        let r = s.on_resend(key(1), 0, 1_400, 5);
        assert_eq!(r, ResendReaction::Queued);
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert!(hdr.retransmit);
        assert_eq!(hdr.offset, 0);
        assert_eq!(hdr.payload, 1_400);
        assert_eq!(hdr.prio, 5, "retransmission uses RESEND's priority");
    }

    #[test]
    fn resend_while_busy_with_shorter_message_yields_busy() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 50_000, 0, false, &map());
        while s.next_data_packet(0).is_some() {}
        s.start_message(0, key(2), PeerId(2), 200, 0, false, &map());
        // msg2 (200B) outranks the retransmission of msg1.
        match s.on_resend(key(1), 0, 1_400, 3) {
            ResendReaction::QueuedButBusy(b) => assert_eq!(b.key, key(1)),
            other => panic!("expected busy, got {other:?}"),
        }
        // SRPT still sends msg2 first.
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(2));
    }

    #[test]
    fn resend_unknown_message() {
        let mut s = sender();
        assert_eq!(s.on_resend(key(1), 0, 100, 0), ResendReaction::Unknown);
    }

    #[test]
    fn response_state_discarded_after_last_byte() {
        let mut s = sender();
        let rk = MsgKey { origin: PeerId(9), seq: 1, dir: Dir::Response };
        s.start_message(0, rk, PeerId(9), 1_000, 0, false, &map());
        let _ = s.next_data_packet(0).unwrap();
        assert!(!s.contains(rk), "response state dropped at full send (§3.8)");
        assert_eq!(s.on_resend(rk, 0, 100, 0), ResendReaction::Unknown);
    }

    #[test]
    fn oneway_lingers_then_expires() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 500, 0, false, &map());
        let _ = s.next_data_packet(0).unwrap();
        assert!(s.contains(key(1)), "one-way lingers for late RESENDs");
        assert_eq!(s.on_resend(key(1), 0, 500, 7), ResendReaction::Queued);
        let _ = s.next_data_packet(0).unwrap();
        // Expire after the linger window.
        s.expire_lingering(1_000_000_000);
        assert!(!s.contains(key(1)));
    }

    #[test]
    fn incast_mark_limits_blind_prefix() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 50_000, 0, true, &map());
        let mut sent = 0u64;
        while let Some((_, hdr)) = s.next_data_packet(0) {
            assert!(hdr.incast_mark);
            sent += hdr.payload as u64;
        }
        assert_eq!(sent, 400, "incast-marked message sends only a few hundred blind bytes");
    }

    #[test]
    fn deterministic_tie_break_on_equal_remaining() {
        let mut s = sender();
        s.start_message(0, key(2), PeerId(1), 1_000, 0, false, &map());
        s.start_message(0, key(1), PeerId(1), 1_000, 0, false, &map());
        // Equal remaining and equal creation time: lower key wins.
        let (_, hdr) = s.next_data_packet(0).unwrap();
        assert_eq!(hdr.key, key(1));
    }

    #[test]
    fn restart_with_same_rank_stays_transmittable() {
        // RPC re-execution (§3.8) restarts a response under its old key.
        // Same length, same instant, nothing sent yet: the new message's
        // rank equals the replaced one's.
        let mut s = sender();
        let rk = MsgKey { origin: PeerId(9), seq: 1, dir: Dir::Response };
        s.start_message(0, rk, PeerId(9), 1_000, 1, false, &map());
        s.start_message(0, rk, PeerId(9), 1_000, 2, false, &map());
        assert!(s.has_transmittable());
        let (_, hdr) = s.next_data_packet(0).expect("restarted response is sent");
        assert_eq!((hdr.key, hdr.tag), (rk, 2));
        assert!(!s.has_transmittable());
    }

    #[test]
    fn restart_of_partly_sent_message_drops_its_old_rank() {
        let mut s = sender();
        s.start_message(0, key(1), PeerId(1), 9_000, 0, false, &map());
        let _ = s.next_data_packet(0).unwrap();
        s.start_message(5, key(1), PeerId(1), 300, 0, false, &map());
        let (_, hdr) = s.next_data_packet(5).unwrap();
        assert_eq!((hdr.offset, hdr.payload), (0, 300));
        assert!(s.next_data_packet(5).is_none(), "replaced message left no rank behind");
    }

    /// The SRPT choice as a full scan of the held state: the reference
    /// the ready index must agree with.
    fn scan_pick(s: &SenderState) -> Option<MsgKey> {
        s.msgs
            .values()
            .filter(|m| m.transmittable())
            .min_by_key(|m| (m.remaining(), m.created_at, m.key))
            .map(|m| m.key)
    }

    /// Fewest remaining bytes among transmittable messages other than
    /// `key`, by full scan (the reference for the BUSY decision).
    fn scan_shortest_other(s: &SenderState, key: MsgKey) -> Option<u64> {
        s.msgs.values().filter(|m| m.key != key && m.transmittable()).map(|m| m.remaining()).min()
    }

    /// SplitMix64 step.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A key from a small key space, so starts often restart a held key.
    fn random_key(rng: &mut u64) -> MsgKey {
        let dir = [Dir::Oneway, Dir::Response, Dir::Request][(next(rng) % 3) as usize];
        MsgKey { origin: PeerId(0), seq: next(rng) % 6, dir }
    }

    #[test]
    fn ready_index_matches_full_scan() {
        let interval = HomaConfig::default().resend_interval_ns;
        for seed in 0..300u64 {
            let mut rng = seed;
            let mut s = sender();
            let mut now: Nanos = 0;
            for step in 0..80 {
                let k = random_key(&mut rng);
                let ctx = format!("seed {seed} step {step}");
                match next(&mut rng) % 10 {
                    0 | 1 => {
                        let len = match next(&mut rng) % 4 {
                            0 => next(&mut rng) % 1_500,
                            1 => next(&mut rng) % 12_000,
                            2 => next(&mut rng) % 40_000,
                            _ => 0,
                        };
                        let incast = next(&mut rng) % 4 == 0;
                        s.start_message(now, k, PeerId(1), len, step, incast, &map());
                    }
                    2 => {
                        // Restart a held message with its own length and
                        // creation time: an unsent one keeps its rank.
                        let mut held: Vec<MsgKey> = s.msgs.keys().copied().collect();
                        held.sort_unstable();
                        if !held.is_empty() {
                            let k = held[(next(&mut rng) % held.len() as u64) as usize];
                            let (at, len) = (s.msgs[&k].created_at, s.msgs[&k].len);
                            s.start_message(at, k, PeerId(1), len, step, false, &map());
                        }
                    }
                    3 => {
                        let offset = next(&mut rng) % 45_000;
                        let prio = (next(&mut rng) % 4) as u8;
                        assert_eq!(s.on_grant(now, k, offset, prio), s.contains(k), "{ctx}");
                    }
                    4 => {
                        let other = scan_shortest_other(&s, k);
                        let offset = next(&mut rng) % 20_000;
                        let length = 1 + next(&mut rng) % 3_000;
                        let got = s.on_resend(k, offset, length, 1);
                        let want = match s.get(k) {
                            None => ResendReaction::Unknown,
                            Some(m) => match other {
                                Some(r) if r < m.remaining() => {
                                    ResendReaction::QueuedButBusy(BusyHeader { key: k })
                                }
                                _ => ResendReaction::Queued,
                            },
                        };
                        assert_eq!(got, want, "{ctx}");
                    }
                    5..=7 => {
                        let want = scan_pick(&s);
                        let got = s.next_data_packet(now).map(|(_, hdr)| hdr.key);
                        assert_eq!(got, want, "{ctx}");
                    }
                    8 => {
                        let _ = s.poke_stalled(now);
                        s.expire_lingering(now);
                    }
                    _ => s.remove(k),
                }
                now += next(&mut rng) % interval;
                // After every op: the index holds exactly the ranks of the
                // transmittable messages, so its head is the scan's choice.
                let want: BTreeSet<Rank> =
                    s.msgs.values().filter(|m| m.transmittable()).map(rank).collect();
                assert_eq!(s.ready, want, "{ctx}");
                assert_eq!(s.ready.first().map(|r| r.2), scan_pick(&s), "{ctx}");
                assert_eq!(
                    s.has_transmittable(),
                    s.msgs.values().any(|m| m.transmittable()),
                    "{ctx}"
                );
            }
        }
    }
}
