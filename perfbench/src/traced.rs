//! A timing decorator around any [`Transport`]: it forwards every trait
//! method to the wrapped transport unchanged and times the four callbacks
//! the fabric drives (`on_packet`, `next_packet`, `on_timer`, and the
//! inject calls). Nothing inside the simulator is instrumented; the
//! timers sit at the transport boundary, outside the program.
//!
//! Each host's decorator counts into its own fields (no lock on the hot
//! path) and folds them into a shared [`CallCounters`] when it is
//! dropped. `ScenarioSpec::run_oneway` consumes the network, so the drop
//! at the end of the run is the only point the counters can leave it.

use homa_sim::{
    DelayBreakdown, GrantStats, HostId, Packet, PacketMeta, SimTime, TimerToken, Transport,
    TransportActions,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls made to one callback and the wall time spent inside them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStat {
    pub calls: u64,
    pub ns: u64,
}

impl CallStat {
    fn record(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }

    fn merge(&mut self, other: &CallStat) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// Per-callback counters, summed over every host of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallCounters {
    pub on_packet: CallStat,
    pub next_packet: CallStat,
    pub on_timer: CallStat,
    /// `inject_message`, `inject_rpc` and `inject_response` together.
    pub inject: CallStat,
    /// `next_packet` polls that returned `None`.
    pub next_packet_none: u64,
}

impl CallCounters {
    fn merge(&mut self, other: &CallCounters) {
        self.on_packet.merge(&other.on_packet);
        self.next_packet.merge(&other.next_packet);
        self.on_timer.merge(&other.on_timer);
        self.inject.merge(&other.inject);
        self.next_packet_none += other.next_packet_none;
    }

    /// The call counts alone, which repeat exactly for a given run.
    pub fn counts(&self) -> [u64; 5] {
        [
            self.on_packet.calls,
            self.next_packet.calls,
            self.on_timer.calls,
            self.inject.calls,
            self.next_packet_none,
        ]
    }

    /// Wall time spent inside the transport, all callbacks together.
    pub fn self_secs(&self) -> f64 {
        self.on_packet.secs() + self.next_packet.secs() + self.on_timer.secs() + self.inject.secs()
    }

    /// Share of `next_packet` polls that found nothing to send.
    pub fn none_frac(&self) -> f64 {
        if self.next_packet.calls == 0 {
            0.0
        } else {
            self.next_packet_none as f64 / self.next_packet.calls as f64
        }
    }
}

/// The accumulator every host's decorator of one run folds into.
pub type SharedCounters = Arc<Mutex<CallCounters>>;

/// `inner`, with its callbacks timed.
pub struct Traced<T> {
    inner: T,
    local: CallCounters,
    shared: SharedCounters,
}

impl<T> Traced<T> {
    pub fn new(inner: T, shared: &SharedCounters) -> Self {
        Traced { inner, local: CallCounters::default(), shared: Arc::clone(shared) }
    }
}

impl<T> Drop for Traced<T> {
    fn drop(&mut self) {
        // A poisoned lock means another host's decorator panicked; the
        // run is already failing, so the counters are simply not folded.
        if let Ok(mut shared) = self.shared.lock() {
            shared.merge(&self.local);
        }
    }
}

impl<M: PacketMeta, T: Transport<M>> Transport<M> for Traced<T> {
    fn on_packet(&mut self, now: SimTime, pkt: Packet<M>, act: &mut TransportActions) {
        let t0 = Instant::now();
        self.inner.on_packet(now, pkt, act);
        self.local.on_packet.record(t0);
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, act: &mut TransportActions) {
        let t0 = Instant::now();
        self.inner.on_timer(now, token, act);
        self.local.on_timer.record(t0);
    }

    fn next_packet(&mut self, now: SimTime) -> Option<Packet<M>> {
        let t0 = Instant::now();
        let pkt = self.inner.next_packet(now);
        self.local.next_packet.record(t0);
        if pkt.is_none() {
            self.local.next_packet_none += 1;
        }
        pkt
    }

    fn inject_message(
        &mut self,
        now: SimTime,
        dst: HostId,
        len: u64,
        tag: u64,
        act: &mut TransportActions,
    ) {
        let t0 = Instant::now();
        self.inner.inject_message(now, dst, len, tag, act);
        self.local.inject.record(t0);
    }

    fn inject_rpc(
        &mut self,
        now: SimTime,
        server: HostId,
        req_len: u64,
        tag: u64,
        act: &mut TransportActions,
    ) {
        let t0 = Instant::now();
        self.inner.inject_rpc(now, server, req_len, tag, act);
        self.local.inject.record(t0);
    }

    fn inject_response(
        &mut self,
        now: SimTime,
        client: HostId,
        rpc: u64,
        resp_len: u64,
        act: &mut TransportActions,
    ) {
        let t0 = Instant::now();
        self.inner.inject_response(now, client, rpc, resp_len, act);
        self.local.inject.record(t0);
    }

    fn withholding_grants(&self, now: SimTime) -> bool {
        self.inner.withholding_grants(now)
    }

    fn delivered_bytes(&self) -> u64 {
        self.inner.delivered_bytes()
    }

    fn take_message_delay(&mut self, src: HostId, tag: u64) -> DelayBreakdown {
        self.inner.take_message_delay(src, tag)
    }

    fn grant_stats(&self) -> GrantStats {
        self.inner.grant_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use homa_sim::{AppEvent, SimDuration};

    #[derive(Debug, Clone)]
    struct Meta;

    impl PacketMeta for Meta {
        fn wire_bytes(&self) -> u32 {
            100
        }
        fn priority(&self) -> u8 {
            0
        }
        fn is_control(&self) -> bool {
            false
        }
        fn goodput_bytes(&self) -> u32 {
            60
        }
    }

    /// Answers every hook with a value no default implementation gives,
    /// and reports each call as an application event.
    struct Stub {
        polls: u32,
    }

    impl Transport<Meta> for Stub {
        fn on_packet(&mut self, _: SimTime, _: Packet<Meta>, act: &mut TransportActions) {
            act.event(AppEvent::Aborted { peer: HostId(1), tag: 1 });
        }
        fn on_timer(&mut self, _: SimTime, token: TimerToken, act: &mut TransportActions) {
            act.event(AppEvent::Aborted { peer: HostId(2), tag: token.0 });
        }
        fn next_packet(&mut self, _: SimTime) -> Option<Packet<Meta>> {
            self.polls += 1;
            (self.polls == 1).then(|| Packet::new(HostId(0), HostId(1), Meta))
        }
        fn inject_message(
            &mut self,
            _: SimTime,
            d: HostId,
            _: u64,
            t: u64,
            a: &mut TransportActions,
        ) {
            a.event(AppEvent::Aborted { peer: d, tag: t });
        }
        fn inject_rpc(&mut self, _: SimTime, s: HostId, _: u64, t: u64, a: &mut TransportActions) {
            a.event(AppEvent::Aborted { peer: s, tag: t + 100 });
        }
        fn inject_response(
            &mut self,
            _: SimTime,
            c: HostId,
            r: u64,
            _: u64,
            a: &mut TransportActions,
        ) {
            a.event(AppEvent::Aborted { peer: c, tag: r + 200 });
        }
        fn withholding_grants(&self, _: SimTime) -> bool {
            true
        }
        fn delivered_bytes(&self) -> u64 {
            7
        }
        fn take_message_delay(&mut self, _: HostId, tag: u64) -> DelayBreakdown {
            DelayBreakdown { queueing: SimDuration::from_nanos(tag), ..DelayBreakdown::default() }
        }
        fn grant_stats(&self) -> GrantStats {
            GrantStats { grants_issued: 3, granted_bytes: 4, resends_requested: 5 }
        }
    }

    #[test]
    fn forwards_every_method_and_counts_each_call() {
        let shared = SharedCounters::default();
        let mut t = Traced::new(Stub { polls: 0 }, &shared);
        let now = SimTime::ZERO;
        let mut act = TransportActions::new();
        t.on_packet(now, Packet::new(HostId(1), HostId(0), Meta), &mut act);
        t.on_timer(now, TimerToken(9), &mut act);
        t.inject_message(now, HostId(3), 10, 4, &mut act);
        t.inject_rpc(now, HostId(4), 10, 5, &mut act);
        t.inject_response(now, HostId(5), 6, 10, &mut act);
        let tags: Vec<u64> = act
            .events()
            .iter()
            .map(|e| match e {
                AppEvent::Aborted { tag, .. } => *tag,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(tags, [1, 9, 4, 105, 206]);
        assert!(t.next_packet(now).is_some());
        assert!(t.next_packet(now).is_none());
        assert!(t.withholding_grants(now));
        assert_eq!(t.delivered_bytes(), 7);
        assert_eq!(t.take_message_delay(HostId(1), 11).queueing, SimDuration::from_nanos(11));
        assert_eq!(
            t.grant_stats(),
            GrantStats { grants_issued: 3, granted_bytes: 4, resends_requested: 5 }
        );
        drop(t);
        let c = *shared.lock().unwrap();
        assert_eq!(
            [c.on_packet.calls, c.on_timer.calls, c.inject.calls, c.next_packet.calls],
            [1, 1, 3, 2]
        );
        assert_eq!(c.next_packet_none, 1);
        assert_eq!(c.none_frac(), 0.5);
    }
}
