//! Flow-level network simulation: processor sharing with per-flow caps.
//!
//! Each gateway's ADSL backhaul is shared by its concurrent flows in
//! max-min fashion, with each flow additionally capped by the wireless rate
//! between its client and the gateway (water-filling). Flow progress is
//! advanced lazily: whenever the flow set of a gateway changes, remaining
//! bytes are updated at the old rates, rates are recomputed, and the next
//! departure is rescheduled.
//!
//! Storage is per gateway: each gateway owns one contiguous
//! `Vec<ActiveFlow>` (a flow never changes gateway — BH2 does not migrate
//! existing flows, §5.1). Every operation touches one gateway's vector, and
//! once the vectors and the water-fill scratch have grown to the busiest
//! concurrency seen, none of them allocates.
//!
//! Result bytes depend on the floating-point operation order, so three
//! orders are invariants:
//! * a gateway's flows stay in insertion order: completed flows leave
//!   through an order-preserving `retain` (a `swap_remove` would reorder
//!   the sums below);
//! * the water-fill hands out capacity in a *stable* sort by wireless cap,
//!   so flows with equal caps are served in insertion order;
//! * [`FlowEngine::advance`] sums moved bytes, and
//!   [`FlowEngine::recompute`] takes the earliest departure (each rounded
//!   by its own `from_secs_f64`), in insertion order.

use insomnia_simcore::{SimDuration, SimTime};

/// One in-flight downlink transfer.
#[derive(Debug, Clone, Copy)]
pub struct ActiveFlow {
    /// Index of the flow in the driving trace (for QoS bookkeeping).
    pub trace_idx: usize,
    /// Client index.
    pub client: usize,
    /// The client's original request time (wake-up stalls count against
    /// completion time).
    pub arrival: SimTime,
    /// Bytes still to transfer.
    pub remaining_bytes: f64,
    /// Wireless cap between client and gateway, bit/s.
    pub wireless_bps: f64,
    /// Current allocated rate, bit/s.
    pub rate_bps: f64,
    /// Last time `remaining_bytes` was brought up to date.
    last_update: SimTime,
}

/// Active flows, stored per gateway in insertion order.
#[derive(Debug, Clone)]
pub struct FlowEngine {
    per_gw: Vec<Vec<ActiveFlow>>,
    /// Bumped whenever a gateway's rate allocation changes; used by the
    /// driver to drop stale departure events.
    generation: Vec<u64>,
    n_active: usize,
    /// Water-fill scratch: positions in the recomputed gateway's vector,
    /// sorted by wireless cap.
    order: Vec<usize>,
}

/// Completion threshold: a flow with less than half a byte left is done.
const DONE_EPS_BYTES: f64 = 0.5;

impl FlowEngine {
    /// Creates an engine for `n_gateways` gateways.
    pub fn new(n_gateways: usize) -> Self {
        FlowEngine {
            per_gw: vec![Vec::new(); n_gateways],
            generation: vec![0; n_gateways],
            n_active: 0,
            order: Vec::new(),
        }
    }

    /// Number of active flows on a gateway.
    pub fn n_on(&self, gw: usize) -> usize {
        self.per_gw[gw].len()
    }

    /// Total active flows.
    pub fn n_active(&self) -> usize {
        self.n_active
    }

    /// Current generation of a gateway's allocation.
    pub fn generation(&self, gw: usize) -> u64 {
        self.generation[gw]
    }

    /// The active flows on `gw`, in insertion order.
    pub fn flows_on(&self, gw: usize) -> &[ActiveFlow] {
        &self.per_gw[gw]
    }

    /// Adds a flow on `gw` at time `t`; does not recompute rates — call
    /// [`FlowEngine::recompute`] afterwards.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        t: SimTime,
        gw: usize,
        client: usize,
        trace_idx: usize,
        arrival: SimTime,
        bytes: u64,
        wireless_bps: f64,
    ) {
        assert!(wireless_bps > 0.0, "flow needs a usable wireless link");
        self.per_gw[gw].push(ActiveFlow {
            trace_idx,
            client,
            arrival,
            remaining_bytes: bytes as f64,
            wireless_bps,
            rate_bps: 0.0,
            last_update: t,
        });
        self.n_active += 1;
    }

    /// Advances all flows on `gw` to time `t` at their current rates.
    /// Returns the bytes transferred since the last advance (for load
    /// metering).
    pub fn advance(&mut self, gw: usize, t: SimTime) -> f64 {
        let mut moved = 0.0;
        for f in &mut self.per_gw[gw] {
            let dt = (t - f.last_update).as_secs_f64();
            if dt > 0.0 {
                let bytes = (f.rate_bps * dt / 8.0).min(f.remaining_bytes);
                f.remaining_bytes -= bytes;
                moved += bytes;
            }
            f.last_update = t;
        }
        moved
    }

    /// Removes the flows on `gw` that are complete (≤ ε remaining), handing
    /// each to `done` in insertion order; the rest keep their order.
    pub fn drain_completed(&mut self, gw: usize, mut done: impl FnMut(&ActiveFlow)) {
        let flows = &mut self.per_gw[gw];
        let before = flows.len();
        flows.retain(|f| {
            let finished = f.remaining_bytes <= DONE_EPS_BYTES;
            if finished {
                done(f);
            }
            !finished
        });
        self.n_active -= before - flows.len();
    }

    /// Recomputes the max-min allocation on `gw` with total capacity
    /// `capacity_bps` (water-filling with per-flow wireless caps). Bumps the
    /// generation and returns the time of the next departure, if any.
    pub fn recompute(&mut self, gw: usize, now: SimTime, capacity_bps: f64) -> Option<SimTime> {
        self.generation[gw] += 1;
        let flows = &mut self.per_gw[gw];
        if flows.is_empty() {
            return None;
        }
        // Water-filling: ascending by cap, each flow gets min(cap, share of
        // what remains).
        let order = &mut self.order;
        order.clear();
        order.extend(0..flows.len());
        order.sort_by(|&a, &b| {
            flows[a].wireless_bps.partial_cmp(&flows[b].wireless_bps).expect("finite caps")
        });
        let mut remaining_cap = capacity_bps.max(0.0);
        let n = order.len();
        for (i, &k) in order.iter().enumerate() {
            let f = &mut flows[k];
            let fair = remaining_cap / (n - i) as f64;
            let rate = f.wireless_bps.min(fair);
            f.rate_bps = rate;
            remaining_cap -= rate;
        }
        // Next departure time at the new rates.
        let mut next: Option<SimTime> = None;
        for f in flows.iter() {
            if f.rate_bps <= 0.0 {
                continue;
            }
            let secs = f.remaining_bytes * 8.0 / f.rate_bps;
            let when = now + SimDuration::from_secs_f64(secs.max(0.001));
            next = Some(match next {
                Some(cur) => cur.min(when),
                None => when,
            });
        }
        next
    }
}

/// The slab engine that per-gateway storage replaced, kept verbatim as the
/// oracle [`FlowEngine`] must match rate for rate and byte for byte.
#[cfg(test)]
mod reference {
    use insomnia_simcore::SimTime;

    /// One in-flight downlink transfer.
    #[derive(Debug, Clone)]
    pub struct ActiveFlow {
        /// Index of the flow in the driving trace (for QoS bookkeeping).
        pub trace_idx: usize,
        /// Client index.
        pub client: usize,
        /// Gateway currently carrying the flow (fixed for its lifetime: BH2
        /// never migrates existing flows, §5.1).
        pub gateway: usize,
        /// The client's original request time (wake-up stalls count against
        /// completion time).
        pub arrival: SimTime,
        /// Bytes still to transfer.
        pub remaining_bytes: f64,
        /// Wireless cap between client and gateway, bit/s.
        pub wireless_bps: f64,
        /// Current allocated rate, bit/s.
        pub rate_bps: f64,
        /// Last time `remaining_bytes` was brought up to date.
        last_update: SimTime,
    }

    /// Slab of active flows partitioned by gateway.
    #[derive(Debug, Clone)]
    pub struct FlowEngine {
        flows: Vec<Option<ActiveFlow>>,
        free: Vec<usize>,
        per_gw: Vec<Vec<usize>>,
        /// Bumped whenever a gateway's rate allocation changes; used by the
        /// driver to drop stale departure events.
        generation: Vec<u64>,
        n_active: usize,
    }

    /// Completion threshold: a flow with less than half a byte left is done.
    const DONE_EPS_BYTES: f64 = 0.5;

    impl FlowEngine {
        /// Creates an engine for `n_gateways` gateways.
        pub fn new(n_gateways: usize) -> Self {
            FlowEngine {
                flows: Vec::new(),
                free: Vec::new(),
                per_gw: vec![Vec::new(); n_gateways],
                generation: vec![0; n_gateways],
                n_active: 0,
            }
        }

        /// Number of active flows on a gateway.
        pub fn n_on(&self, gw: usize) -> usize {
            self.per_gw[gw].len()
        }

        /// Total active flows.
        pub fn n_active(&self) -> usize {
            self.n_active
        }

        /// Current generation of a gateway's allocation.
        pub fn generation(&self, gw: usize) -> u64 {
            self.generation[gw]
        }

        /// Read access to a flow by id.
        pub fn flow(&self, id: usize) -> &ActiveFlow {
            self.flows[id].as_ref().expect("live flow id")
        }

        /// The ids of the flows on `gw`, in the order the engine visits them
        /// (the one accessor the oracle adds).
        pub fn ids_on(&self, gw: usize) -> &[usize] {
            &self.per_gw[gw]
        }

        /// Adds a flow on `gw` at time `t`; does not recompute rates — call
        /// [`FlowEngine::recompute`] afterwards. Returns the flow id.
        #[allow(clippy::too_many_arguments)]
        pub fn add(
            &mut self,
            t: SimTime,
            gw: usize,
            client: usize,
            trace_idx: usize,
            arrival: SimTime,
            bytes: u64,
            wireless_bps: f64,
        ) -> usize {
            assert!(wireless_bps > 0.0, "flow needs a usable wireless link");
            let flow = ActiveFlow {
                trace_idx,
                client,
                gateway: gw,
                arrival,
                remaining_bytes: bytes as f64,
                wireless_bps,
                rate_bps: 0.0,
                last_update: t,
            };
            let id = match self.free.pop() {
                Some(id) => {
                    self.flows[id] = Some(flow);
                    id
                }
                None => {
                    self.flows.push(Some(flow));
                    self.flows.len() - 1
                }
            };
            self.per_gw[gw].push(id);
            self.n_active += 1;
            id
        }

        /// Advances all flows on `gw` to time `t` at their current rates.
        /// Returns the bytes transferred since the last advance (for load
        /// metering).
        pub fn advance(&mut self, gw: usize, t: SimTime) -> f64 {
            let mut moved = 0.0;
            for &id in &self.per_gw[gw] {
                let f = self.flows[id].as_mut().expect("live flow");
                let dt = (t - f.last_update).as_secs_f64();
                if dt > 0.0 {
                    let bytes = (f.rate_bps * dt / 8.0).min(f.remaining_bytes);
                    f.remaining_bytes -= bytes;
                    moved += bytes;
                }
                f.last_update = t;
            }
            moved
        }

        /// Removes and returns flows on `gw` that are complete (≤ ε remaining).
        pub fn take_completed(&mut self, gw: usize) -> Vec<ActiveFlow> {
            let mut done = Vec::new();
            let ids = std::mem::take(&mut self.per_gw[gw]);
            for id in ids {
                let finished =
                    self.flows[id].as_ref().expect("live flow").remaining_bytes <= DONE_EPS_BYTES;
                if finished {
                    done.push(self.flows[id].take().expect("live flow"));
                    self.free.push(id);
                    self.n_active -= 1;
                } else {
                    self.per_gw[gw].push(id);
                }
            }
            done
        }

        /// Recomputes the max-min allocation on `gw` with total capacity
        /// `capacity_bps` (water-filling with per-flow wireless caps). Bumps the
        /// generation and returns the time of the next departure, if any.
        pub fn recompute(&mut self, gw: usize, now: SimTime, capacity_bps: f64) -> Option<SimTime> {
            self.generation[gw] += 1;
            let ids = &self.per_gw[gw];
            if ids.is_empty() {
                return None;
            }
            // Water-filling: ascending by cap, each flow gets min(cap, share of
            // what remains).
            let mut order: Vec<usize> = ids.clone();
            order.sort_by(|&a, &b| {
                let fa = self.flows[a].as_ref().expect("live").wireless_bps;
                let fb = self.flows[b].as_ref().expect("live").wireless_bps;
                fa.partial_cmp(&fb).expect("finite caps")
            });
            let mut remaining_cap = capacity_bps.max(0.0);
            let n = order.len();
            for (i, &id) in order.iter().enumerate() {
                let f = self.flows[id].as_mut().expect("live flow");
                let fair = remaining_cap / (n - i) as f64;
                let rate = f.wireless_bps.min(fair);
                f.rate_bps = rate;
                remaining_cap -= rate;
            }
            // Next departure time at the new rates.
            let mut next: Option<SimTime> = None;
            for &id in ids {
                let f = self.flows[id].as_ref().expect("live flow");
                if f.rate_bps <= 0.0 {
                    continue;
                }
                let secs = f.remaining_bytes * 8.0 / f.rate_bps;
                let when = now + insomnia_simcore::SimDuration::from_secs_f64(secs.max(0.001));
                next = Some(match next {
                    Some(cur) => cur.min(when),
                    None => when,
                });
            }
            next
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn single_flow_gets_full_capacity_up_to_wireless_cap() {
        let mut e = FlowEngine::new(2);
        e.add(t(0.0), 0, 7, 0, t(0.0), 750_000, 12.0e6);
        let next = e.recompute(0, t(0.0), 6.0e6).unwrap();
        // 6 Mbit at 6 Mbps = 1 s.
        assert!((next.as_secs_f64() - 1.0).abs() < 0.01, "{next}");
        // Wireless-capped flow:
        let mut e = FlowEngine::new(1);
        e.add(t(0.0), 0, 7, 0, t(0.0), 750_000, 3.0e6);
        let next = e.recompute(0, t(0.0), 6.0e6).unwrap();
        assert!((next.as_secs_f64() - 2.0).abs() < 0.01);
    }

    #[test]
    fn processor_sharing_splits_capacity() {
        let mut e = FlowEngine::new(1);
        e.add(t(0.0), 0, 1, 0, t(0.0), 750_000, 12.0e6);
        e.add(t(0.0), 0, 2, 1, t(0.0), 750_000, 12.0e6);
        e.recompute(0, t(0.0), 6.0e6);
        let [a, b] = e.flows_on(0) else { panic!("two flows") };
        assert!((a.rate_bps - 3.0e6).abs() < 1.0);
        assert!((b.rate_bps - 3.0e6).abs() < 1.0);
    }

    #[test]
    fn water_filling_respects_caps_and_redistributes() {
        let mut e = FlowEngine::new(1);
        e.add(t(0.0), 0, 1, 0, t(0.0), 1_000_000, 1.0e6);
        e.add(t(0.0), 0, 2, 1, t(0.0), 1_000_000, 12.0e6);
        e.recompute(0, t(0.0), 6.0e6);
        let [capped, open] = e.flows_on(0) else { panic!("two flows") };
        assert!((capped.rate_bps - 1.0e6).abs() < 1.0);
        assert!((open.rate_bps - 5.0e6).abs() < 1.0, "leftover goes to the open flow");
    }

    #[test]
    fn advance_moves_bytes_and_reports_volume() {
        let mut e = FlowEngine::new(1);
        e.add(t(0.0), 0, 1, 0, t(0.0), 750_000, 12.0e6);
        e.recompute(0, t(0.0), 6.0e6);
        let moved = e.advance(0, t(0.5));
        assert!((moved - 375_000.0).abs() < 1.0);
        assert!((e.flows_on(0)[0].remaining_bytes - 375_000.0).abs() < 1.0);
    }

    #[test]
    fn completion_lifecycle() {
        let mut e = FlowEngine::new(1);
        e.add(t(0.0), 0, 1, 42, t(0.0), 750_000, 12.0e6);
        let next = e.recompute(0, t(0.0), 6.0e6).unwrap();
        e.advance(0, next);
        let storage = e.flows_on(0).as_ptr();
        let mut done = Vec::new();
        e.drain_completed(0, |f| done.push(f.trace_idx));
        assert_eq!(done, [42]);
        assert_eq!(e.n_active(), 0);
        assert_eq!(e.n_on(0), 0);
        // The gateway's storage is reused.
        e.add(t(2.0), 0, 1, 43, t(1.0), 1_000, 12.0e6);
        assert_eq!(e.flows_on(0).as_ptr(), storage);
        assert_eq!(e.flows_on(0)[0].trace_idx, 43);
    }

    #[test]
    fn generation_bumps_on_recompute() {
        let mut e = FlowEngine::new(1);
        let g0 = e.generation(0);
        e.add(t(0.0), 0, 1, 0, t(0.0), 1_000, 1.0e6);
        e.recompute(0, t(0.0), 6.0e6);
        assert_eq!(e.generation(0), g0 + 1);
    }

    #[test]
    fn incomplete_flows_stay() {
        let mut e = FlowEngine::new(1);
        e.add(t(0.0), 0, 1, 0, t(0.0), 750_000, 12.0e6);
        e.recompute(0, t(0.0), 6.0e6);
        e.advance(0, t(0.5));
        let mut done = 0;
        e.drain_completed(0, |_| done += 1);
        assert_eq!(done, 0);
        assert_eq!(e.n_on(0), 1);
    }

    #[test]
    fn arrival_time_is_preserved_through_stalls() {
        // A flow queued during a wake keeps its original arrival for the
        // completion-time metric.
        let mut e = FlowEngine::new(1);
        e.add(t(60.0), 0, 1, 0, t(0.0), 1_000, 6.0e6);
        assert_eq!(e.flows_on(0)[0].arrival, t(0.0));
        assert_eq!(e.flows_on(0)[0].last_update, t(60.0));
    }

    #[test]
    fn zero_capacity_yields_no_departure() {
        let mut e = FlowEngine::new(1);
        e.add(t(0.0), 0, 1, 0, t(0.0), 1_000, 6.0e6);
        assert_eq!(e.recompute(0, t(0.0), 0.0), None);
    }

    /// Wireless caps with many ties, so the stable sort's tie order counts.
    const CAPS: [f64; 4] = [1.0e6, 3.0e6, 6.0e6, 12.0e6];
    /// Backhaul capacities, including a dead line.
    const CAPACITIES: [f64; 3] = [0.0, 3.0e6, 6.0e6];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Per-gateway storage behaves exactly like the slab engine: after
        /// every add, advance, recompute and drain on random gateways, the
        /// rates (bit for bit), next departures, moved bytes and the order
        /// of completed flows agree.
        #[test]
        fn per_gateway_storage_matches_the_slab_engine(
            n_gw in 1usize..4,
            ops in prop::collection::vec((0u8..4, 0usize..4, 1u64..3_000_000, 0u64..4_000), 1..300),
        ) {
            let mut new = FlowEngine::new(n_gw);
            let mut old = reference::FlowEngine::new(n_gw);
            let mut now = SimTime::ZERO;
            for (step, &(kind, gw, a, b)) in ops.iter().enumerate() {
                let gw = gw % n_gw;
                match kind {
                    0 => {
                        let (bytes, cap) = (a, CAPS[(b % 4) as usize]);
                        let arrival = now - SimDuration::from_millis(b);
                        new.add(now, gw, step, step, arrival, bytes, cap);
                        old.add(now, gw, step, step, arrival, bytes, cap);
                    }
                    1 => {
                        now += SimDuration::from_millis(b);
                        let (got, want) = (new.advance(gw, now), old.advance(gw, now));
                        prop_assert_eq!(got.to_bits(), want.to_bits(), "step {}", step);
                    }
                    2 => {
                        let capacity = CAPACITIES[(a % 3) as usize];
                        let got = new.recompute(gw, now, capacity);
                        let want = old.recompute(gw, now, capacity);
                        prop_assert_eq!(got, want, "step {}", step);
                        prop_assert_eq!(new.generation(gw), old.generation(gw));
                    }
                    _ => {
                        let mut got = Vec::new();
                        new.drain_completed(gw, |f| got.push((f.trace_idx, f.client, f.arrival)));
                        let want: Vec<_> = old
                            .take_completed(gw)
                            .iter()
                            .map(|f| (f.trace_idx, f.client, f.arrival))
                            .collect();
                        prop_assert_eq!(got, want, "step {}", step);
                    }
                }
                prop_assert_eq!(new.n_active(), old.n_active());
                for g in 0..n_gw {
                    prop_assert_eq!(new.n_on(g), old.n_on(g));
                    for (f, &id) in new.flows_on(g).iter().zip(old.ids_on(g)) {
                        let o = old.flow(id);
                        prop_assert_eq!(o.gateway, g);
                        prop_assert_eq!(
                            (f.trace_idx, f.rate_bps.to_bits(), f.remaining_bytes.to_bits()),
                            (o.trace_idx, o.rate_bps.to_bits(), o.remaining_bytes.to_bits()),
                            "step {} gateway {}", step, g
                        );
                    }
                }
            }
        }
    }
}
