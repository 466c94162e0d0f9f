//! The telemetry layer's [`OpObserver`] implementation.
//!
//! PR 4 left the dispatch engine with an observer seam and one resident
//! ([`crate::cost::CostObserver`], Table I accounting). This module plugs
//! the second resident into that seam: a [`TelemetryObserver`] that turns
//! dispatch events into the per-rank metrics registry and flight recorder
//! of `hcl-telemetry`, giving every op three latency views —
//!
//! * **per-op** — `hcl_core_op_<container>_<op>_ns`, one histogram per
//!   descriptor name (created once per op; the record path is a read-lock
//!   and an atomic bump);
//! * **per-locality** — `hcl_core_op_latency_local_ns` /
//!   `hcl_core_op_latency_remote_ns` (the hybrid-bypass split of §III-C5);
//! * **per-class and per-cost-signature** — `hcl_core_class_<class>_ns` and
//!   `hcl_core_sig_<kind>_ns`, the Table I shape of each op.
//!
//! Outcomes land in counters (`issued`, `local_bypass`, `ok`, `err`,
//! `owner_down`, `retries_exhausted`), and the flight recorder captures the
//! *synchronously awaited* path per-op (issue, completion, failure). Async
//! ops are deliberately captured in aggregate at batch granularity — the
//! coalescer records one `BatchFlush` event per flushed batch — because a
//! per-op ring write would not fit the record-path budget of the batched
//! hot loop (DESIGN.md §11).
//!
//! On the two failure outcomes that end a procedural access — retry budget
//! exhausted, owner marked down — the observer dumps the flight recorder,
//! so the last few hundred events of the rank land on stderr next to the
//! error the caller sees.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use hcl_telemetry::{
    Counter, EventKind, FlightEvent, FlightRecorder, Histogram, Outcome, Telemetry,
};
use parking_lot::RwLock;

use crate::dispatch::{CostSig, IssueMode, Locality, OpClass, OpEvent, OpObserver};

/// Replace the descriptor-name separator so `"queue.push"` becomes the
/// metric-legal `queue_push`.
fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c == '.' { '_' } else { c }).collect()
}

/// The dispatch-engine → telemetry bridge. One per [`crate::Dispatcher`];
/// installed automatically when the rank's telemetry is enabled.
pub struct TelemetryObserver {
    issued: Arc<Counter>,
    local_bypass: Arc<Counter>,
    ok: Arc<Counter>,
    err: Arc<Counter>,
    owner_down: Arc<Counter>,
    retries_exhausted: Arc<Counter>,
    lat_local: Arc<Histogram>,
    lat_remote: Arc<Histogram>,
    /// Indexed by [`OpClass`]: Read, Write, ReadWrite, Admin.
    class: [Arc<Histogram>; 4],
    /// Indexed by cost-signature kind: zero, fixed, read_scaled, write_scaled.
    sig: [Arc<Histogram>; 4],
    /// Lazily-created per-op histograms, keyed by descriptor name. One
    /// allocation per distinct op; afterwards a read-lock + lookup.
    per_op: RwLock<HashMap<&'static str, Arc<Histogram>>>,
    telemetry: Arc<Telemetry>,
}

impl TelemetryObserver {
    /// Resolve every static handle from `telemetry`'s registry.
    pub fn new(telemetry: Arc<Telemetry>) -> Self {
        let reg = telemetry.registry();
        TelemetryObserver {
            issued: reg.counter("hcl_core_ops_issued"),
            local_bypass: reg.counter("hcl_core_ops_local_bypass"),
            ok: reg.counter("hcl_core_ops_ok"),
            err: reg.counter("hcl_core_ops_err"),
            owner_down: reg.counter("hcl_core_ops_owner_down"),
            retries_exhausted: reg.counter("hcl_core_ops_retries_exhausted"),
            lat_local: reg.histogram("hcl_core_op_latency_local_ns"),
            lat_remote: reg.histogram("hcl_core_op_latency_remote_ns"),
            class: [
                reg.histogram("hcl_core_class_read_ns"),
                reg.histogram("hcl_core_class_write_ns"),
                reg.histogram("hcl_core_class_readwrite_ns"),
                reg.histogram("hcl_core_class_admin_ns"),
            ],
            sig: [
                reg.histogram("hcl_core_sig_zero_ns"),
                reg.histogram("hcl_core_sig_fixed_ns"),
                reg.histogram("hcl_core_sig_read_scaled_ns"),
                reg.histogram("hcl_core_sig_write_scaled_ns"),
            ],
            per_op: RwLock::new(HashMap::new()),
            telemetry,
        }
    }

    fn flight(&self) -> &Arc<FlightRecorder> {
        self.telemetry.flight()
    }

    fn class_hist(&self, class: OpClass) -> &Histogram {
        let i = match class {
            OpClass::Read => 0,
            OpClass::Write => 1,
            OpClass::ReadWrite => 2,
            OpClass::Admin => 3,
        };
        &self.class[i]
    }

    fn sig_hist(&self, sig: &CostSig) -> &Histogram {
        let i = if sig.scale_r {
            2
        } else if sig.scale_w {
            3
        } else if sig.l == 0 && sig.r == 0 && sig.w == 0 {
            0
        } else {
            1
        };
        &self.sig[i]
    }

    fn op_hist(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = self.per_op.read().get(name) {
            return Arc::clone(h);
        }
        let h = self
            .telemetry
            .registry()
            .histogram(&format!("hcl_core_op_{}_ns", sanitize(name)));
        Arc::clone(self.per_op.write().entry(name).or_insert(h))
    }

    fn record_latency(&self, ev: &OpEvent<'_>, locality: Locality, ns: u64) {
        match locality {
            Locality::LocalBypass => self.lat_local.record(ns),
            Locality::Remote => self.lat_remote.record(ns),
        }
        self.class_hist(ev.op.class).record(ns);
        self.sig_hist(&ev.op.cost).record(ns);
        self.op_hist(ev.op.name).record(ns);
    }
}

impl OpObserver for TelemetryObserver {
    fn on_local_bypass(&self, _ev: &OpEvent<'_>) {
        self.local_bypass.inc();
    }

    fn on_issue(&self, ev: &OpEvent<'_>, mode: IssueMode) {
        self.issued.inc();
        // Per-op flight events only for synchronously awaited issues: async
        // ops are aggregated at batch granularity by the coalescer.
        match mode {
            IssueMode::Sync | IssueMode::Bulk { .. } => {
                self.flight().record(FlightEvent::op(
                    EventKind::Issue,
                    ev.op.name,
                    ev.owner,
                    0,
                    ev.n,
                    Outcome::Pending,
                    0,
                ));
            }
            IssueMode::Async { .. } => {}
        }
    }

    fn on_complete(&self, ev: &OpEvent<'_>, locality: Locality, latency: Duration, ok: bool) {
        if ok {
            self.ok.inc();
        } else {
            self.err.inc();
        }
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.record_latency(ev, locality, ns);
        if locality == Locality::Remote {
            self.flight().record(FlightEvent::op(
                EventKind::Complete,
                ev.op.name,
                ev.owner,
                0,
                ev.n,
                if ok { Outcome::Ok } else { Outcome::Err },
                ns,
            ));
        }
    }

    fn on_retry(&self, ev: &OpEvent<'_>, attempts: u32) {
        self.retries_exhausted.inc();
        self.flight().record(FlightEvent::op(
            EventKind::Retry,
            ev.op.name,
            ev.owner,
            0,
            attempts as u64,
            Outcome::RetriesExhausted,
            0,
        ));
        self.flight()
            .dump_on_failure(&format!("{} exhausted {attempts} attempts", ev.op.name));
    }

    fn on_owner_down(&self, ev: &OpEvent<'_>) {
        self.owner_down.inc();
        self.flight().record(FlightEvent::op(
            EventKind::OwnerDown,
            ev.op.name,
            ev.owner,
            0,
            ev.n,
            Outcome::OwnerDown,
            0,
        ));
        self.flight()
            .dump_on_failure(&format!("{} rejected: owner {} marked down", ev.op.name, ev.owner));
    }

    /// Telemetry exists to measure distributions; ask the engine for real
    /// clocks. (The cost observer alone leaves the engine clock-free.)
    fn wants_latency(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::OpDescriptor;
    use hcl_telemetry::TelemetryConfig;

    static PUSH: OpDescriptor = OpDescriptor {
        name: "queue.push",
        class: OpClass::Write,
        fn_off: 0,
        cost: CostSig::lrw(1, 0, 1),
        degradable: true,
    };

    fn ev(owner: u32) -> OpEvent<'static> {
        OpEvent { container: "queue", op: &PUSH, owner, n: 1, key_hash: 0 }
    }

    #[test]
    fn complete_feeds_all_four_latency_views() {
        let t = Arc::new(Telemetry::new(0, TelemetryConfig::default()));
        let obs = TelemetryObserver::new(Arc::clone(&t));
        obs.on_issue(&ev(1), IssueMode::Sync);
        obs.on_complete(&ev(1), Locality::Remote, Duration::from_micros(3), true);
        obs.on_complete(&ev(0), Locality::LocalBypass, Duration::from_nanos(400), true);
        let snap = t.snapshot();
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("missing histogram {name}"))
                .1
        };
        assert_eq!(hist("hcl_core_op_latency_remote_ns").count, 1);
        assert_eq!(hist("hcl_core_op_latency_local_ns").count, 1);
        assert_eq!(hist("hcl_core_class_write_ns").count, 2);
        assert_eq!(hist("hcl_core_sig_fixed_ns").count, 2);
        assert_eq!(hist("hcl_core_op_queue_push_ns").count, 2);
        let counter = |name: &str| {
            snap.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v).unwrap_or(0)
        };
        assert_eq!(counter("hcl_core_ops_issued"), 1);
        assert_eq!(counter("hcl_core_ops_ok"), 2);
    }

    #[test]
    fn owner_down_records_and_dumps() {
        let t = Arc::new(Telemetry::new(2, TelemetryConfig::default()));
        let obs = TelemetryObserver::new(Arc::clone(&t));
        obs.on_owner_down(&ev(3));
        let dump = t.flight().last_dump().expect("owner-down dumps the ring");
        assert!(dump.contains("queue.push"));
        assert!(dump.contains("owner 3 marked down"));
        assert!(dump.contains("owner-down"));
    }

    #[test]
    fn retries_exhausted_records_attempts_and_dumps() {
        let t = Arc::new(Telemetry::new(1, TelemetryConfig::default()));
        let obs = TelemetryObserver::new(Arc::clone(&t));
        obs.on_retry(&ev(1), 5);
        let events = t.flight().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Retry);
        assert_eq!(events[0].n, 5);
        assert!(t.flight().last_dump().unwrap().contains("exhausted 5 attempts"));
    }

    #[test]
    fn async_issue_is_counter_only() {
        let t = Arc::new(Telemetry::new(0, TelemetryConfig::default()));
        let obs = TelemetryObserver::new(Arc::clone(&t));
        obs.on_issue(&ev(1), IssueMode::Async { coalesced: true });
        assert!(t.flight().events().is_empty(), "async issues must not touch the ring");
        let snap = t.snapshot();
        let issued =
            snap.counters.iter().find(|(k, _)| k == "hcl_core_ops_issued").map(|(_, v)| *v);
        assert_eq!(issued, Some(1));
    }
}
