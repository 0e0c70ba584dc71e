//! Structured observability: the [`EventSink`] and [`MetricsReport`].
//!
//! [`Metrics`](crate::Metrics) answers *how many bytes did each peer send
//! in each message class*; it is always on because the paper's cost metric
//! depends on it. The event sink layered here answers the richer question
//! *which protocol phase was responsible*, and adds wall-clock profiling —
//! all strictly opt-in:
//!
//! * **Zero cost when disabled.** A disabled sink is a `bool` check per
//!   send; it allocates nothing and records nothing (see
//!   `disabled_sink_records_nothing`).
//! * **Span-style phases.** Drivers bracket stages with
//!   [`EventSink::enter`]/[`EventSink::exit`]; protocol handlers tag a
//!   single activation with a mark (cleared by the world after the handler
//!   returns). Events with no active span fall back to a phase named after
//!   their [`MsgClass`] label, so un-annotated protocols still produce a
//!   per-phase report that mirrors the class breakdown.
//! * **Instant evaluations** (which never touch the DES kernel, such as
//!   the gossip-filtered variant's phases) charge whole per-peer byte
//!   vectors with [`EventSink::record_vec`], so their reports reconcile
//!   byte-for-byte with their own accounting.
//!
//! The report serializes to JSON ([`MetricsReport::to_json`]) and a
//! human-readable table ([`MetricsReport::render_table`]); the stable
//! variant ([`MetricsReport::to_json_stable`]) omits wall-clock fields so
//! snapshots can be diffed across runs (see `ifi-bench`'s `baseline`
//! module).

use crate::id::PeerId;
use crate::metrics::{ClassTotals, MsgClass};

/// Per-phase accumulation inside the sink.
#[derive(Debug, Clone)]
struct PhaseStat {
    label: String,
    /// Bytes charged to each sending peer in this phase.
    per_peer: Vec<u64>,
    /// Per-class totals within this phase.
    by_class: [ClassTotals; MsgClass::COUNT],
    wall: std::time::Duration,
}

impl PhaseStat {
    fn new(label: String, peer_count: usize) -> Self {
        PhaseStat {
            label,
            per_peer: vec![0; peer_count],
            by_class: [ClassTotals::default(); MsgClass::COUNT],
            wall: std::time::Duration::ZERO,
        }
    }
}

/// A structured event sink aggregating sends per peer, message class, and
/// protocol phase, plus wall-clock span timings.
///
/// Construct with [`EventSink::new`] (recording) or
/// [`EventSink::disabled`] (every operation is a no-op behind one branch).
#[derive(Debug, Clone)]
pub struct EventSink {
    enabled: bool,
    peer_count: usize,
    phases: Vec<PhaseStat>,
    /// Stack of driver-level spans ([`enter`](Self::enter)); the top span
    /// claims subsequent events.
    stack: Vec<usize>,
    /// Handler-activation mark; outranks the span stack and is cleared by
    /// the world after each handler returns.
    mark: Option<usize>,
    events: u64,
    /// Warning counters by label ([`warn`](Self::warn)); few distinct
    /// labels, so a linear scan beats hashing.
    warns: Vec<(String, u64)>,
}

impl EventSink {
    /// A sink that records every send for `peer_count` peers.
    pub fn new(peer_count: usize) -> Self {
        EventSink {
            enabled: true,
            peer_count,
            phases: Vec::new(),
            stack: Vec::new(),
            mark: None,
            events: 0,
            warns: Vec::new(),
        }
    }

    /// A disabled sink: every call returns immediately after one branch.
    pub fn disabled() -> Self {
        EventSink {
            enabled: false,
            peer_count: 0,
            phases: Vec::new(),
            stack: Vec::new(),
            mark: None,
            events: 0,
            warns: Vec::new(),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Events recorded so far (always `0` for a disabled sink).
    pub fn events_recorded(&self) -> u64 {
        self.events
    }

    /// Phase index for `label`, creating the phase on first use. Phases
    /// are few, so a linear scan beats hashing.
    fn resolve(&mut self, label: &str) -> usize {
        if let Some(i) = self.phases.iter().position(|p| p.label == label) {
            return i;
        }
        self.phases
            .push(PhaseStat::new(label.to_string(), self.peer_count));
        self.phases.len() - 1
    }

    /// Opens a driver-level span; subsequent events are attributed to
    /// `label` until the matching [`exit`](Self::exit).
    pub fn enter(&mut self, label: &str) {
        if !self.enabled {
            return;
        }
        let idx = self.resolve(label);
        self.stack.push(idx);
    }

    /// Closes the innermost span. A no-op with no span open.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        self.stack.pop();
    }

    /// Tags the *current handler activation* with `label`: events recorded
    /// until [`clear_mark`](Self::clear_mark) go to that phase, outranking
    /// the span stack. The simulation world clears the mark after every
    /// handler dispatch, giving protocol code span-style markers scoped to
    /// one activation.
    pub fn mark(&mut self, label: &str) {
        if !self.enabled {
            return;
        }
        let idx = self.resolve(label);
        self.mark = Some(idx);
    }

    /// Clears the handler-activation mark.
    pub fn clear_mark(&mut self) {
        if !self.enabled {
            return;
        }
        self.mark = None;
    }

    /// Counts one tolerated anomaly under `label` — a condition a handler
    /// survived by design (e.g. dropping a sequenced frame it has no
    /// reliability state for) but that an operator should see. Carried
    /// into [`MetricsReport::warnings`]; serialized only when any warning
    /// fired, so warning-free reports stay byte-identical to historical
    /// snapshots.
    pub fn warn(&mut self, label: &str) {
        if !self.enabled {
            return;
        }
        if let Some(entry) = self.warns.iter_mut().find(|(l, _)| l == label) {
            entry.1 += 1;
        } else {
            self.warns.push((label.to_string(), 1));
        }
    }

    /// Warning counters recorded so far, in order of first occurrence.
    pub fn warnings(&self) -> &[(String, u64)] {
        &self.warns
    }

    /// Resets all recorded state — phases, the span stack, any handler
    /// mark, and the event count — keeping the sink enabled for the same
    /// peer population. Back-to-back instrumented runs call this via
    /// `World::reset_metrics` so phase boundaries from one run cannot leak
    /// into the next report.
    pub fn reset(&mut self) {
        if !self.enabled {
            return;
        }
        self.phases.clear();
        self.stack.clear();
        self.mark = None;
        self.events = 0;
        self.warns.clear();
    }

    /// Records one send of `bytes` by `peer` in `class`, attributed to the
    /// handler mark, else the innermost span, else a phase named after the
    /// class label.
    pub fn record(&mut self, peer: PeerId, class: MsgClass, bytes: u64) {
        if !self.enabled {
            return;
        }
        let idx = match self.mark.or_else(|| self.stack.last().copied()) {
            Some(i) => i,
            None => self.resolve(class.label()),
        };
        let phase = &mut self.phases[idx];
        phase.per_peer[peer.index()] += bytes;
        let t = &mut phase.by_class[class.index()];
        t.bytes += bytes;
        t.messages += 1;
        self.events += 1;
    }

    /// Records `bytes` piggybacked by `peer` inside an already-recorded
    /// send, attributed to the phase named after `class`'s label (never to
    /// the carrier's span or mark — the piggyback belongs to its own
    /// mechanism, not to the phase that happened to carry it). No message
    /// or event is counted.
    pub fn record_piggyback(&mut self, peer: PeerId, class: MsgClass, bytes: u64) {
        if !self.enabled {
            return;
        }
        let idx = self.resolve(class.label());
        let phase = &mut self.phases[idx];
        phase.per_peer[peer.index()] += bytes;
        phase.by_class[class.index()].bytes += bytes;
    }

    /// Charges a whole per-peer byte vector into the phase `label` at once
    /// — for a run metered elsewhere (a separate world's meter) whose
    /// per-peer costs arrive in one shot. Every nonzero entry counts as
    /// one message (each charged peer forwarded one merged value).
    ///
    /// # Panics
    ///
    /// Panics if `per_peer` length differs from the sink's peer count.
    pub fn record_vec(&mut self, label: &str, class: MsgClass, per_peer: &[u64]) {
        if !self.enabled {
            return;
        }
        assert_eq!(per_peer.len(), self.peer_count, "peer universe mismatch");
        let idx = self.resolve(label);
        let phase = &mut self.phases[idx];
        let t = &mut phase.by_class[class.index()];
        for (slot, &bytes) in phase.per_peer.iter_mut().zip(per_peer) {
            *slot += bytes;
            t.bytes += bytes;
            if bytes > 0 {
                t.messages += 1;
                self.events += 1;
            }
        }
    }

    /// Adds wall-clock time to the phase `label` (creating it if absent).
    /// Used for scheduler-loop and per-stage profiling.
    pub fn record_wall(&mut self, label: &str, wall: std::time::Duration) {
        if !self.enabled {
            return;
        }
        let idx = self.resolve(label);
        self.phases[idx].wall += wall;
    }

    /// Snapshots the accumulated state into an immutable report.
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            peer_count: self.peer_count,
            events: self.events,
            phases: self
                .phases
                .iter()
                .map(|p| PhaseMetrics {
                    label: p.label.clone(),
                    bytes_per_peer: p.per_peer.clone(),
                    by_class: p.by_class,
                    wall: p.wall,
                })
                .collect(),
            warnings: self.warns.clone(),
        }
    }
}

/// Metrics for one protocol phase inside a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseMetrics {
    /// The phase label (span name, or a [`MsgClass`] label for untagged
    /// traffic).
    pub label: String,
    /// Bytes charged to each sending peer in this phase.
    pub bytes_per_peer: Vec<u64>,
    /// Per-class totals within this phase, indexed by
    /// [`MsgClass::index`].
    pub by_class: [ClassTotals; MsgClass::COUNT],
    /// Wall-clock time attributed to this phase (profiling; excluded from
    /// stable snapshots).
    pub wall: std::time::Duration,
}

impl PhaseMetrics {
    /// Total bytes in this phase.
    pub fn bytes(&self) -> u64 {
        self.by_class.iter().map(|t| t.bytes).sum()
    }

    /// Total messages in this phase.
    pub fn messages(&self) -> u64 {
        self.by_class.iter().map(|t| t.messages).sum()
    }

    /// Average bytes per peer (over the whole universe, the paper's
    /// denominator).
    pub fn avg_bytes_per_peer(&self) -> f64 {
        if self.bytes_per_peer.is_empty() {
            0.0
        } else {
            self.bytes() as f64 / self.bytes_per_peer.len() as f64
        }
    }

    /// The heaviest-loaded sender in this phase and its bytes.
    pub fn max_peer_bytes(&self) -> u64 {
        self.bytes_per_peer.iter().copied().max().unwrap_or(0)
    }

    /// Peers that sent at least one byte in this phase.
    pub fn active_peers(&self) -> usize {
        self.bytes_per_peer.iter().filter(|&&b| b > 0).count()
    }
}

/// An immutable per-phase, per-peer, per-class communication and
/// wall-clock report — the richer superset of the engine's
/// `CostBreakdown` (the `netfilter` crate property-tests that the two
/// reconcile byte-for-byte).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// Size of the peer universe.
    pub peer_count: usize,
    /// Events recorded (sends, or nonzero bulk charges).
    pub events: u64,
    /// Per-phase metrics, in order of first activity.
    pub phases: Vec<PhaseMetrics>,
    /// Tolerated-anomaly counters ([`EventSink::warn`]), in order of first
    /// occurrence. Empty on a clean run.
    pub warnings: Vec<(String, u64)>,
}

impl MetricsReport {
    /// The phase named `label`, if any traffic or wall time was attributed
    /// to it.
    pub fn phase(&self, label: &str) -> Option<&PhaseMetrics> {
        self.phases.iter().find(|p| p.label == label)
    }

    /// Total bytes in the phase named `label` (`0` if absent).
    pub fn phase_bytes(&self, label: &str) -> u64 {
        self.phase(label).map_or(0, PhaseMetrics::bytes)
    }

    /// Per-peer bytes of the phase named `label`.
    pub fn phase_peer_bytes(&self, label: &str) -> Option<&[u64]> {
        self.phase(label).map(|p| p.bytes_per_peer.as_slice())
    }

    /// Total bytes across all phases.
    pub fn total_bytes(&self) -> u64 {
        self.phases.iter().map(PhaseMetrics::bytes).sum()
    }

    /// Total bytes charged in `class`, across all phases — the report
    /// analogue of `Metrics::class_bytes`, for drivers (like the threaded
    /// transport) that only expose the sink report.
    pub fn class_bytes(&self, class: MsgClass) -> u64 {
        self.phases
            .iter()
            .map(|p| p.by_class[class.index()].bytes)
            .sum()
    }

    /// Total messages across all phases.
    pub fn total_messages(&self) -> u64 {
        self.phases.iter().map(PhaseMetrics::messages).sum()
    }

    /// The paper's metric: average bytes per peer, all phases.
    pub fn avg_bytes_per_peer(&self) -> f64 {
        if self.peer_count == 0 {
            0.0
        } else {
            self.total_bytes() as f64 / self.peer_count as f64
        }
    }

    /// Total wall-clock time across all phases.
    pub fn total_wall(&self) -> std::time::Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// Serializes the report to JSON, including wall-clock fields.
    ///
    /// Hand-rolled (this workspace builds without serde's machinery); the
    /// output is stable: one field per line, phases in first-activity
    /// order, classes in index order.
    pub fn to_json(&self) -> String {
        self.json(true)
    }

    /// Serializes to JSON **without** wall-clock fields, so two runs of
    /// the same deterministic workload produce byte-identical output.
    /// This is the format committed under `baselines/`.
    pub fn to_json_stable(&self) -> String {
        self.json(false)
    }

    fn json(&self, include_wall: bool) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"peer_count\": {},\n", self.peer_count));
        s.push_str(&format!("  \"events\": {},\n", self.events));
        s.push_str(&format!("  \"total_bytes\": {},\n", self.total_bytes()));
        s.push_str(&format!(
            "  \"total_messages\": {},\n",
            self.total_messages()
        ));
        s.push_str(&format!(
            "  \"avg_bytes_per_peer\": {:.6},\n",
            self.avg_bytes_per_peer()
        ));
        if include_wall {
            s.push_str(&format!(
                "  \"total_wall_nanos\": {},\n",
                self.total_wall().as_nanos()
            ));
        }
        // Emitted only when a warning fired: clean runs keep producing
        // output byte-identical to snapshots from before this field.
        if !self.warnings.is_empty() {
            s.push_str("  \"warnings\": [\n");
            for (i, (label, count)) in self.warnings.iter().enumerate() {
                s.push_str(&format!(
                    "    {{ \"label\": {:?}, \"count\": {} }}{}\n",
                    label,
                    count,
                    if i + 1 < self.warnings.len() { "," } else { "" }
                ));
            }
            s.push_str("  ],\n");
        }
        s.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"label\": {:?},\n", p.label));
            s.push_str(&format!("      \"bytes\": {},\n", p.bytes()));
            s.push_str(&format!("      \"messages\": {},\n", p.messages()));
            s.push_str(&format!(
                "      \"avg_bytes_per_peer\": {:.6},\n",
                p.avg_bytes_per_peer()
            ));
            s.push_str(&format!(
                "      \"max_peer_bytes\": {},\n",
                p.max_peer_bytes()
            ));
            s.push_str(&format!("      \"active_peers\": {},\n", p.active_peers()));
            if include_wall {
                s.push_str(&format!("      \"wall_nanos\": {},\n", p.wall.as_nanos()));
            }
            s.push_str("      \"by_class\": [\n");
            let used: Vec<usize> = (0..MsgClass::COUNT)
                .filter(|&c| p.by_class[c].messages > 0 || p.by_class[c].bytes > 0)
                .collect();
            for (j, &c) in used.iter().enumerate() {
                let t = p.by_class[c];
                s.push_str(&format!(
                    "        {{ \"class\": {:?}, \"bytes\": {}, \"messages\": {} }}{}\n",
                    MsgClass(c as u8).label(),
                    t.bytes,
                    t.messages,
                    if j + 1 < used.len() { "," } else { "" }
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.phases.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders the report as an aligned human-readable table.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "metrics report — {} peers, {} events, {} B total ({:.1} B/peer)\n",
            self.peer_count,
            self.events,
            self.total_bytes(),
            self.avg_bytes_per_peer()
        ));
        s.push_str(&format!(
            "{:<24} {:>12} {:>9} {:>12} {:>12} {:>11}\n",
            "phase", "bytes", "msgs", "B/peer", "max-peer B", "wall"
        ));
        s.push_str(&"-".repeat(85));
        s.push('\n');
        for p in &self.phases {
            s.push_str(&format!(
                "{:<24} {:>12} {:>9} {:>12.1} {:>12} {:>10.3?}\n",
                p.label,
                p.bytes(),
                p.messages(),
                p.avg_bytes_per_peer(),
                p.max_peer_bytes(),
                p.wall
            ));
        }
        if !self.warnings.is_empty() {
            s.push_str("warnings:");
            for (label, count) in &self.warnings {
                s.push_str(&format!(" {label} ×{count}"));
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut sink = EventSink::disabled();
        sink.enter("phase");
        sink.record(PeerId::new(0), MsgClass::DATA, 100);
        sink.record_wall("phase", std::time::Duration::from_secs(1));
        sink.exit();
        assert!(!sink.is_enabled());
        assert_eq!(sink.events_recorded(), 0);
        let r = sink.report();
        assert!(r.phases.is_empty());
        assert_eq!(r.total_bytes(), 0);
    }

    #[test]
    fn events_fall_back_to_class_label_phases() {
        let mut sink = EventSink::new(2);
        sink.record(PeerId::new(0), MsgClass::FILTERING, 10);
        sink.record(PeerId::new(1), MsgClass::AGGREGATION, 5);
        let r = sink.report();
        assert_eq!(r.phase_bytes("filtering"), 10);
        assert_eq!(r.phase_bytes("aggregation"), 5);
        assert_eq!(r.total_bytes(), 15);
        assert_eq!(r.events, 2);
    }

    #[test]
    fn spans_claim_events_and_nest() {
        let mut sink = EventSink::new(1);
        sink.enter("outer");
        sink.record(PeerId::new(0), MsgClass::DATA, 1);
        sink.enter("inner");
        sink.record(PeerId::new(0), MsgClass::DATA, 2);
        sink.exit();
        sink.record(PeerId::new(0), MsgClass::DATA, 4);
        sink.exit();
        sink.record(PeerId::new(0), MsgClass::DATA, 8);
        let r = sink.report();
        assert_eq!(r.phase_bytes("outer"), 5);
        assert_eq!(r.phase_bytes("inner"), 2);
        assert_eq!(r.phase_bytes("data"), 8);
    }

    #[test]
    fn mark_outranks_spans_until_cleared() {
        let mut sink = EventSink::new(1);
        sink.enter("span");
        sink.mark("handler");
        sink.record(PeerId::new(0), MsgClass::CONTROL, 3);
        sink.clear_mark();
        sink.record(PeerId::new(0), MsgClass::CONTROL, 4);
        let r = sink.report();
        assert_eq!(r.phase_bytes("handler"), 3);
        assert_eq!(r.phase_bytes("span"), 4);
    }

    #[test]
    fn piggyback_ignores_marks_and_counts_no_event() {
        let mut sink = EventSink::new(2);
        sink.mark("filtering");
        sink.record(PeerId::new(1), MsgClass::FILTERING, 50);
        sink.record_piggyback(PeerId::new(1), MsgClass::FAILOVER, 12);
        sink.clear_mark();
        let r = sink.report();
        assert_eq!(r.phase_bytes("filtering"), 50);
        assert_eq!(r.phase_bytes("failover"), 12);
        assert_eq!(r.phase("failover").unwrap().messages(), 0);
        assert_eq!(r.events, 1);
    }

    #[test]
    fn record_vec_charges_per_peer_and_counts_nonzero() {
        let mut sink = EventSink::new(4);
        sink.record_vec("filtering", MsgClass::FILTERING, &[0, 10, 20, 0]);
        sink.record_vec("filtering", MsgClass::FILTERING, &[5, 0, 0, 0]);
        let r = sink.report();
        let p = r.phase("filtering").unwrap();
        assert_eq!(p.bytes_per_peer, vec![5, 10, 20, 0]);
        assert_eq!(p.bytes(), 35);
        assert_eq!(p.messages(), 3);
        assert_eq!(p.active_peers(), 3);
        assert_eq!(p.max_peer_bytes(), 20);
        assert_eq!(r.events, 3);
    }

    #[test]
    #[should_panic(expected = "peer universe mismatch")]
    fn record_vec_rejects_wrong_length() {
        let mut sink = EventSink::new(3);
        sink.record_vec("x", MsgClass::DATA, &[1, 2]);
    }

    #[test]
    fn wall_time_accumulates_per_phase() {
        let mut sink = EventSink::new(1);
        sink.record_wall("scheduler", std::time::Duration::from_millis(2));
        sink.record_wall("scheduler", std::time::Duration::from_millis(3));
        let r = sink.report();
        assert_eq!(
            r.phase("scheduler").unwrap().wall,
            std::time::Duration::from_millis(5)
        );
        assert_eq!(r.total_wall(), std::time::Duration::from_millis(5));
    }

    #[test]
    fn json_is_stable_without_wall_and_parses_shape() {
        let mut sink = EventSink::new(2);
        sink.record(PeerId::new(0), MsgClass::FILTERING, 12);
        let r = sink.report();
        let stable = r.to_json_stable();
        assert!(!stable.contains("wall"));
        assert!(stable.contains("\"label\": \"filtering\""));
        assert!(stable.contains("\"total_bytes\": 12"));
        // Same workload, fresh sink: byte-identical stable JSON.
        let mut sink2 = EventSink::new(2);
        sink2.record(PeerId::new(0), MsgClass::FILTERING, 12);
        sink2.record_wall("filtering", std::time::Duration::from_micros(7));
        assert_eq!(stable, sink2.report().to_json_stable());
        assert!(sink2.report().to_json().contains("wall_nanos"));
    }

    #[test]
    fn warnings_count_and_serialize_only_when_present() {
        let mut sink = EventSink::new(1);
        sink.record(PeerId::new(0), MsgClass::DATA, 4);
        let clean = sink.report();
        assert!(clean.warnings.is_empty());
        assert!(!clean.to_json_stable().contains("warnings"));
        assert!(!clean.render_table().contains("warnings"));

        sink.warn("orphan-frame");
        sink.warn("orphan-frame");
        sink.warn("stale-ack");
        let r = sink.report();
        assert_eq!(
            r.warnings,
            vec![
                ("orphan-frame".to_string(), 2),
                ("stale-ack".to_string(), 1)
            ]
        );
        let json = r.to_json_stable();
        assert!(json.contains("\"warnings\": ["));
        assert!(json.contains("{ \"label\": \"orphan-frame\", \"count\": 2 },"));
        assert!(json.contains("{ \"label\": \"stale-ack\", \"count\": 1 }"));
        assert!(r.render_table().contains("orphan-frame ×2"));

        sink.reset();
        assert!(sink.warnings().is_empty());
        assert!(!sink.report().to_json_stable().contains("warnings"));
    }

    #[test]
    fn disabled_sink_ignores_warnings() {
        let mut sink = EventSink::disabled();
        sink.warn("never");
        assert!(sink.warnings().is_empty());
        assert!(sink.report().warnings.is_empty());
    }

    #[test]
    fn table_mentions_every_phase() {
        let mut sink = EventSink::new(2);
        sink.enter("construction");
        sink.record(PeerId::new(1), MsgClass::CONTROL, 9);
        sink.exit();
        let table = sink.report().render_table();
        assert!(table.contains("construction"));
        assert!(table.contains("B/peer"));
    }
}
