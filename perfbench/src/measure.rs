//! What one run records, and the pieces every workload loop shares:
//! the outcome oracle, the block loop, edits, and counter snapshots.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ucam_am::EpochPushStats;
use ucam_host::PepStats;
use ucam_requester::{AccessOutcome, RequesterStats};
use ucam_sim::population::SplitMix64;
use ucam_webenv::NetStats;

use crate::rig::{expected_body, Backend, Rig, SetupSplit, AM};
use crate::trace::{AggSnapshot, Kind, Tracer};

/// Benchmark-side counts: what the oracle saw and what edits did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Accesses attempted.
    pub accesses: u64,
    /// Accesses attempted inside traced blocks.
    pub traced_accesses: u64,
    /// Accesses that failed, or were denied where ground truth grants.
    pub failed: u64,
    /// Failed accesses whose response carried a transport error.
    pub transport_errors: u64,
    /// Grants ground truth denies — each one invalidates the run.
    pub wrong_grants: u64,
    /// Grants whose body was not the stored content — invalid as well.
    pub bad_bodies: u64,
    /// Policy edits made (each followed by a full push drain).
    pub edits: u64,
    /// Sum of edit-visibility times of edits inside traced blocks, in ns.
    pub traced_edit_ns: u64,
    /// Wire bytes the push drains carried (traced runs only).
    pub push_bytes: u64,
    /// Most pushes queued right after one edit (traced runs only).
    pub pending_max: u64,
}

impl Tally {
    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &Tally) {
        self.accesses += other.accesses;
        self.traced_accesses += other.traced_accesses;
        self.failed += other.failed;
        self.transport_errors += other.transport_errors;
        self.wrong_grants += other.wrong_grants;
        self.bad_bodies += other.bad_bodies;
        self.edits += other.edits;
        self.traced_edit_ns += other.traced_edit_ns;
        self.push_bytes += other.push_bytes;
        self.pending_max = self.pending_max.max(other.pending_max);
    }

    /// Judges one read of resource `r` against ground truth.
    pub fn judge(&mut self, outcome: &AccessOutcome, grants: bool, r: u64) {
        match outcome {
            AccessOutcome::Granted(resp) => {
                if !grants {
                    self.wrong_grants += 1;
                } else if resp.body != expected_body(r) {
                    self.bad_bodies += 1;
                }
            }
            AccessOutcome::Failed(resp) => {
                self.failed += 1;
                if resp.transport_error().is_some() {
                    self.transport_errors += 1;
                }
            }
            AccessOutcome::Denied(_)
            | AccessOutcome::PendingConsent { .. }
            | AccessOutcome::NeedsClaims(_) => {
                if grants {
                    self.failed += 1;
                }
            }
        }
    }
}

/// System counters at one instant: transport, Hosts (summed), push
/// channel and the tracer's span aggregates.
#[derive(Debug, Clone, Default)]
pub struct SysSnap {
    /// Transport message statistics.
    pub net: NetStats,
    /// PEP counters summed over every Host.
    pub pep: PepStats,
    /// The AM's push-channel counters.
    pub push: EpochPushStats,
    /// Span aggregates (zero without a tracer).
    pub spans: AggSnapshot,
}

impl SysSnap {
    /// Reads every counter of `rig` (and `tracer`) now.
    #[must_use]
    pub fn take(rig: &Rig, tracer: Option<&Arc<Tracer>>) -> SysSnap {
        let mut pep = PepStats::default();
        for host in &rig.hosts {
            let s = host.shell().core.stats();
            pep.am_queries += s.am_queries;
            pep.cache_hits += s.cache_hits;
            pep.redirects += s.redirects;
            pep.stale_served += s.stale_served;
            pep.sieve_hits += s.sieve_hits;
            pep.sieve_misses += s.sieve_misses;
            pep.sieve_rejects += s.sieve_rejects;
            pep.sieve_delta_installs += s.sieve_delta_installs;
            pep.sieve_resyncs += s.sieve_resyncs;
            pep.invalidated_evictions += s.invalidated_evictions;
            pep.revalidations += s.revalidations;
            pep.revalidations_unchanged += s.revalidations_unchanged;
        }
        SysSnap {
            net: rig.net.stats(),
            pep,
            push: rig.am.epoch_push_stats(),
            spans: tracer.map(|t| t.snapshot()).unwrap_or_default(),
        }
    }
}

/// The counts of one window: system counter deltas plus the benchmark's
/// tally and the requesters' protocol counters.
#[derive(Debug, Clone, Default)]
pub struct WindowCounts {
    /// Round trips on the access path (everything but AM→Host pushes).
    pub access_rts: u64,
    /// Host→AM round trips (decision queries).
    pub host_am_rts: u64,
    /// AM→Host round trips (push deliveries).
    pub am_host_rts: u64,
    /// Wire bytes of every successful round trip in the window.
    pub bytes_on_wire: u64,
    /// PEP counter deltas.
    pub pep: PepStats,
    /// Push-channel counter deltas.
    pub push: EpochPushStats,
    /// Span aggregate deltas (calls counted in traced blocks only).
    pub spans: AggSnapshot,
    /// Requester protocol counters summed over the window's clients.
    pub requester: RequesterStats,
    /// The benchmark's tally for the window.
    pub tally: Tally,
}

impl WindowCounts {
    /// Counts between two snapshots.
    #[must_use]
    pub fn between(
        before: &SysSnap,
        after: &SysSnap,
        requester: RequesterStats,
        tally: Tally,
    ) -> WindowCounts {
        let edge = |snap: &SysSnap, pick: &dyn Fn(&str, &str) -> bool| -> u64 {
            snap.net
                .per_edge
                .iter()
                .filter(|((from, to), _)| pick(from, to))
                .map(|(_, n)| n)
                .sum()
        };
        let from_am = |from: &str, _: &str| from == AM;
        let to_am_from_host = |from: &str, to: &str| to == AM && !from.starts_with("requester:");
        let am_host_rts = edge(after, &from_am) - edge(before, &from_am);
        let a = &after.pep;
        let b = &before.pep;
        let pep = PepStats {
            am_queries: a.am_queries - b.am_queries,
            cache_hits: a.cache_hits - b.cache_hits,
            redirects: a.redirects - b.redirects,
            stale_served: a.stale_served - b.stale_served,
            sieve_hits: a.sieve_hits - b.sieve_hits,
            sieve_misses: a.sieve_misses - b.sieve_misses,
            sieve_rejects: a.sieve_rejects - b.sieve_rejects,
            sieve_delta_installs: a.sieve_delta_installs - b.sieve_delta_installs,
            sieve_resyncs: a.sieve_resyncs - b.sieve_resyncs,
            invalidated_evictions: a.invalidated_evictions - b.invalidated_evictions,
            revalidations: a.revalidations - b.revalidations,
            revalidations_unchanged: a.revalidations_unchanged - b.revalidations_unchanged,
            ..PepStats::default()
        };
        let (pa, pb) = (&after.push, &before.push);
        let push = EpochPushStats {
            delivered: pa.delivered - pb.delivered,
            coalesced: pa.coalesced - pb.coalesced,
            retries: pa.retries - pb.retries,
            ..EpochPushStats::default()
        };
        WindowCounts {
            access_rts: (after.net.round_trips - before.net.round_trips) - am_host_rts,
            host_am_rts: edge(after, &to_am_from_host) - edge(before, &to_am_from_host),
            am_host_rts,
            bytes_on_wire: after.net.bytes_on_wire - before.net.bytes_on_wire,
            pep,
            push,
            spans: after.spans.since(&before.spans),
            requester,
            tally,
        }
    }
}

/// Sums requester counters over a client pool.
#[must_use]
pub fn sum_requesters(stats: impl Iterator<Item = RequesterStats>) -> RequesterStats {
    let mut out = RequesterStats::default();
    for s in stats {
        out.accesses += s.accesses;
        out.token_requests += s.token_requests;
        out.cache_hits += s.cache_hits;
        out.reauthorizations += s.reauthorizations;
        out.retries += s.retries;
        out.failovers += s.failovers;
    }
    out
}

/// Iterations of [`reference_op_ns`]'s loop.
const REFERENCE_OPS: u64 = 4_000;

/// Times a fixed computation that uses none of the program's code —
/// string formatting, hashing, small allocations and byte sums, the kinds
/// of work an access does — and returns its time per iteration in ns:
/// one reference operation. A shared box's speed shifts by up to half for
/// minutes at a time; access latency divided by the reference operation
/// timed beside it moves with the program's own cost, not with the box.
#[must_use]
pub fn reference_op_ns() -> f64 {
    let started = Instant::now();
    let mut rng = SplitMix64::new(0x5EED);
    let mut map: HashMap<String, Vec<u8>> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..REFERENCE_OPS {
        let key = format!("owner-{}/res-{}", rng.next_u64() % 256, i % 64);
        let entry = map.entry(key).or_default();
        entry.extend_from_slice(&i.to_le_bytes());
        if entry.len() > 512 {
            entry.clear();
        }
        acc = acc.wrapping_add(entry.iter().map(|&b| u64::from(b)).sum::<u64>());
    }
    black_box((acc, map));
    started.elapsed().as_nanos() as f64 / REFERENCE_OPS as f64
}

/// Accesses and summed per-thread wall time of untraced (`[0]`) and
/// traced (`[1]`) blocks, plus each untraced block's access rate and
/// median latency in reference operations.
#[derive(Debug, Clone, Default)]
pub struct Modes {
    /// Accesses per mode.
    pub accesses: [u64; 2],
    /// Wall time per mode, summed over load threads, in ns.
    pub wall_ns: [u64; 2],
    /// Access rate of every untraced block, per load thread, in 1/s.
    pub block_rates: Vec<f64>,
    /// Median latency sample of every untraced block, per load thread,
    /// divided by the reference operation timed right after the block.
    pub block_p50_refops: Vec<f64>,
    /// The reference operation timed after every untraced block, in ns.
    pub reference_op_ns: Vec<f64>,
    /// Peak resident set in MiB after set-up plus a fixed amount of work
    /// (0 until read). Read at a fixed point, not at exit, so that a
    /// faster run's longer sample and log buffers do not count against
    /// it.
    pub rss_mb: f64,
}

impl Modes {
    /// Files one finished block, whose latency samples are `samples`. After
    /// an untraced block this times the reference operation, outside the
    /// block's wall time.
    pub fn record(&mut self, traced: bool, accesses: u64, wall_ns: u64, samples: &[u64]) {
        let mode = usize::from(traced);
        self.accesses[mode] += accesses;
        self.wall_ns[mode] += wall_ns;
        if !traced {
            self.block_rates
                .push(accesses as f64 / (wall_ns.max(1) as f64 / 1e9));
            let unit = reference_op_ns();
            self.reference_op_ns.push(unit);
            if !samples.is_empty() {
                let mut block = samples.to_vec();
                block.sort_unstable();
                self.block_p50_refops
                    .push(percentile(&block, 0.50) as f64 / unit);
            }
        }
    }

    /// Adds another thread's blocks.
    pub fn merge(&mut self, other: &Modes) {
        for m in 0..2 {
            self.accesses[m] += other.accesses[m];
            self.wall_ns[m] += other.wall_ns[m];
        }
        self.block_rates.extend_from_slice(&other.block_rates);
        self.block_p50_refops
            .extend_from_slice(&other.block_p50_refops);
        self.reference_op_ns
            .extend_from_slice(&other.reference_op_ns);
        self.rss_mb = self.rss_mb.max(other.rss_mb);
    }
}

/// What the traced run adds to a result.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Counts over the fixed count window, edits included.
    pub access: WindowCounts,
    /// Span aggregates over the whole window (timing).
    pub access_spans: AggSnapshot,
    /// Edit time spent inside traced blocks, in ns (excluded from the
    /// per-access end-to-end time the layers reconcile against).
    pub traced_edit_ns: u64,
    /// Spans written to the dump, and where.
    pub dump: Option<(usize, String)>,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Backend the workload ran on.
    pub backend: Backend,
    /// Load threads.
    pub threads: usize,
    /// Wall time of each set-up repetition, in ns.
    pub setups_ns: Vec<u64>,
    /// Phase split of the measured rig's set-up.
    pub setup_split: SetupSplit,
    /// Population shape of the measured rig.
    pub users: usize,
    /// Hosts of the measured rig.
    pub hosts: usize,
    /// Resources of the measured rig.
    pub resources: usize,
    /// Oracle tally over the measured window (accesses and edits).
    pub tally: Tally,
    /// max(end) − min(start) of the measured window, in ns.
    pub window_ns: u64,
    /// Per-access latency samples in ns (per-stride mean for strides).
    pub samples_ns: Vec<u64>,
    /// Accesses each latency sample covers.
    pub sample_stride: u64,
    /// Edit-visibility times in ns: `pap` call to end of push drain.
    pub edit_ns: Vec<u64>,
    /// Block totals of the window (traced and untraced blocks).
    pub modes: Modes,
    /// Traced-run extras.
    pub traced: Option<Traced>,
}

/// Runs `step(op, traced)` in blocks of `block_ops` until `seconds` have
/// passed and at least `min_ops` ran, always ending after an even number
/// (at least two) of blocks. With a tracer, odd blocks run with its gate
/// open. `step` returns the latency of the access it made, in ns, or
/// `None` when it made none. The peak resident set is read once, at the
/// first block boundary past both `min_ops` and two blocks — a fixed
/// amount of work; from then on `between(elapsed_s)` runs after every
/// block, outside the blocks' time. Returns the per-mode totals, the
/// window's wall time and every latency sample.
pub fn drive(
    tracer: Option<&Arc<Tracer>>,
    block_ops: u64,
    min_ops: u64,
    seconds: f64,
    mut between: impl FnMut(f64),
    mut step: impl FnMut(u64, bool) -> Option<u64>,
) -> (Modes, u64, Vec<u64>) {
    let mut modes = Modes::default();
    let mut samples = Vec::new();
    let began = Instant::now();
    let mut op = 0u64;
    let mut block = 0u64;
    let mut rss_read = false;
    loop {
        if block >= 2
            && block.is_multiple_of(2)
            && op >= min_ops
            && began.elapsed().as_secs_f64() >= seconds
        {
            break;
        }
        let traced = tracer.is_some() && block % 2 == 1;
        if let Some(tracer) = tracer {
            tracer.set_on(traced);
        }
        let first = samples.len();
        let t0 = Instant::now();
        for _ in 0..block_ops {
            if let Some(ns) = step(op, traced) {
                samples.push(ns);
            }
            op += 1;
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let block_samples = &samples[first..];
        modes.record(traced, block_samples.len() as u64, wall_ns, block_samples);
        block += 1;
        if rss_read {
            between(began.elapsed().as_secs_f64());
        } else if block >= 2 && op >= min_ops {
            modes.rss_mb = peak_rss_mb();
            rss_read = true;
        }
    }
    if let Some(tracer) = tracer {
        tracer.set_on(false);
    }
    (modes, began.elapsed().as_nanos() as u64, samples)
}

/// Makes one edit and drains its pushes; returns the edit-visibility
/// time in ns. With a tracer the `pap` and drain are spans, and the
/// queued-push peak and the drain's wire bytes land in `tally`.
pub fn timed_edit(
    rig: &mut Rig,
    owner: u64,
    realm: usize,
    tracer: Option<&Arc<Tracer>>,
    tally: &mut Tally,
) -> u64 {
    let bytes_before = tracer.is_some().then(|| rig.net.stats().bytes_on_wire);
    let t0 = Instant::now();
    match tracer {
        Some(tracer) => {
            tracer.span(Kind::Pap, 1, || rig.toggle(owner, realm));
            tally.pending_max = tally.pending_max.max(rig.am.pending_epoch_pushes() as u64);
            tracer.span(Kind::Pump, 1, || rig.drain());
        }
        None => {
            rig.toggle(owner, realm);
            rig.drain();
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    if let Some(before) = bytes_before {
        tally.push_bytes += rig.net.stats().bytes_on_wire - before;
    }
    tally.edits += 1;
    if tracer.is_some_and(|t| t.is_on()) {
        tally.traced_edit_ns += ns;
    }
    ns
}

/// Picks the `(owner, realm)` an edit pair toggles.
pub fn pick_edit(rig: &Rig, rng: &mut SplitMix64) -> (u64, usize) {
    let owner = rng.next_u64() % rig.shape.users as u64;
    let realm = (rng.next_u64() % rig.shape.realms as u64) as usize;
    (owner, realm)
}

/// The median of `values` (mean of the middle two for even lengths), or
/// 0 for no values.
#[must_use]
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = values.into_iter().collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_unstable_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The mean of the middle half of `values` (from the first to the third
/// quartile by rank; all of them when there are fewer than four), or 0
/// for no values. Where a run's values fall into a fast and a slow
/// cluster, it moves with the clusters' shares, where a median would
/// jump from one cluster to the other.
#[must_use]
pub fn middle_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = values.into_iter().collect();
    sorted.sort_unstable_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    let middle = &sorted[quarter..sorted.len() - quarter];
    if middle.is_empty() {
        0.0
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// Nearest-rank percentile `p` of `sorted`, or 0 for no samples.
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 when the
/// platform does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-mode access rates from block totals: `[untraced, traced]`.
#[must_use]
pub fn mode_rates(modes: &Modes) -> [f64; 2] {
    let rate = |m: usize| {
        if modes.wall_ns[m] == 0 {
            0.0
        } else {
            modes.accesses[m] as f64 / (modes.wall_ns[m] as f64 / 1e9)
        }
    };
    [rate(0), rate(1)]
}
