//! Turning a [`RunResult`] into named metrics, the human report and the
//! one-line JSON result.

use std::fmt::Write as _;

use crate::measure::{median, middle_mean, mode_rates, percentile, RunResult};
use crate::rig::Backend;
use crate::trace::Kind;

/// Whether a metric is a deterministic count (gated exactly across runs
/// of one seed) or a measured time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nature {
    /// A count or a ratio of counts: repeats exactly for a seed.
    Count,
    /// Wall-clock derived.
    Time,
}

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Count or time.
    pub nature: Nature,
}

fn time(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        nature: Nature::Time,
    }
}

fn count(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        nature: Nature::Count,
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn sorted(values: &[u64]) -> Vec<u64> {
    let mut out = values.to_vec();
    out.sort_unstable();
    out
}

/// Samples per chunk for tail percentiles: a chunk's p99 has ten
/// samples beyond it.
const TAIL_CHUNK: usize = 1_000;

/// The p99 of `samples` (in arrival order) as the median over
/// consecutive chunks of [`TAIL_CHUNK`] samples, so one stalled second of
/// a noisy box moves one chunk, not the result. With less than two
/// chunks it is the plain p99.
fn chunked_p99(samples: &[u64]) -> f64 {
    if samples.len() < 2 * TAIL_CHUNK {
        return percentile(&sorted(samples), 0.99) as f64;
    }
    median(
        samples
            .chunks_exact(TAIL_CHUNK)
            .map(|chunk| percentile(&sorted(chunk), 0.99) as f64),
    )
}

/// The gated end-to-end metrics of an untraced run: the ones steady
/// enough across runs to carry a regression bound. Access latency is
/// gated in reference operations ([`crate::measure::reference_op_ns`]):
/// the median over untraced blocks of the block's median latency divided
/// by the reference operation timed after it.
#[must_use]
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    vec![
        time(
            "access_p50_refops",
            "refop",
            median(r.modes.block_p50_refops.iter().copied()),
        ),
        time(
            "setup_s",
            "s",
            middle_mean(r.setups_ns.iter().map(|&ns| ns as f64)) / 1e9,
        ),
        time("peak_rss_mb", "MB", r.modes.rss_mb),
    ]
}

/// End-to-end metrics printed beside the gated ones but too noisy to
/// bound on a small shared box (see README.md): latency in wall time, the
/// reference operation it is gated against, throughput, the access tail
/// and edit visibility. Throughput is the median block rate times the
/// load threads, so a stall in one block does not move it; tails are
/// chunk medians ([`chunked_p99`]). Edit visibility exists only where the
/// mix has edits (`churn_sim`).
#[must_use]
pub fn end_to_end_reported(r: &RunResult) -> Vec<Metric> {
    let (attempted, failed) = attempted_failed(r);
    let mut out = vec![
        count("fail_ratio", "ratio", ratio(failed, attempted)),
        time(
            "access_p50_us",
            "us",
            percentile(&sorted(&r.samples_ns), 0.50) as f64 / 1e3,
        ),
        time(
            "reference_op_ns",
            "ns",
            median(r.modes.reference_op_ns.iter().copied()),
        ),
        time(
            "access_rps",
            "1/s",
            median(r.modes.block_rates.iter().copied()) * r.threads as f64,
        ),
        time("access_p99_us", "us", chunked_p99(&r.samples_ns) / 1e3),
    ];
    if !r.edit_ns.is_empty() {
        out.push(time(
            "edit_visible_p50_us",
            "us",
            percentile(&sorted(&r.edit_ns), 0.50) as f64 / 1e3,
        ));
        out.push(time(
            "edit_visible_p99_us",
            "us",
            chunked_p99(&r.edit_ns) / 1e3,
        ));
    }
    out
}

/// Top-level handler routes: the spans an access causes directly.
const TOP_HANDLERS: [Kind; 3] = [Kind::HostFiles, Kind::AmAuthorize, Kind::AmAuthorizeBatch];
/// AM decision routes, nested inside Host handlers.
const DECIDE: [Kind; 3] = [
    Kind::AmDecisionV1,
    Kind::AmDecisionV2,
    Kind::AmDecisionBatch,
];
/// Every AM route on the access path.
const AM_ACCESS: [Kind; 5] = [
    Kind::AmAuthorize,
    Kind::AmAuthorizeBatch,
    Kind::AmDecisionV1,
    Kind::AmDecisionV2,
    Kind::AmDecisionBatch,
];

/// Per-access self times of the traced window, in ns: requester (which
/// still holds the client side of the transport), of which transport hop,
/// Host, AM, and the end-to-end time per access they should add up to.
///
/// Self times come from per-route aggregates so they mean the same on
/// both backends: on HTTP the handlers run on server threads, where no
/// same-thread span stack can see them.
#[derive(Debug, Clone, Copy)]
pub struct Layers {
    /// Requester span minus the handler spans it caused.
    pub requester_ns: f64,
    /// Top-level dispatch spans minus their handler spans, per access.
    pub hop_ns: f64,
    /// Host handler spans minus the AM spans nested in them.
    pub host_ns: f64,
    /// AM handler spans on the access path.
    pub am_ns: f64,
    /// Traced block wall (summed over load threads, edits excluded).
    pub end_to_end_ns: f64,
}

impl Layers {
    /// Splits the traced window of `r`, a traced run.
    ///
    /// # Panics
    ///
    /// Panics when `r` is not a traced run.
    #[must_use]
    pub fn of(r: &RunResult) -> Layers {
        let t = r.traced.as_ref().expect("layers need a traced run");
        let s = &t.access_spans;
        let n = s.items(Kind::Access).max(1) as f64;
        let top = s.dur(&TOP_HANDLERS) as f64;
        Layers {
            requester_ns: (s.dur(&[Kind::Access]) as f64 - top) / n,
            hop_ns: (s.dur(&[Kind::Dispatch]) as f64 - top) / n,
            host_ns: (s.dur(&[Kind::HostFiles]) as f64 - s.dur(&DECIDE) as f64) / n,
            am_ns: s.dur(&AM_ACCESS) as f64 / n,
            end_to_end_ns: r.modes.wall_ns[1].saturating_sub(t.traced_edit_ns) as f64
                / r.modes.accesses[1].max(1) as f64,
        }
    }

    /// Share of the end-to-end time no layer's self time covers.
    #[must_use]
    pub fn unattributed_share(&self) -> f64 {
        if self.end_to_end_ns <= 0.0 {
            return 0.0;
        }
        1.0 - (self.requester_ns + self.host_ns + self.am_ns) / self.end_to_end_ns
    }
}

/// The per-layer metrics of a traced run.
///
/// # Panics
///
/// Panics when `r` is not a traced run.
#[must_use]
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let t = r
        .traced
        .as_ref()
        .expect("per-layer metrics need a traced run");
    let a = &t.access;
    let accesses = a.tally.accesses;
    let traced = a.tally.traced_accesses;
    let edits = a.tally.edits;
    let layers = Layers::of(r);
    let spans = &t.access_spans;
    let mean = |snap: &crate::trace::AggSnapshot, kinds: &[Kind]| {
        let calls: u64 = kinds.iter().map(|&k| snap.calls(k)).sum();
        if calls == 0 {
            0.0
        } else {
            snap.dur(kinds) as f64 / calls as f64
        }
    };
    let rates = mode_rates(&r.modes);
    let split = &r.setup_split;
    vec![
        time("requester.self_ns_per_access", "ns", layers.requester_ns),
        count(
            "requester.token_requests_per_access",
            "count",
            ratio(a.requester.token_requests, accesses),
        ),
        count(
            "requester.reauthorizations_per_access",
            "count",
            ratio(a.requester.reauthorizations, accesses),
        ),
        count(
            "webenv.rts_per_access",
            "count",
            ratio(a.access_rts, accesses),
        ),
        count(
            "webenv.bytes_per_access",
            "bytes",
            ratio(a.bytes_on_wire - a.tally.push_bytes, accesses),
        ),
        count(
            "webenv.rts_host_am_per_access",
            "count",
            ratio(a.host_am_rts, accesses),
        ),
        count(
            "webenv.rts_am_host_per_edit",
            "count",
            ratio(a.am_host_rts, edits),
        ),
        time(
            "webenv.hop_ns_per_rt",
            "ns",
            (spans.dur(&[Kind::Dispatch]) as f64 - spans.dur(&TOP_HANDLERS) as f64)
                / spans.items(Kind::Dispatch).max(1) as f64,
        ),
        count(
            "webenv.transport_errors",
            "count",
            a.tally.transport_errors as f64,
        ),
        time("host.self_ns_per_access", "ns", layers.host_ns),
        count(
            "host.sieve_hit_ratio",
            "ratio",
            ratio(a.pep.sieve_hits, accesses),
        ),
        count(
            "host.cache_hit_ratio",
            "ratio",
            ratio(a.pep.cache_hits, accesses),
        ),
        count(
            "host.am_queries_per_access",
            "count",
            ratio(a.pep.am_queries, accesses),
        ),
        count(
            "host.redirects_per_access",
            "count",
            ratio(a.pep.redirects, accesses),
        ),
        count(
            "host.revalidations_unchanged_ratio",
            "ratio",
            ratio(a.pep.revalidations_unchanged, a.pep.revalidations),
        ),
        time("host.push_install_ns", "ns", mean(spans, &[Kind::HostPush])),
        count(
            "host.invalidated_evictions_per_edit",
            "count",
            ratio(a.pep.invalidated_evictions, edits),
        ),
        count(
            "host.sieve_delta_installs_per_edit",
            "count",
            ratio(a.pep.sieve_delta_installs, edits),
        ),
        count("host.sieve_resyncs", "count", a.pep.sieve_resyncs as f64),
        count("host.sieve_rejects", "count", a.pep.sieve_rejects as f64),
        count("host.stale_served", "count", a.pep.stale_served as f64),
        time("am.authorize_ns", "ns", mean(spans, &[Kind::AmAuthorize])),
        count(
            "am.authorize_calls_per_access",
            "count",
            ratio(
                a.spans.calls(Kind::AmAuthorize) + a.spans.calls(Kind::AmAuthorizeBatch),
                traced,
            ),
        ),
        time("am.decide_ns", "ns", mean(spans, &DECIDE)),
        count(
            "am.decide_calls_per_access",
            "count",
            ratio(DECIDE.iter().map(|&k| a.spans.calls(k)).sum(), traced),
        ),
        time("am.pap_ns", "ns", mean(spans, &[Kind::Pap])),
        time("am.push_drain_ns", "ns", mean(spans, &[Kind::Pump])),
        count(
            "am.push_delivered_per_edit",
            "count",
            ratio(a.push.delivered, edits),
        ),
        count(
            "am.push_coalesced_per_edit",
            "count",
            ratio(a.push.coalesced, edits),
        ),
        count("am.push_retries", "count", a.push.retries as f64),
        count("am.push_pending_max", "count", a.tally.pending_max as f64),
        time(
            "am.setup_register_ns_per_host",
            "ns",
            ratio(split.register_ns, r.hosts as u64),
        ),
        time(
            "am.setup_delegate_ns_per_owner",
            "ns",
            ratio(split.delegate_ns, r.users as u64),
        ),
        time(
            "host.setup_put_resource_ns",
            "ns",
            ratio(split.put_resource_ns, r.resources as u64),
        ),
        time(
            "am.setup_pap_ns_per_owner",
            "ns",
            ratio(split.pap_ns, r.users as u64),
        ),
        time("am.setup_push_drain_ms", "ms", split.drain_ns as f64 / 1e6),
        time(
            "bench.unattributed_share",
            "share",
            layers.unattributed_share(),
        ),
        time(
            "bench.trace_overhead_share",
            "share",
            if rates[0] > 0.0 {
                1.0 - rates[1] / rates[0]
            } else {
                0.0
            },
        ),
    ]
}

/// `attempted` and `failed` for the result line: accesses plus edits.
#[must_use]
pub fn attempted_failed(r: &RunResult) -> (u64, u64) {
    let attempted = r.tally.accesses + r.tally.edits;
    (attempted.max(1), r.tally.failed)
}

/// Whether the run's outputs were correct: no grant ground truth denies,
/// and every grant returned the stored content.
#[must_use]
pub fn correct(r: &RunResult) -> bool {
    r.tally.wrong_grants + r.tally.bad_bodies == 0
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The final JSON line.
#[must_use]
pub fn json_line(r: &RunResult, metrics: &[Metric]) -> String {
    let (attempted, failed) = attempted_failed(r);
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct(r)
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The human-readable report printed before the JSON line: `metrics`
/// (the result line's) and then `reported` (printed only), each with its
/// unit.
#[must_use]
pub fn human(
    workload: &str,
    seed: u64,
    r: &RunResult,
    metrics: &[Metric],
    reported: &[Metric],
) -> String {
    let mut out = String::new();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (attempted, failed) = attempted_failed(r);
    let _ = writeln!(
        out,
        "# {workload} seed={seed} backend={} threads={} cores={cores} users={} hosts={} resources={}",
        r.backend.label(),
        r.threads,
        r.users,
        r.hosts,
        r.resources,
    );
    let _ = writeln!(
        out,
        "# window {:.3} s: {} accesses, {} edits, {} latency samples (1 per {} accesses), {} edit samples, {} set-ups",
        r.window_ns as f64 / 1e9,
        r.tally.accesses,
        r.tally.edits,
        r.samples_ns.len(),
        r.sample_stride,
        r.edit_ns.len(),
        r.setups_ns.len(),
    );
    let _ = writeln!(
        out,
        "# {failed} of {attempted} operations failed; {} wrong grants",
        r.tally.wrong_grants,
    );
    for m in metrics {
        let _ = writeln!(
            out,
            "{workload} {} = {} {}",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    }
    for m in reported {
        let _ = writeln!(
            out,
            "{workload} {} = {} {}  (reported, not gated)",
            m.name,
            fmt_value(m.value),
            m.unit
        );
    }
    if let Some(t) = &r.traced {
        let l = Layers::of(r);
        let share = |ns: f64| 100.0 * ns / l.end_to_end_ns.max(f64::MIN_POSITIVE);
        let _ = writeln!(
            out,
            "# reconciliation ({}), ns per traced access = {:.1}:",
            match r.backend {
                Backend::Sim => "SimNet: every span nests on the load thread",
                Backend::Http => "HTTP: per-route aggregates across server threads",
            },
            l.end_to_end_ns
        );
        for (label, ns) in [
            ("requester self", l.requester_ns),
            ("  of which transport hop", l.hop_ns),
            ("host self", l.host_ns),
            ("am self", l.am_ns),
            (
                "unattributed",
                l.end_to_end_ns - l.requester_ns - l.host_ns - l.am_ns,
            ),
        ] {
            let _ = writeln!(out, "#   {label:<26} {ns:>12.1} ns  {:>6.2} %", share(ns));
        }
        let rates = mode_rates(&r.modes);
        let _ = writeln!(
            out,
            "#   access rate untraced {:.1}/s, traced {:.1}/s (trace overhead {:.2} %)",
            rates[0],
            rates[1],
            100.0 * (1.0 - rates[1] / rates[0].max(f64::MIN_POSITIVE))
        );
        let _ = writeln!(
            out,
            "# counts over {} accesses ({} traced) and {} edits",
            t.access.tally.accesses, t.access.tally.traced_accesses, t.access.tally.edits
        );
        if let Some((n, path)) = &t.dump {
            let _ = writeln!(out, "# {n} spans written to {path}");
        }
    }
    out
}
