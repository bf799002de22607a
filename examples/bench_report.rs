//! Measures the saturation sweep and writes `BENCH_PR2.json`.
//!
//! ```sh
//! cargo run --release --example bench_report            # full sweep, rewrites the report
//! cargo run --release --example bench_report -- --quick # smoke-sized, no rewrite
//! cargo run --release --example bench_report -- --check # regression gate vs the report
//! cargo run --release --example bench_report -- --append-history # record data points
//! cargo run --release --example bench_report -- --transport=http # cross-process rows
//! cargo run --release --example bench_report -- --storm # refresh the v2 storm rows
//! cargo run --release --example bench_report -- --check-storm # Gate 6 alone
//! ```
//!
//! Drives the full phase-3→6 flow and the warm phase-6 steady state from
//! 1/2/4/8 threads against one AM and two Hosts (see `sim::saturation`),
//! then records `{bench, threads, reqs_per_sec, p50_us, p99_us}` rows so
//! the repo carries a measured perf trajectory PR over PR. Each committed
//! row folds [`FULL_ATTEMPTS`] runs per field (max throughput, min
//! latency per percentile — `SaturationRow::merge_best`): scheduler
//! jitter only ever slows a run down, so the per-field best is the
//! least-noisy estimate of what the fabric can actually sustain.
//!
//! `--check` is the regression gate, in two parts:
//!
//! * the single-thread `phase6_warm` throughput must clear a floor that
//!   starts at 70% of the committed baseline in `BENCH_PR2.json` and,
//!   once the checked-in history (`BENCH_HISTORY.jsonl`) holds at least
//!   [`MIN_HISTORY_POINTS`] single-thread points, tightens to
//!   `max(70% of baseline, mean − 3σ of the history)` (rule documented
//!   in `EXPERIMENTS.md`);
//! * the warm path must keep *scaling*: the measured 8-thread throughput
//!   must reach [`SCALING_FLOOR`] of the measured 4-thread one, and the
//!   committed report itself must be monotone non-decreasing across
//!   1→2→4→8 threads — the exact cliff this gate exists to guard.
//!
//! `--append-history` records the 1-, 4- and 8-thread `phase6_warm` and
//! `phase6_warm_http` measurements plus the smoke-sized
//! `population_scale` point (one JSON row per line), so the history
//! carries the multi-thread trajectory, the cross-process trajectory and
//! the population-engine trajectory, not just the single-thread ceiling.
//!
//! The full sweep additionally emits the `population_scale` load curves:
//! end-to-end req/s and p50/p99 versus population (10³ → 10⁶ entities at
//! 256 Hosts) and versus Host count (64 → 512 Hosts at 10⁵ entities),
//! generated by `sim::population` (seeded, streamed, Zipf-shaped
//! traffic). Those rows land in `BENCH_PR2.json` next to the saturation
//! rows, and `--check` gates two more edges against them:
//!
//! * the smoke-sized population point (10⁴ entities / 64 Hosts) must
//!   reach [`POPULATION_FLOOR`] of the committed same-shape row, and
//! * the 8-thread `full_flow` tail must stay bounded, on two axes: the
//!   *committed* p99 under [`FULL_FLOW_8T_P99_CEILING_US`] (the sweep
//!   must find at least one window whose whole-protocol tail fits —
//!   the pre-fix contention measured 16,000µs+ in *every* window), and
//!   a *fresh* p95 under [`FULL_FLOW_8T_P95_CEILING_US`] (the
//!   preemption-robust live gauge; see the constant's rationale).
//!
//! Besides those machine-*dependent* throughput floors, `--check` gates
//! the **work counts** exactly. Every saturation row carries the counted
//! protocol work behind it — accesses, wire round trips, sieve hits,
//! PEP cache hits, live AM queries (`sim::saturation::WorkCounts`) —
//! and those counts are deterministic for a given `(bench, threads)`
//! shape: the same protocol must do the same work on a laptop and in
//! CI. The gate compares per-access ratios by u128 cross-multiplication
//! (`measured.counter * committed.accesses == committed.counter *
//! measured.accesses`), so committed and fresh runs may use different
//! iteration counts but must agree *exactly* — no tolerance, no
//! floating point. A drift means the protocol changed (a new message, a
//! lost cache hit), which is a finding, not noise.
//!
//! `--transport=http` measures the cross-process row family: the same
//! two saturation modes, but every Host↔AM↔Requester message crosses
//! loopback TCP through the hand-rolled HTTP/1.1 codec
//! (`ucam_webenv::HttpTransport`, DESIGN.md §14–15). Rows land in
//! `BENCH_PR2.json` as `phase6_warm_http` / `full_flow_http` next to
//! the in-process family; each sweep preserves the other family's
//! committed rows, so the two can be refreshed independently. The
//! protocol-v2 storm family (`storm_*` / `reval_*`, from `sim::storm`)
//! rides in the same report: the full sweep regenerates it, `--storm`
//! refreshes it alone, and `--check`'s Gate 6 holds the invalidation
//! push to its ≥90% cold-miss-storm cut, the `If-Epoch` conditional
//! exchange to strictly fewer wire bytes than the unconditional one,
//! and the committed counts to the live run exactly. The
//! committed cross-process rows are gated by `--check` (and by the
//! release-mode `--check-http` CI lane): single-thread throughput must
//! hold ≥ [`HTTP_SPEEDUP_FLOOR`]× the PR 8 baseline, the 4-thread p50
//! must stay within [`HTTP_P50_RATIO_CEILING`]× the single-thread p50,
//! and the work counts — `bytes_on_wire` included — must be bit-exact
//! across backends and against the committed rows.

use ucam::sim::population::{run_population_scale, PopulationScaleConfig, PopulationScaleRow};
use ucam::sim::saturation::{
    run_saturation, SaturationConfig, SaturationMode, SaturationRow, TransportKind,
};
use ucam::sim::storm::{run_cold_miss_storm, run_revalidation_probe, StormConfig};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Fraction of the committed single-thread `phase6_warm` throughput the
/// `--check` measurement must reach (the coarse fallback floor).
const CHECK_FLOOR: f64 = 0.70;

/// Fraction of the measured 4-thread `phase6_warm` throughput the
/// measured 8-thread one must reach. The old two-tier-less warm path
/// collapsed to 0.70× here; the lock-free tier-1 measures ≥ 0.90 even
/// in the worst observed scheduler windows, so 0.85 separates the two
/// regimes with margin on both sides.
const SCALING_FLOOR: f64 = 0.85;

/// The checked-in measurement history (JSON lines, newest last).
const HISTORY_FILE: &str = "BENCH_HISTORY.jsonl";

/// History points needed before the variance-derived gate activates.
const MIN_HISTORY_POINTS: usize = 3;

/// Runs per committed row / per `--check` measurement; the max wins.
const FULL_ATTEMPTS: usize = 5;

/// Fraction of the committed smoke-shape `population_scale` throughput
/// the `--check` measurement must reach. Looser than [`CHECK_FLOOR`]:
/// the population run is measured once (it is setup-dominated, so
/// best-of-N would mostly re-pay setup), which leaves it exposed to a
/// single bad scheduler window.
const POPULATION_FLOOR: f64 = 0.30;

/// Ceiling on the *committed* 8-thread `full_flow` p99 in
/// `BENCH_PR2.json`. Committed latencies are min-over-attempts (see
/// `SaturationRow::merge_best`), so this pins the best window the full
/// sweep could find: under the old convoying AM every window measured
/// ≥ 16,000µs and no committable report could pass; the sharded AM
/// finds a sub-millisecond window even on a busy machine.
const FULL_FLOW_8T_P99_CEILING_US: f64 = 2_000.0;

/// Ceiling on the freshly measured 8-thread `full_flow` p95 (minimum
/// over [`FULL_ATTEMPTS`] runs). The p95 — not the p99 — is the robust
/// live gauge on an oversubscribed box: OS preemption charges a full
/// scheduling quantum to the ~1% of sampled accesses that straddle a
/// descheduling, whipsawing the p99 between clean and quantum-sized
/// from window to window, while a genuine lock convoy stalls every
/// thread behind the preempted holder and drags the p95 into the
/// milliseconds too.
const FULL_FLOW_8T_P95_CEILING_US: f64 = 2_000.0;

/// The `(population, hosts)` shape of the smoke-sized population point
/// used by `--check` and `--append-history` — the second point of
/// [`POPULATION_CURVE`], so the committed row it gates always exists.
const POPULATION_SMOKE: (usize, usize) = (10_000, 256);

/// The full-sweep load curves: population 10³ → 10⁶ at a fixed 256-Host
/// fabric, then Host-count 64 → 512 at a fixed 10⁵-entity population.
const POPULATION_CURVE: [(usize, usize); 6] = [
    (1_000, 256),
    (10_000, 256),
    (100_000, 256),
    (1_000_000, 256),
    (100_000, 64),
    (100_000, 512),
];

/// Finds the row starting at `row_key` in a report document and parses
/// the numeric `field` that follows it. Hand-rolled on purpose: the root
/// package takes no JSON dependency, and the row formats are fixed
/// (emitted by `SaturationRow::to_json` / `PopulationScaleRow::to_json`).
fn row_field(report: &str, row_key: &str, field: &str) -> Option<f64> {
    let row_at = report.find(row_key)? + row_key.len();
    let rest = &report[row_at..];
    let field_key = format!("\"{field}\":");
    let value_at = rest.find(&field_key)? + field_key.len();
    let value = &rest[value_at..];
    let end = value.find([',', '}'])?;
    value[..end].trim().parse().ok()
}

/// Like [`row_field`], but parses an exact integer — the work-count gate
/// must not round-trip counters through floating point.
fn row_field_u64(report: &str, row_key: &str, field: &str) -> Option<u64> {
    let row_at = report.find(row_key)? + row_key.len();
    let rest = &report[row_at..];
    let field_key = format!("\"{field}\":");
    let value_at = rest.find(&field_key)? + field_key.len();
    let value = &rest[value_at..];
    let end = value.find([',', '}'])?;
    value[..end].trim().parse().ok()
}

/// Splits a committed `BENCH_PR2.json` into its row lines. The format is
/// fixed — one JSON object per line, written by this tool — so a line
/// starting with `{` is a row; a trailing comma is the array separator.
fn report_rows(doc: &str) -> Vec<String> {
    doc.lines()
        .map(str::trim)
        .filter(|line| line.starts_with('{'))
        .map(|line| line.trim_end_matches(',').to_owned())
        .collect()
}

/// Whether a report row belongs to the cross-process (loopback HTTP)
/// family — `phase6_warm_http` / `full_flow_http`.
fn is_http_row(row: &str) -> bool {
    row.contains("_http\",")
}

/// Whether a report row belongs to the protocol-v2 storm family —
/// `storm_*` / `reval_*` (see `sim::storm` and DESIGN.md §16).
fn is_storm_row(row: &str) -> bool {
    row.contains("\"bench\":\"storm_") || row.contains("\"bench\":\"reval_")
}

/// Writes `BENCH_PR2.json` from pre-serialised row lines.
fn write_report(row_jsons: &[String]) {
    let mut doc = String::from("[\n");
    for (i, row) in row_jsons.iter().enumerate() {
        doc.push_str("  ");
        doc.push_str(row);
        if i + 1 < row_jsons.len() {
            doc.push(',');
        }
        doc.push('\n');
    }
    doc.push_str("]\n");
    std::fs::write("BENCH_PR2.json", &doc).expect("write BENCH_PR2.json");
    println!("\nwrote BENCH_PR2.json ({} rows)", row_jsons.len());
}

/// Gates the measured work counts of one saturation row against the
/// committed row of the same shape, exactly. Committed and measured runs
/// may use different iteration counts, so each counter is compared
/// per-access by u128 cross-multiplication — integer, tolerance-free,
/// machine-independent. Returns `false` (after explaining) on any drift.
fn check_work_counts(report: &str, measured: &SaturationRow) -> bool {
    let row_key = format!(
        "\"bench\":\"{}\",\"threads\":{},",
        measured.bench, measured.threads
    );
    let Some(committed_accesses) = row_field_u64(report, &row_key, "accesses") else {
        eprintln!(
            "--check: no work counts for {}/threads={} in BENCH_PR2.json — \
             regenerate the report with this binary",
            measured.bench, measured.threads
        );
        return false;
    };
    let counters: [(&str, u64); 5] = [
        ("wire_rts", measured.work.wire_rts),
        ("bytes_on_wire", measured.work.bytes_on_wire),
        ("sieve_hits", measured.work.sieve_hits),
        ("cache_hits", measured.work.cache_hits),
        ("am_queries", measured.work.am_queries),
    ];
    let mut ok = true;
    for (name, fresh) in counters {
        let Some(committed) = row_field_u64(report, &row_key, name) else {
            eprintln!(
                "--check: no {name} count for {}/threads={} in BENCH_PR2.json",
                measured.bench, measured.threads
            );
            ok = false;
            continue;
        };
        // fresh/measured.accesses must equal committed/committed_accesses.
        let lhs = u128::from(fresh) * u128::from(committed_accesses);
        let rhs = u128::from(committed) * u128::from(measured.work.accesses);
        if lhs != rhs {
            eprintln!(
                "--check: WORK DRIFT: {}/threads={} measured {fresh} {name} over {} accesses; \
                 the committed row did {committed} over {committed_accesses} — the protocol \
                 is doing different work per access than the committed baseline",
                measured.bench, measured.threads, measured.work.accesses
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "bench-smoke: {}/threads={} work counts match the committed row exactly \
             ({} rts, {} wire bytes, {} sieve hits, {} cache hits, {} AM queries per \
             {} accesses)",
            measured.bench,
            measured.threads,
            measured.work.wire_rts,
            measured.work.bytes_on_wire,
            measured.work.sieve_hits,
            measured.work.cache_hits,
            measured.work.am_queries,
            measured.work.accesses
        );
    }
    ok
}

/// Extracts `reqs_per_sec` for the `phase6_warm` row at `threads` from a
/// report document.
fn phase6_warm_throughput(report: &str, threads: usize) -> Option<f64> {
    let row_key = format!("\"bench\":\"phase6_warm\",\"threads\":{threads},");
    row_field(report, &row_key, "reqs_per_sec")
}

/// Extracts `reqs_per_sec` for the `population_scale` row at
/// `(population, hosts)` from a report document.
fn population_throughput(report: &str, population: usize, hosts: usize) -> Option<f64> {
    let row_key =
        format!("\"bench\":\"population_scale\",\"population\":{population},\"hosts\":{hosts},");
    row_field(report, &row_key, "reqs_per_sec")
}

/// Parses every `phase6_warm` throughput at `threads` recorded in the
/// history file (one JSON row per line; other thread counts' lines are
/// skipped).
fn history_throughputs(doc: &str, threads: usize) -> Vec<f64> {
    doc.lines()
        .filter_map(|line| phase6_warm_throughput(line, threads))
        .collect()
}

/// The variance-derived floor: `mean − 3σ` over the recorded history,
/// available once [`MIN_HISTORY_POINTS`] measurements exist.
fn variance_floor(history: &[f64]) -> Option<f64> {
    if history.len() < MIN_HISTORY_POINTS {
        return None;
    }
    let n = history.len() as f64;
    let mean = history.iter().sum::<f64>() / n;
    let var = history.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    Some(mean - 3.0 * var.sqrt())
}

/// Measures one configuration `attempts` times and folds the attempts
/// with `SaturationRow::merge_best`: max throughput, min latency per
/// percentile. Noise on a shared machine is one-sided — preemption and
/// quota throttling only ever slow a run down — so the per-field best
/// is the stable estimator.
fn measure_best(
    mode: SaturationMode,
    transport: TransportKind,
    threads: usize,
    iters: usize,
    attempts: usize,
) -> SaturationRow {
    let mut best: Option<SaturationRow> = None;
    for _ in 0..attempts {
        let row = run_saturation(&SaturationConfig {
            threads,
            iters_per_thread: iters,
            mode,
            transport,
        });
        match &mut best {
            Some(b) => b.merge_best(&row),
            None => best = Some(row),
        }
    }
    best.expect("at least one attempt")
}

/// Measures one `phase6_warm` point at `threads` (best of
/// [`FULL_ATTEMPTS`], 20k iterations per thread).
fn measure_phase6_warm(threads: usize) -> SaturationRow {
    measure_best(
        SaturationMode::Phase6Warm,
        TransportKind::Sim,
        threads,
        20_000,
        FULL_ATTEMPTS,
    )
}

/// Measures one `population_scale` point. Single run: the cost is
/// dominated by the streamed setup, which is deterministic, so repeats
/// would mostly re-pay registration for the same answer.
fn measure_population(population: usize, hosts: usize, accesses: usize) -> PopulationScaleRow {
    let row = run_population_scale(&PopulationScaleConfig {
        population,
        hosts,
        accesses,
        ..PopulationScaleConfig::default()
    });
    println!(
        "population_scale pop={:<8} hosts={:<4} {:>8.0} req/s  p50 {:>7.2} µs  \
         p99 {:>8.2} µs  setup {:>7.0} ents/s  {} pushes",
        row.population,
        row.hosts,
        row.reqs_per_sec,
        row.p50_us,
        row.p99_us,
        row.setup_eps,
        row.push_deliveries
    );
    row
}

/// Measures the 8-thread `full_flow` tail: best-of-[`FULL_ATTEMPTS`]
/// per field (see [`FULL_FLOW_8T_P95_CEILING_US`] for why the p95 is
/// the gated one).
fn measure_full_flow_8t() -> SaturationRow {
    measure_best(
        SaturationMode::FullFlow,
        TransportKind::Sim,
        8,
        4_000,
        FULL_ATTEMPTS,
    )
}

/// Iterations per thread for the cross-process sweep. Loopback TCP costs
/// tens of microseconds per round trip where `SimNet` costs none, so the
/// HTTP family runs shorter loops — throughput stabilises long before
/// the in-process iteration counts would finish.
const HTTP_PHASE6_ITERS: usize = 5_000;
const HTTP_FULL_FLOW_ITERS: usize = 500;

/// Attempts per cross-process row. The HTTP windows are short (a few
/// tens of milliseconds at the warm 1T point), so any background
/// process sharing the box can eat a whole attempt; five windows give
/// the per-field-best merge enough quiet ones to find the fabric's
/// real ceiling.
const HTTP_ATTEMPTS: usize = 5;

/// The PR 8 committed single-thread `phase6_warm_http` throughput — the
/// thread-per-connection, alloc-per-message transport this PR replaces.
/// Hard-coded (not read from the report) so the fast-path gate keeps
/// meaning even after the committed rows are refreshed.
const PR8_HTTP_BASELINE_RPS: f64 = 95_076.3;

/// The committed single-thread `phase6_warm_http` row must reach this
/// multiple of [`PR8_HTTP_BASELINE_RPS`] — the tentpole's ≥2.5× speedup
/// (≤4× tax versus the ~11× PR 8 started from).
const HTTP_SPEEDUP_FLOOR: f64 = 2.5;

/// The committed 4-thread `phase6_warm_http` p50 must stay within this
/// multiple of the committed single-thread p50 — after scaling by the
/// time-sharing factor the measuring box imposed (see
/// [`check_http_committed`]). A server that answers each pipelined
/// request with its own write wakes the client once per response, and
/// its p50 grows superlinearly going 1→4 threads; coalescing every
/// response one read produced into one write keeps multi-thread latency
/// at the scheduler's unavoidable share.
const HTTP_P50_RATIO_CEILING: f64 = 1.5;

/// Cached permits primed for the storm rows — the ISSUE's "owner with
/// ≥100 cached permits" shape, matched by `sim::storm`'s own tests so
/// the committed rows and the test assertions describe the same run.
const STORM_RESOURCES: usize = 120;

/// Measures the protocol-v2 storm row family (`sim::storm`): the
/// cold-miss storm with and without decision-level invalidation push,
/// and the TTL-revalidation wave with and without `If-Epoch` conditional
/// queries. Pure work-count rows — deterministic for the shape, no
/// best-of-N folding needed.
fn measure_storm_rows() -> Vec<String> {
    let mut rows = Vec::new();
    for invalidation in [false, true] {
        let row = run_cold_miss_storm(&StormConfig {
            transport: TransportKind::Sim,
            invalidation,
            resources: STORM_RESOURCES,
        });
        println!(
            "{:<20} resources={:<4} {:>4} AM queries  {:>4} cache hits  {:>7} wire bytes",
            row.bench, row.resources, row.am_queries, row.cache_hits, row.bytes_on_wire
        );
        rows.push(row.to_json());
    }
    for conditional in [false, true] {
        let row = run_revalidation_probe(TransportKind::Sim, conditional);
        println!(
            "{:<20} resources={:<4} {:>4} AM queries  {:>4} unchanged   {:>7} wire bytes",
            row.bench,
            row.resources,
            row.am_queries,
            row.revalidations_unchanged,
            row.bytes_on_wire
        );
        rows.push(row.to_json());
    }
    rows
}

/// Refreshes only the storm row family in `BENCH_PR2.json`, preserving
/// every other committed row. Returns the process exit code.
fn storm_sweep() -> i32 {
    let existing = std::fs::read_to_string("BENCH_PR2.json").unwrap_or_default();
    let mut row_jsons: Vec<String> = report_rows(&existing)
        .into_iter()
        .filter(|row| !is_storm_row(row))
        .collect();
    if row_jsons.is_empty() {
        eprintln!(
            "--storm: BENCH_PR2.json has no committed rows to preserve — \
             run the full sweep first"
        );
        return 1;
    }
    row_jsons.extend(measure_storm_rows());
    write_report(&row_jsons);
    0
}

/// Gate 6: the protocol-v2 invalidation and conditional-query economics
/// (DESIGN.md §16). Both probes are pure work-count measurements, so
/// they run live on every check — no machine-dependent floors — and the
/// committed storm rows must match the live counts exactly:
///
/// * after one single-grant policy edit against [`STORM_RESOURCES`]
///   cached permits, the invalidation-push wave must send ≤10% of the
///   epoch-only wave's AM decision queries (the ISSUE's ≥90% cut), and
/// * the conditional (`If-Epoch`) revalidation wave must put strictly
///   fewer bytes on the wire than the unconditional one.
fn check_storm(report: &str) -> bool {
    let storm = |invalidation| {
        run_cold_miss_storm(&StormConfig {
            transport: TransportKind::Sim,
            invalidation,
            resources: STORM_RESOURCES,
        })
    };
    let epoch_only = storm(false);
    let invalidation = storm(true);
    println!(
        "bench-smoke: storm wave over {STORM_RESOURCES} permits  epoch-only {} AM queries  \
         invalidation-push {} AM queries ({} exact evictions)",
        epoch_only.am_queries, invalidation.am_queries, invalidation.invalidated_evictions
    );
    if invalidation.am_queries * 10 > epoch_only.am_queries {
        eprintln!(
            "--check: REGRESSION: invalidation push no longer cuts the cold-miss storm \
             ≥90%: {} vs {} AM queries over {STORM_RESOURCES} permits",
            invalidation.am_queries, epoch_only.am_queries
        );
        return false;
    }
    let unconditional = run_revalidation_probe(TransportKind::Sim, false);
    let conditional = run_revalidation_probe(TransportKind::Sim, true);
    println!(
        "bench-smoke: revalidation wave over {} permits  unconditional {} wire bytes  \
         conditional {} wire bytes ({} unchanged replies)",
        conditional.resources,
        unconditional.bytes_on_wire,
        conditional.bytes_on_wire,
        conditional.revalidations_unchanged
    );
    if conditional.bytes_on_wire >= unconditional.bytes_on_wire {
        eprintln!(
            "--check: REGRESSION: conditional revalidation stopped saving wire bytes: \
             {} vs {} — the If-Epoch exchange must be strictly smaller",
            conditional.bytes_on_wire, unconditional.bytes_on_wire
        );
        return false;
    }
    // The committed storm rows must describe exactly the run just
    // measured — these counts are deterministic, so any drift means the
    // v2 protocol changed without regenerating the report (--storm).
    let committed_checks: [(&str, [(&str, u64); 3]); 4] = [
        (
            &epoch_only.bench,
            [
                ("am_queries", epoch_only.am_queries),
                ("cache_hits", epoch_only.cache_hits),
                ("bytes_on_wire", epoch_only.bytes_on_wire),
            ],
        ),
        (
            &invalidation.bench,
            [
                ("am_queries", invalidation.am_queries),
                ("invalidated_evictions", invalidation.invalidated_evictions),
                ("bytes_on_wire", invalidation.bytes_on_wire),
            ],
        ),
        (
            &unconditional.bench,
            [
                ("am_queries", unconditional.am_queries),
                ("revalidations", unconditional.revalidations),
                ("bytes_on_wire", unconditional.bytes_on_wire),
            ],
        ),
        (
            &conditional.bench,
            [
                ("am_queries", conditional.am_queries),
                (
                    "revalidations_unchanged",
                    conditional.revalidations_unchanged,
                ),
                ("bytes_on_wire", conditional.bytes_on_wire),
            ],
        ),
    ];
    let mut ok = true;
    for (bench, counters) in committed_checks {
        let row_key = format!("\"bench\":\"{bench}\",");
        for (name, fresh) in counters {
            match row_field_u64(report, &row_key, name) {
                None => {
                    eprintln!(
                        "--check: no {name} count for {bench} in BENCH_PR2.json — \
                         refresh the storm rows with --storm"
                    );
                    ok = false;
                }
                Some(committed) if committed != fresh => {
                    eprintln!(
                        "--check: WORK DRIFT: {bench} measured {fresh} {name}; the committed \
                         row says {committed} — the v2 protocol is doing different work \
                         than the committed baseline (refresh with --storm if intended)"
                    );
                    ok = false;
                }
                Some(_) => {}
            }
        }
    }
    ok
}

/// Gates the committed cross-process rows in `BENCH_PR2.json`: the
/// single-thread fast-path speedup and the multi-thread p50 sanity
/// ratio. Committed-rows-only on purpose — live loopback latency on a
/// shared CI box is too noisy to gate, but the committed rows are
/// best-of-attempts measurements the submitter stands behind.
fn check_http_committed(report: &str) -> bool {
    let key = |threads: usize| format!("\"bench\":\"phase6_warm_http\",\"threads\":{threads},");
    let Some(one_t_rps) = row_field(report, &key(1), "reqs_per_sec") else {
        eprintln!("--check: no phase6_warm_http/threads=1 row in BENCH_PR2.json");
        return false;
    };
    let floor = PR8_HTTP_BASELINE_RPS * HTTP_SPEEDUP_FLOOR;
    println!(
        "bench-smoke: committed phase6_warm_http threads=1  {one_t_rps:>9.0} req/s  \
         (floor {floor:.0} req/s = {HTTP_SPEEDUP_FLOOR}x the PR 8 baseline)"
    );
    if one_t_rps < floor {
        eprintln!(
            "--check: REGRESSION: committed phase6_warm_http @1T ({one_t_rps:.0} req/s) is \
             below {HTTP_SPEEDUP_FLOOR}x the PR 8 baseline of {PR8_HTTP_BASELINE_RPS:.0} req/s \
             — the HTTP fast path lost its speedup"
        );
        return false;
    }
    let (Some(p50_1t), Some(p50_4t)) = (
        row_field(report, &key(1), "p50_us"),
        row_field(report, &key(4), "p50_us"),
    ) else {
        eprintln!("--check: missing phase6_warm_http p50 rows in BENCH_PR2.json");
        return false;
    };
    // On a box with fewer than 4 cores, 4 always-busy clients time-share
    // the machine and per-access sojourn grows by `threads / cores` even
    // with a perfect transport (Little's law: N in flight at fixed
    // aggregate throughput). The ceiling therefore scales by the
    // oversubscription the *measuring* box imposed — recorded in the
    // committed row — and reduces to the bare ratio on a ≥4-core runner.
    let cores = row_field(report, &key(4), "cores").map_or(4.0, |c| c.max(1.0));
    let oversubscription = (4.0 / cores.min(4.0)).max(1.0);
    let ceiling = HTTP_P50_RATIO_CEILING * oversubscription;
    println!(
        "bench-smoke: committed phase6_warm_http p50  1T {p50_1t:.2} µs  4T {p50_4t:.2} µs  \
         (ceiling {ceiling}x = {HTTP_P50_RATIO_CEILING}x sane-ratio x {oversubscription}x \
         time-sharing on a {cores}-core measuring box)"
    );
    if p50_4t > p50_1t * ceiling {
        eprintln!(
            "--check: REGRESSION: committed phase6_warm_http p50 climbs from {p50_1t:.2} µs \
             @1T to {p50_4t:.2} µs @4T (> {ceiling}x) — the multi-thread \
             latency inversion is back"
        );
        return false;
    }
    true
}

/// The `--check-http` gate for the release-mode `transport-http` CI job:
/// the committed cross-process gates plus a live, bit-exact work-count
/// identity check — the same smoke-sized configuration run on both
/// backends must produce *equal* [`ucam::sim::saturation::WorkCounts`]
/// (bytes_on_wire included), and the HTTP run's per-access counts must
/// match the committed `*_http` rows exactly. No live latency or
/// throughput floors here: wall-clock on a shared runner is noise, the
/// counts are not.
fn check_http() -> i32 {
    let report = match std::fs::read_to_string("BENCH_PR2.json") {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("--check-http: cannot read BENCH_PR2.json: {err}");
            return 1;
        }
    };
    if !check_http_committed(&report) {
        return 1;
    }
    for (mode, iters) in [
        (SaturationMode::Phase6Warm, 300),
        (SaturationMode::FullFlow, 40),
    ] {
        let config = |transport| SaturationConfig {
            threads: 2,
            iters_per_thread: iters,
            mode,
            transport,
        };
        let sim = run_saturation(&config(TransportKind::Sim));
        let http = run_saturation(&config(TransportKind::Http));
        if sim.work != http.work {
            eprintln!(
                "--check-http: WORK DRIFT between backends for {}/threads=2: \
                 sim {:?} vs http {:?}",
                sim.bench, sim.work, http.work
            );
            return 1;
        }
        println!(
            "transport-http: {} work counts identical across backends \
             ({} rts, {} wire bytes per {} accesses)",
            http.bench, http.work.wire_rts, http.work.bytes_on_wire, http.work.accesses
        );
        if !check_work_counts(&report, &http) {
            return 1;
        }
    }
    println!("transport-http: ok");
    0
}

/// Measures the cross-process (loopback HTTP) row family and rewrites
/// `BENCH_PR2.json`, preserving the committed in-process and population
/// rows untouched. Returns the process exit code.
fn http_sweep() -> i32 {
    let mut rows: Vec<SaturationRow> = Vec::new();
    for mode in [SaturationMode::Phase6Warm, SaturationMode::FullFlow] {
        for threads in THREAD_COUNTS {
            let iters = match mode {
                SaturationMode::Phase6Warm => HTTP_PHASE6_ITERS,
                SaturationMode::FullFlow => HTTP_FULL_FLOW_ITERS,
            };
            let row = measure_best(mode, TransportKind::Http, threads, iters, HTTP_ATTEMPTS);
            println!(
                "{:<16} threads={:<2} {:>9.0} req/s  p50 {:>8.2} µs  p95 {:>8.2} µs  \
                 p99 {:>9.2} µs  {:>8} rts",
                row.bench,
                row.threads,
                row.reqs_per_sec,
                row.p50_us,
                row.p95_us,
                row.p99_us,
                row.work.wire_rts
            );
            rows.push(row);
        }
    }
    let existing = std::fs::read_to_string("BENCH_PR2.json").unwrap_or_default();
    let mut row_jsons: Vec<String> = report_rows(&existing)
        .into_iter()
        .filter(|row| !is_http_row(row))
        .collect();
    if row_jsons.is_empty() {
        eprintln!(
            "--transport=http: BENCH_PR2.json has no in-process rows to preserve — \
             run the full sweep first"
        );
        return 1;
    }
    row_jsons.extend(rows.iter().map(SaturationRow::to_json));
    write_report(&row_jsons);
    0
}

/// Appends the 1/4/8-thread `phase6_warm` measurements to the history
/// file. Returns the exit code.
fn append_history() -> i32 {
    let mut lines = String::new();
    for threads in [1, 4, 8] {
        let row = measure_phase6_warm(threads);
        println!(
            "bench-history: recording phase6_warm threads={threads}  {:.0} req/s",
            row.reqs_per_sec
        );
        lines.push_str(&row.to_json());
        lines.push('\n');
    }
    // The cross-process family rides along at the same thread counts,
    // so the mean−3σ floor starts accumulating for the HTTP backend too.
    for threads in [1, 4, 8] {
        let row = measure_best(
            SaturationMode::Phase6Warm,
            TransportKind::Http,
            threads,
            HTTP_PHASE6_ITERS,
            HTTP_ATTEMPTS,
        );
        println!(
            "bench-history: recording phase6_warm_http threads={threads}  {:.0} req/s",
            row.reqs_per_sec
        );
        lines.push_str(&row.to_json());
        lines.push('\n');
    }
    let (population, hosts) = POPULATION_SMOKE;
    let row = measure_population(population, hosts, 20_000);
    lines.push_str(&row.to_json());
    lines.push('\n');
    let existing = std::fs::read_to_string(HISTORY_FILE).unwrap_or_default();
    if let Err(err) = std::fs::write(HISTORY_FILE, existing + &lines) {
        eprintln!("--append-history: cannot write {HISTORY_FILE}: {err}");
        return 1;
    }
    let doc = std::fs::read_to_string(HISTORY_FILE).unwrap_or_default();
    println!(
        "bench-history: {} single-thread point(s), {} eight-thread point(s) total",
        history_throughputs(&doc, 1).len(),
        history_throughputs(&doc, 8).len()
    );
    0
}

/// Runs the regression gate. Returns the process exit code.
fn check() -> i32 {
    let report = match std::fs::read_to_string("BENCH_PR2.json") {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("--check: cannot read BENCH_PR2.json: {err}");
            return 1;
        }
    };
    let Some(baseline) = phase6_warm_throughput(&report, 1) else {
        eprintln!("--check: no phase6_warm/threads=1 row in BENCH_PR2.json");
        return 1;
    };

    // Gate 1: the single-thread ceiling against its floor.
    let row = measure_phase6_warm(1);
    let fallback_floor = baseline * CHECK_FLOOR;
    let history = history_throughputs(
        &std::fs::read_to_string(HISTORY_FILE).unwrap_or_default(),
        1,
    );
    // The gate only ever tightens: the variance floor applies when it is
    // stricter than the blanket 70% allowance, never to loosen it.
    let (floor, rule) = match variance_floor(&history) {
        Some(vf) if vf > fallback_floor => (vf, "mean - 3 sigma over history"),
        _ => (fallback_floor, "70% of committed baseline"),
    };
    println!(
        "bench-smoke: phase6_warm threads=1  measured {:>10.0} req/s  \
         baseline {:>10.0} req/s  floor {:>10.0} req/s  ({} history points, rule: {})",
        row.reqs_per_sec,
        baseline,
        floor,
        history.len(),
        rule
    );
    if row.reqs_per_sec < floor {
        eprintln!(
            "--check: REGRESSION: {:.0} req/s is below the {rule} floor of {:.0} req/s",
            row.reqs_per_sec, floor
        );
        return 1;
    }

    // Gate 1b: the work behind that throughput, exactly. Wall-clock
    // floors bend to the machine; the message/cache/sieve counts do not.
    if !check_work_counts(&report, &row) {
        return 1;
    }

    // Gate 2a: the committed trajectory itself must be monotone in
    // threads up to measurement noise — the 8T cliff must never be
    // committed again. At the ~1M req/s single-core ceiling adjacent
    // thread counts land within a few percent of each other, so a small
    // tolerance keeps honest full-sweep commits from failing on jitter;
    // the cliff this guards against was a 30–45% collapse.
    const MONOTONE_TOLERANCE: f64 = 0.95;
    let mut prev: Option<(usize, f64)> = None;
    for threads in THREAD_COUNTS {
        let Some(throughput) = phase6_warm_throughput(&report, threads) else {
            eprintln!("--check: no phase6_warm/threads={threads} row in BENCH_PR2.json");
            return 1;
        };
        if let Some((prev_threads, prev_throughput)) = prev {
            if throughput < prev_throughput * MONOTONE_TOLERANCE {
                eprintln!(
                    "--check: REGRESSION: committed phase6_warm drops from \
                     {prev_throughput:.0} req/s @{prev_threads}T to {throughput:.0} req/s \
                     @{threads}T — the warm path stopped scaling"
                );
                return 1;
            }
        }
        prev = Some((threads, throughput));
    }
    println!(
        "bench-smoke: committed phase6_warm monotone (±{:.0}%) across {THREAD_COUNTS:?} threads",
        (1.0 - MONOTONE_TOLERANCE) * 100.0
    );

    // Gate 2b: re-measure the scaling edge. 8T must hold SCALING_FLOOR
    // of 4T on this machine, whatever the committed numbers say.
    let four = measure_phase6_warm(4);
    let eight = measure_phase6_warm(8);
    println!(
        "bench-smoke: phase6_warm threads=4  measured {:>10.0} req/s; \
         threads=8  measured {:>10.0} req/s  (floor {:.0}% of 4T)",
        four.reqs_per_sec,
        eight.reqs_per_sec,
        SCALING_FLOOR * 100.0
    );
    if eight.reqs_per_sec < four.reqs_per_sec * SCALING_FLOOR {
        eprintln!(
            "--check: REGRESSION: phase6_warm @8T ({:.0} req/s) fell below {:.0}% of @4T \
             ({:.0} req/s) — the 8-thread cliff is back",
            eight.reqs_per_sec,
            SCALING_FLOOR * 100.0,
            four.reqs_per_sec
        );
        return 1;
    }

    // Gate 3a: the committed 8-thread full-flow p99 ceiling. Committed
    // latencies are min-over-attempts, so this asserts the full sweep
    // found at least one window where the whole protocol tail fits in
    // the ceiling — impossible while any convoy serializes the path.
    let Some(committed_p99) =
        row_field(&report, "\"bench\":\"full_flow\",\"threads\":8,", "p99_us")
    else {
        eprintln!("--check: no full_flow/threads=8 row in BENCH_PR2.json");
        return 1;
    };
    println!(
        "bench-smoke: committed full_flow threads=8 p99 {committed_p99:>8.2} µs  \
         (ceiling {FULL_FLOW_8T_P99_CEILING_US:.0} µs)"
    );
    if committed_p99 >= FULL_FLOW_8T_P99_CEILING_US {
        eprintln!(
            "--check: REGRESSION: committed full_flow @8T p99 is {committed_p99:.0} µs — \
             no committable window fits the tail ceiling"
        );
        return 1;
    }

    // Gate 3b: the live structural-contention check, on the p95 (the
    // preemption-robust percentile — see FULL_FLOW_8T_P95_CEILING_US).
    let tail = measure_full_flow_8t();
    println!(
        "bench-smoke: full_flow threads=8  best-of-{FULL_ATTEMPTS} p95 {:>8.2} µs  \
         p99 {:>8.2} µs  (p95 ceiling {FULL_FLOW_8T_P95_CEILING_US:.0} µs)",
        tail.p95_us, tail.p99_us
    );
    if tail.p95_us >= FULL_FLOW_8T_P95_CEILING_US {
        eprintln!(
            "--check: REGRESSION: full_flow @8T p95 is at least {:.0} µs in every window — \
             contention is back on the full protocol path",
            tail.p95_us
        );
        return 1;
    }

    // Gate 3c: the full-protocol work counts, exactly — the whole
    // phase-3→6 message budget per access, pinned.
    if !check_work_counts(&report, &tail) {
        return 1;
    }

    // Gate 4: the population engine. One smoke-sized point (the
    // full-sweep curve is far too slow for a gate), held against the
    // committed same-shape row.
    let (population, hosts) = POPULATION_SMOKE;
    let Some(committed) = population_throughput(&report, population, hosts) else {
        eprintln!(
            "--check: no population_scale pop={population}/hosts={hosts} row in BENCH_PR2.json"
        );
        return 1;
    };
    let row = measure_population(population, hosts, 20_000);
    let floor = committed * POPULATION_FLOOR;
    println!(
        "bench-smoke: population_scale pop={population} hosts={hosts}  measured {:>8.0} req/s  \
         committed {:>8.0} req/s  floor {:>8.0} req/s",
        row.reqs_per_sec, committed, floor
    );
    if row.reqs_per_sec < floor {
        eprintln!(
            "--check: REGRESSION: population_scale {:.0} req/s is below {:.0}% of the \
             committed {:.0} req/s",
            row.reqs_per_sec,
            POPULATION_FLOOR * 100.0,
            committed
        );
        return 1;
    }
    // Gate 5: the cross-process family. Committed rows only (live
    // loopback latency is runner noise): the HTTP fast path must keep
    // its ≥2.5x speedup over the PR 8 baseline and its monotone-sane
    // multi-thread p50.
    if !check_http_committed(&report) {
        return 1;
    }
    // Gate 6: the protocol-v2 economics — invalidation push must keep
    // killing the cold-miss storm, conditional queries must keep saving
    // wire bytes, and the committed storm rows must match the live
    // counts exactly.
    if !check_storm(&report) {
        return 1;
    }
    println!("bench-smoke: ok");
    0
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        std::process::exit(check());
    }
    if std::env::args().any(|a| a == "--check-http") {
        std::process::exit(check_http());
    }
    if std::env::args().any(|a| a == "--append-history") {
        std::process::exit(append_history());
    }
    if std::env::args().any(|a| a == "--transport=http") {
        std::process::exit(http_sweep());
    }
    if std::env::args().any(|a| a == "--storm") {
        std::process::exit(storm_sweep());
    }
    if std::env::args().any(|a| a == "--check-storm") {
        // Gate 6 alone: pure work counts, machine-independent, cheap —
        // the CI lane for the v2 economics that needs no quiet box.
        let report = match std::fs::read_to_string("BENCH_PR2.json") {
            Ok(doc) => doc,
            Err(err) => {
                eprintln!("--check-storm: cannot read BENCH_PR2.json: {err}");
                std::process::exit(1);
            }
        };
        if !check_storm(&report) {
            std::process::exit(1);
        }
        println!("check-storm: ok");
        std::process::exit(0);
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let attempts = if quick { 1 } else { FULL_ATTEMPTS };
    // The warm loop is sub-microsecond per access, so it needs long runs
    // to amortise fixed per-thread costs (spawn, barrier wake-up) that
    // would otherwise read as a fake multi-thread penalty; the full flow
    // is ~35µs per access and already run-dominated at 4k.
    let phase6_iters = if quick { 50 } else { 20_000 };
    let full_flow_iters = if quick { 50 } else { 4_000 };

    // Attempts run round-robin across the configurations (not
    // back-to-back per row): machine slowdowns come in windows, and
    // interleaving keeps one bad window from sinking a single row while
    // its neighbours measure fast.
    let configs: Vec<(SaturationMode, usize)> =
        [SaturationMode::Phase6Warm, SaturationMode::FullFlow]
            .into_iter()
            .flat_map(|mode| THREAD_COUNTS.map(|threads| (mode, threads)))
            .collect();
    let mut best: Vec<Option<SaturationRow>> = vec![None; configs.len()];
    for _ in 0..attempts {
        for (slot, &(mode, threads)) in configs.iter().enumerate() {
            let row = run_saturation(&SaturationConfig {
                threads,
                iters_per_thread: match mode {
                    SaturationMode::Phase6Warm => phase6_iters,
                    SaturationMode::FullFlow => full_flow_iters,
                },
                mode,
                transport: TransportKind::Sim,
            });
            match &mut best[slot] {
                Some(b) => b.merge_best(&row),
                None => best[slot] = Some(row),
            }
        }
    }
    let mut rows: Vec<SaturationRow> = best.into_iter().map(|r| r.expect("measured")).collect();

    // Top-up for the gated tail row: --check pins the committed 8T
    // full_flow p99 under FULL_FLOW_8T_P99_CEILING_US, and on a busy
    // machine the interleaved attempts can all land in one loud stretch.
    // Give that row (and only that row) extra windows to find a clean
    // tail; each extra attempt is ~1.5 s. If the ceiling still doesn't
    // clear, commit what was measured — the maintainer reruns on a
    // quieter machine rather than shipping a flattering number.
    if !quick {
        for extra in 0..10 {
            let Some(row) = rows
                .iter_mut()
                .find(|r| r.bench == "full_flow" && r.threads == 8)
            else {
                break;
            };
            if row.p99_us < FULL_FLOW_8T_P99_CEILING_US {
                break;
            }
            println!(
                "full_flow @8T p99 {:.0} µs over the {:.0} µs gate ceiling — extra attempt {}",
                row.p99_us,
                FULL_FLOW_8T_P99_CEILING_US,
                extra + 1
            );
            let attempt = run_saturation(&SaturationConfig {
                threads: 8,
                iters_per_thread: full_flow_iters,
                mode: SaturationMode::FullFlow,
                transport: TransportKind::Sim,
            });
            row.merge_best(&attempt);
        }
    }
    for row in &rows {
        println!(
            "{:<12} threads={:<2} {:>10.0} req/s  p50 {:>8.2} µs  p95 {:>8.2} µs  \
             p99 {:>8.2} µs",
            row.bench, row.threads, row.reqs_per_sec, row.p50_us, row.p95_us, row.p99_us
        );
    }

    // The population load curves: req/s and tail latency versus entity
    // count and versus Host count. Quick keeps one toy-sized point so
    // the engine still runs end-to-end in the smoke lane.
    let curve: Vec<(usize, usize, usize)> = if quick {
        vec![(500, 8, 500)]
    } else {
        POPULATION_CURVE
            .iter()
            .map(|&(population, hosts)| (population, hosts, 20_000))
            .collect()
    };
    let population_rows: Vec<PopulationScaleRow> = curve
        .into_iter()
        .map(|(population, hosts, accesses)| measure_population(population, hosts, accesses))
        .collect();

    if quick {
        println!("\n--quick: skipping BENCH_PR2.json rewrite");
        return;
    }
    // Rewrite the in-process and population rows; carry any committed
    // cross-process (`--transport=http`) rows over unchanged, so the two
    // families can be refreshed independently.
    let existing = std::fs::read_to_string("BENCH_PR2.json").unwrap_or_default();
    let row_jsons: Vec<String> = rows
        .iter()
        .map(SaturationRow::to_json)
        .chain(population_rows.iter().map(PopulationScaleRow::to_json))
        .chain(measure_storm_rows())
        .chain(
            report_rows(&existing)
                .into_iter()
                .filter(|r| is_http_row(r)),
        )
        .collect();
    write_report(&row_jsons);
}
