//! Measures the committed benchmark rows in `BENCH_PR2.json` and gates
//! fresh runs against them.
//!
//! ```sh
//! cargo run --release --example bench_report             # full sweep, rewrites the report
//! cargo run --release --example bench_report -- --check  # the regression gates
//! ```
//!
//! With no argument the tool runs the full sweep, which rewrites every
//! row family but the `*_http` one. `MODES` lists the flags:
//!
//! * `--quick`: the full sweep at smoke size (50 iterations, one toy
//!   population point); writes nothing.
//! * `--check`, `--check-http`, `--check-storm`: the gate lanes (`GATES`).
//! * `--append-history`: appends live 1/4/8-thread `phase6_warm` rows of
//!   both transports and the smoke-sized population row to
//!   `BENCH_HISTORY.jsonl`, the history gate 1 tightens its floor from.
//! * `--transport=http`: refreshes the `*_http` rows.
//! * `--storm`: refreshes the `storm_*`/`reval_*` rows.
//!
//! Any other argument, or more than one, prints the flags and exits 2
//! without measuring. The report holds four row families, one JSON object
//! per line, each written by the simulation crate's `to_json`:
//! `phase6_warm`/`full_flow` at 1/2/4/8 threads (`sim::saturation`), the
//! `population_scale` load curves (`sim::population`, 10³ → 10⁶ entities
//! at 256 Hosts, then 64 → 512 Hosts at 10⁵), the protocol-v2
//! `storm_*`/`reval_*` probes (`sim::storm`), and the loopback-HTTP
//! `*_http` rows. A sweep measures the families its mode names and
//! rewrites their rows where they stand; every other committed row stays
//! byte for byte. Committed saturation rows fold several runs per field
//! (max throughput, min latency per percentile,
//! `SaturationRow::merge_best`): scheduler jitter only ever slows a run
//! down, so the per-field best is the least noisy estimate of what the
//! fabric sustains. Work counts are not folded: they are deterministic
//! per shape, and `merge_best` panics if two attempts disagree.
//!
//! `GATES` is the one description of the regression gates: which lane
//! runs each, which committed rows and live runs it reads, its bound and
//! its check. EXPERIMENTS.md ("CI bench smoke") gives the rationale.

use ucam::sim::population::{run_population_scale, PopulationScaleConfig};
use ucam::sim::saturation::{
    run_saturation, SaturationConfig, SaturationMode, SaturationRow, TransportKind,
};
use ucam::sim::storm::{run_cold_miss_storm, run_revalidation_probe, StormConfig};

/// The committed report.
const REPORT: &str = "BENCH_PR2.json";

/// The checked-in measurement history (JSON lines, newest last).
const HISTORY_FILE: &str = "BENCH_HISTORY.jsonl";

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Iterations per thread of an in-process `phase6_warm` run. The warm
/// loop is sub-microsecond per access, so it needs long runs to amortise
/// fixed per-thread costs (spawn, barrier wake-up) that would otherwise
/// read as a fake multi-thread penalty.
const WARM_ITERS: usize = 20_000;

/// Iterations per thread of an in-process `full_flow` run (~35 µs per
/// access, already run-dominated at this length).
const FLOW_ITERS: usize = 4_000;

/// Runs per committed in-process row and per live gate measurement; the
/// per-field best wins.
const FULL_ATTEMPTS: usize = 5;

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

/// Fraction of the committed single-thread `phase6_warm` throughput the
/// live measurement must reach (gate 1's coarse fallback floor).
const CHECK_FLOOR: f64 = 0.70;

/// History points needed before gate 1's variance-derived floor
/// (`mean − 3σ`) activates.
const MIN_HISTORY_POINTS: usize = 3;

/// Gate 2a: each committed `phase6_warm` row must reach this fraction of
/// the row with half its threads. At the ~1M req/s single-core ceiling
/// adjacent thread counts land within a few percent of each other, so
/// honest sweeps pass; the cliff it guards against was a 30–45% collapse.
const MONOTONE_TOLERANCE: f64 = 0.95;

/// Gate 2b: fraction of the measured 4-thread `phase6_warm` throughput
/// the measured 8-thread one must reach. The old two-tier-less warm path
/// collapsed to 0.70× here; the lock-free tier-1 measures ≥ 0.90 even
/// in the worst observed scheduler windows, so 0.85 separates the two
/// regimes with margin on both sides.
const SCALING_FLOOR: f64 = 0.85;

/// Gate 3a: ceiling on the *committed* 8-thread `full_flow` p99.
/// Committed latencies are min-over-attempts, so this pins the best
/// window the full sweep could find: under the old convoying AM every
/// window measured ≥ 16,000µs and no committable report could pass; the
/// sharded AM finds a sub-millisecond window even on a busy machine.
const FULL_FLOW_8T_P99_CEILING_US: f64 = 2_000.0;

/// Gate 3b: ceiling on the live 8-thread `full_flow` p95 (minimum over
/// [`FULL_ATTEMPTS`] runs). The p95 — not the p99 — is the robust live
/// gauge on an oversubscribed box: OS preemption charges a full
/// scheduling quantum to the ~1% of sampled accesses that straddle a
/// descheduling, whipsawing the p99 between clean and quantum-sized
/// from window to window, while a genuine lock convoy stalls every
/// thread behind the preempted holder and drags the p95 into the
/// milliseconds too.
const FULL_FLOW_8T_P95_CEILING_US: f64 = 2_000.0;

/// Gate 4: fraction of the committed smoke-shape `population_scale`
/// throughput the live point must reach. Looser than [`CHECK_FLOOR`]:
/// the population run is measured once (it is setup-dominated, so
/// best-of-N would mostly re-pay setup), which leaves it exposed to a
/// single bad scheduler window.
const POPULATION_FLOOR: f64 = 0.30;

/// The `(population, hosts)` shape of the smoke-sized population point
/// that gate 4 and `--append-history` measure — the second point of
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

/// The single-thread `phase6_warm_http` throughput first committed for
/// the thread-per-connection, alloc-per-message transport the fast path
/// replaced. Hard-coded (not read from the report) so gate 5a keeps its
/// meaning after the committed rows are refreshed.
const PR8_HTTP_BASELINE_RPS: f64 = 95_076.3;

/// Gate 5a: the committed single-thread `phase6_warm_http` row must reach
/// this multiple of [`PR8_HTTP_BASELINE_RPS`] (≤4× tax versus the ~11×
/// the first transport paid).
const HTTP_SPEEDUP_FLOOR: f64 = 2.5;

/// Gate 5b: the committed 4-thread `phase6_warm_http` p50 must stay
/// within this multiple of the committed single-thread p50, after
/// scaling by the oversubscription the measuring box imposed: on a box
/// with fewer than 4 cores, 4 always-busy clients time-share it and
/// per-access sojourn grows by `threads / cores` even with a perfect
/// transport (Little's law), so the ceiling scales by the `cores` the
/// committed row records and reduces to the bare ratio on ≥ 4 cores. A
/// server that answers each pipelined request with its own write wakes
/// the client once per response, and its p50 grows superlinearly.
const HTTP_P50_RATIO_CEILING: f64 = 1.5;

/// Cached permits primed for the storm rows — the "owner with ≥100
/// cached permits" shape, matched by `sim::storm`'s own tests so the
/// committed rows and the test assertions describe the same run.
const STORM_RESOURCES: usize = 120;

/// The storm row family, in report order: the cold-miss storm with the
/// Host's pushed sieve dropped and kept, then the TTL-revalidation wave
/// without and with `If-Epoch` conditional queries.
const STORM_PROBES: [Live; 4] = [
    Live::Storm(false),
    Live::Storm(true),
    Live::Reval(false),
    Live::Reval(true),
];

/// The counts gate 6c holds each committed storm row to, space-separated,
/// in [`STORM_PROBES`] order.
const STORM_COUNTS: [&str; 4] = [
    "am_queries cache_hits bytes_on_wire",
    "am_queries sieve_hits bytes_on_wire",
    "am_queries revalidations bytes_on_wire",
    "am_queries revalidations_unchanged bytes_on_wire",
];

/// A saturation row's work counts (`sim::saturation::WorkCounts`),
/// space-separated: deterministic per `(bench, threads, iterations)`
/// shape, on any machine and either transport.
const WORK: &str = "accesses wire_rts bytes_on_wire sieve_hits cache_hits am_queries";

/// A gate's result: a pass line or a fail line.
type Verdict = Result<String, String>;

/// One regression gate; see [`GATES`].
struct Gate {
    /// Its number, as CI logs and EXPERIMENTS.md cite it.
    id: &'static str,
    /// The flags whose lanes run it.
    lanes: &'static [&'static str],
    /// The committed rows it reads, as `row_key` selectors.
    rows: &'static [&'static str],
    /// The live runs it reads.
    live: &'static [Live],
    /// Its bound, in words.
    bound: &'static str,
    /// The comparison, given the committed rows and the live rows in the
    /// order the entry names them, and the history document.
    check: fn(&[&str], &[&str], &str) -> Verdict,
}

/// The regression gates, in the order a lane runs them.
///
/// Each entry names the lanes that run it, the committed `BENCH_PR2.json`
/// rows it reads, the live runs it measures, its bound, and one check
/// that returns a pass line or a fail line. `run_gates` runs every gate
/// of the selected lane, prints one verdict per gate, and exits 1 if any
/// failed, so a machine-dependent throughput floor cannot hide an exact
/// work-count drift in a later gate. A lane measures each live run once;
/// gates that name the same run (1 and 1b, 3b and 3c, 6a–6c) read the
/// same row, through the run's `to_json` form, at the report's precision.
///
/// * `--check` runs every gate but 5c (CI `bench-smoke` and
///   `population-smoke`). Gates 1, 2b, 3b and 4 depend on the machine;
///   1b, 3c and 6a–6c are exact work counts; 2a, 3a, 5a and 5b read
///   committed rows only.
/// * `--check-http` runs 5a, 5b and the live cross-backend identity 5c
///   (CI `transport-http`).
/// * `--check-storm` runs 6a–6c, pure work counts (CI `bench-smoke`,
///   before `--check`, so a slow runner never masks a v2 drift).
///
/// Exact gates compare per access by u128 cross-multiplication
/// (`live.count × committed.accesses == committed.count ×
/// live.accesses`): runs of different lengths must agree with no
/// tolerance and no floating point, so a drift is a protocol change —
/// an extra round trip, a cache that stopped hitting — never noise.
const GATES: [Gate; 14] = [
    // The single-thread warm ceiling.
    Gate {
        id: "1",
        lanes: &["--check"],
        rows: &["phase6_warm threads=1"],
        live: &[Live::Warm(1)],
        bound: "live ≥ 70% of committed, or mean − 3σ of ≥ 3 history points if higher",
        check: |rows, live, history| {
            let floor = field::<f64>(rows[0], "reqs_per_sec")? * CHECK_FLOOR;
            // The history only ever tightens the floor, never loosens it.
            let floor = variance_floor(&history_points(history, 1)).map_or(floor, |f| f.max(floor));
            compare(live[0], "reqs_per_sec", f64::ge, floor)
        },
    },
    // The warm path's work per access.
    Gate {
        id: "1b",
        lanes: &["--check"],
        rows: &["phase6_warm threads=1"],
        live: &[Live::Warm(1)],
        bound: "exact per-access work counts",
        check: |rows, live, _| same_counts(rows[0], live[0], WORK, Some("accesses")),
    },
    // The committed warm trajectory: the 8-thread cliff never again.
    Gate {
        id: "2a",
        lanes: &["--check"],
        rows: &[
            "phase6_warm threads=1",
            "phase6_warm threads=2",
            "phase6_warm threads=4",
            "phase6_warm threads=8",
        ],
        live: &[],
        bound: "each committed row ≥ 95% of the one before",
        check: |rows, _, _| {
            all(rows.windows(2).map(|pair| {
                let floor = field::<f64>(pair[0], "reqs_per_sec")? * MONOTONE_TOLERANCE;
                compare(pair[1], "reqs_per_sec", f64::ge, floor)
            }))
        },
    },
    // Live warm scaling.
    Gate {
        id: "2b",
        lanes: &["--check"],
        rows: &[],
        live: &[Live::Warm(4), Live::Warm(8)],
        bound: "live 8T ≥ 85% of live 4T",
        check: |_, live, _| {
            let floor = field::<f64>(live[0], "reqs_per_sec")? * SCALING_FLOOR;
            compare(live[1], "reqs_per_sec", f64::ge, floor)
        },
    },
    // The committed full-protocol tail.
    Gate {
        id: "3a",
        lanes: &["--check"],
        rows: &["full_flow threads=8"],
        live: &[],
        bound: "committed 8T p99 < 2,000 µs",
        check: |rows, _, _| compare(rows[0], "p99_us", f64::lt, FULL_FLOW_8T_P99_CEILING_US),
    },
    // Live full-protocol contention.
    Gate {
        id: "3b",
        lanes: &["--check"],
        rows: &[],
        live: &[Live::Tail],
        bound: "live best-of-5 8T p95 < 2,000 µs",
        check: |_, live, _| compare(live[0], "p95_us", f64::lt, FULL_FLOW_8T_P95_CEILING_US),
    },
    // The full protocol's work per access.
    Gate {
        id: "3c",
        lanes: &["--check"],
        rows: &["full_flow threads=8"],
        live: &[Live::Tail],
        bound: "exact per-access work counts",
        check: |rows, live, _| same_counts(rows[0], live[0], WORK, Some("accesses")),
    },
    // The population engine.
    Gate {
        id: "4",
        lanes: &["--check"],
        rows: &["population_scale population=10000 hosts=256"],
        live: &[Live::Population],
        bound: "live ≥ 30% of committed",
        check: |rows, live, _| {
            let floor = field::<f64>(rows[0], "reqs_per_sec")? * POPULATION_FLOOR;
            compare(live[0], "reqs_per_sec", f64::ge, floor)
        },
    },
    // The HTTP fast path's speedup.
    Gate {
        id: "5a",
        lanes: &["--check", "--check-http"],
        rows: &["phase6_warm_http threads=1"],
        live: &[],
        bound: "committed 1T ≥ 2.5 × 95,076.3 req/s",
        check: |rows, _, _| {
            let floor = PR8_HTTP_BASELINE_RPS * HTTP_SPEEDUP_FLOOR;
            compare(rows[0], "reqs_per_sec", f64::ge, floor)
        },
    },
    // The HTTP multi-thread latency inversion.
    Gate {
        id: "5b",
        lanes: &["--check", "--check-http"],
        rows: &["phase6_warm_http threads=1", "phase6_warm_http threads=4"],
        live: &[],
        bound: "committed 4T p50 ≤ 1.5 × oversubscription × 1T p50",
        check: |rows, _, _| {
            let cores = field(rows[1], "cores").map_or(4.0, |cores: f64| cores.max(1.0));
            let oversubscription = (4.0 / cores.min(4.0)).max(1.0);
            let ceiling =
                field::<f64>(rows[0], "p50_us")? * (HTTP_P50_RATIO_CEILING * oversubscription);
            compare(rows[1], "p50_us", f64::le, ceiling)
        },
    },
    // The two backends do the same work, and HTTP the committed work.
    Gate {
        id: "5c",
        lanes: &["--check-http"],
        rows: &["phase6_warm_http threads=2", "full_flow_http threads=2"],
        live: &[
            Live::Smoke(SaturationMode::Phase6Warm, TransportKind::Sim),
            Live::Smoke(SaturationMode::Phase6Warm, TransportKind::Http),
            Live::Smoke(SaturationMode::FullFlow, TransportKind::Sim),
            Live::Smoke(SaturationMode::FullFlow, TransportKind::Http),
        ],
        bound: "live SimNet counts = live HTTP counts = committed per access",
        check: |rows, live, _| {
            let pairs = rows.iter().zip(live.chunks(2));
            all(pairs.flat_map(|(committed, runs)| {
                let identity = same_counts(runs[0], runs[1], WORK, None);
                let per_access = same_counts(committed, runs[1], WORK, Some("accesses"));
                [identity, per_access]
            }))
        },
    },
    // The pushed sieve's cut of the cold-miss storm.
    Gate {
        id: "6a",
        lanes: &["--check", "--check-storm"],
        rows: &[],
        live: &[Live::Storm(false), Live::Storm(true)],
        bound: "AM queries with the pushed sieve ≤ 10% of epoch-only",
        check: |_, live, _| {
            let ceiling = field::<f64>(live[0], "am_queries")? / 10.0;
            compare(live[1], "am_queries", f64::le, ceiling)
        },
    },
    // The If-Epoch conditional query's wire saving.
    Gate {
        id: "6b",
        lanes: &["--check", "--check-storm"],
        rows: &[],
        live: &[Live::Reval(false), Live::Reval(true)],
        bound: "conditional wire bytes < unconditional",
        check: |_, live, _| {
            let ceiling = field::<f64>(live[0], "bytes_on_wire")?;
            compare(live[1], "bytes_on_wire", f64::lt, ceiling)
        },
    },
    // The committed storm rows (refresh them with --storm if intended).
    Gate {
        id: "6c",
        lanes: &["--check", "--check-storm"],
        rows: &[
            "storm_epoch_only",
            "storm_sieve",
            "reval_unconditional",
            "reval_conditional",
        ],
        live: &STORM_PROBES,
        bound: "exact storm counts",
        check: |rows, live, _| {
            let runs = rows.iter().zip(live).zip(STORM_COUNTS);
            all(runs.map(|((committed, live), names)| same_counts(committed, live, names, None)))
        },
    },
];

/// A live run a gate reads, measured once per lane and returned as its
/// `to_json` row.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Live {
    /// In-process `phase6_warm` at this many threads, best of
    /// [`FULL_ATTEMPTS`].
    Warm(usize),
    /// Loopback-HTTP `phase6_warm` at this many threads, best of
    /// [`HTTP_ATTEMPTS`] (recorded by `--append-history`).
    WarmHttp(usize),
    /// In-process 8-thread `full_flow`, best of [`FULL_ATTEMPTS`].
    Tail,
    /// The [`POPULATION_SMOKE`] point, 20,000 accesses, one run.
    Population,
    /// The cold-miss storm over [`STORM_RESOURCES`] permits, with sieve
    /// push or without.
    Storm(bool),
    /// The TTL-revalidation wave, conditional or not.
    Reval(bool),
    /// One 2-thread run of a mode over a transport (300 warm or 40
    /// full-flow iterations per thread).
    Smoke(SaturationMode, TransportKind),
}

/// Measures one live run.
fn measure(live: Live) -> String {
    let best = |shape, attempts| best_of(&[shape], attempts).remove(0).to_json();
    let (warm, flow) = (SaturationMode::Phase6Warm, SaturationMode::FullFlow);
    let (sim, http) = (TransportKind::Sim, TransportKind::Http);
    match live {
        Live::Warm(threads) => best((warm, sim, threads, WARM_ITERS), FULL_ATTEMPTS),
        Live::WarmHttp(threads) => best((warm, http, threads, HTTP_PHASE6_ITERS), HTTP_ATTEMPTS),
        Live::Tail => best((flow, sim, 8, FLOW_ITERS), FULL_ATTEMPTS),
        Live::Population => measure_population(POPULATION_SMOKE.0, POPULATION_SMOKE.1, 20_000),
        Live::Storm(sieve) => run_cold_miss_storm(&StormConfig {
            transport: sim,
            sieve,
            resources: STORM_RESOURCES,
        })
        .to_json(),
        Live::Reval(conditional) => run_revalidation_probe(sim, conditional).to_json(),
        Live::Smoke(mode, transport) => {
            best((mode, transport, 2, if mode == warm { 300 } else { 40 }), 1)
        }
    }
}

/// A saturation run: its mode, transport, threads and iterations per
/// thread.
type Shape = (SaturationMode, TransportKind, usize, usize);

/// Runs each shape `attempts` times and folds each one's attempts with
/// `SaturationRow::merge_best`. Attempts run round-robin across the
/// shapes, not back to back: machine slowdowns come in windows, and
/// interleaving keeps one bad window from sinking a single row while its
/// neighbours measure fast.
fn best_of(shapes: &[Shape], attempts: usize) -> Vec<SaturationRow> {
    let run = |&(mode, transport, threads, iters_per_thread): &Shape| {
        run_saturation(&SaturationConfig {
            threads,
            iters_per_thread,
            mode,
            transport,
        })
    };
    let mut best: Vec<SaturationRow> = shapes.iter().map(run).collect();
    for _ in 1..attempts {
        for (row, shape) in best.iter_mut().zip(shapes) {
            row.merge_best(&run(shape));
        }
    }
    best
}

/// Measures one `population_scale` point. Single run: the cost is
/// dominated by the streamed setup, which is deterministic, so repeats
/// would mostly re-pay registration for the same answer.
fn measure_population(population: usize, hosts: usize, accesses: usize) -> String {
    run_population_scale(&PopulationScaleConfig {
        population,
        hosts,
        accesses,
        ..PopulationScaleConfig::default()
    })
    .to_json()
}

/// Measures one transport's saturation rows: both modes at every thread
/// count, folded per field over the transport's attempts.
///
/// The 8-thread `full_flow` row, whose committed p99 gate 3a holds under
/// [`FULL_FLOW_8T_P99_CEILING_US`], gets up to ten extra attempts (~1.5 s
/// each) when the interleaved ones all landed in one loud stretch. If
/// the ceiling still does not clear, the row keeps what was measured:
/// the maintainer reruns on a quieter machine rather than shipping a
/// flattering number.
fn measure_saturation(transport: TransportKind, quick: bool) -> Vec<String> {
    let (attempts, warm_iters, flow_iters) = match (transport, quick) {
        (_, true) => (1, 50, 50),
        (TransportKind::Sim, false) => (FULL_ATTEMPTS, WARM_ITERS, FLOW_ITERS),
        (TransportKind::Http, false) => (HTTP_ATTEMPTS, HTTP_PHASE6_ITERS, HTTP_FULL_FLOW_ITERS),
    };
    let (warm, flow) = (SaturationMode::Phase6Warm, SaturationMode::FullFlow);
    let shapes: Vec<Shape> = [(warm, warm_iters), (flow, flow_iters)]
        .into_iter()
        .flat_map(|(mode, iters)| THREAD_COUNTS.map(|threads| (mode, transport, threads, iters)))
        .collect();
    let mut rows = best_of(&shapes, attempts);
    // The last shape is the 8-thread `full_flow` one.
    let i = shapes.len() - 1;
    if transport == TransportKind::Sim && !quick {
        for extra in 1..=10 {
            if rows[i].p99_us < FULL_FLOW_8T_P99_CEILING_US {
                break;
            }
            println!(
                "full_flow @8T p99 {:.0} µs over the {FULL_FLOW_8T_P99_CEILING_US:.0} µs gate \
                 ceiling — extra attempt {extra}",
                rows[i].p99_us
            );
            rows[i].merge_best(&best_of(&shapes[i..], 1)[0]);
        }
    }
    rows.iter().map(SaturationRow::to_json).collect()
}

/// A family of committed rows, told apart by bench name.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Family {
    /// In-process `phase6_warm` / `full_flow`.
    Saturation,
    /// `population_scale`.
    Population,
    /// `storm_*` / `reval_*` (`sim::storm`, DESIGN.md §16).
    Storm,
    /// Loopback-HTTP `phase6_warm_http` / `full_flow_http`.
    Http,
}

impl Family {
    /// The family a row belongs to.
    fn of(row: &str) -> Family {
        match bench(row) {
            name if name.ends_with("_http") => Family::Http,
            "population_scale" => Family::Population,
            name if name.starts_with("storm_") || name.starts_with("reval_") => Family::Storm,
            _ => Family::Saturation,
        }
    }

    /// Measures the family's rows; smoke-sized when `quick`.
    fn measure(self, quick: bool) -> Vec<String> {
        match self {
            Family::Saturation => measure_saturation(TransportKind::Sim, quick),
            Family::Http => measure_saturation(TransportKind::Http, quick),
            Family::Population if quick => vec![measure_population(500, 8, 500)],
            Family::Population => POPULATION_CURVE
                .iter()
                .map(|&(population, hosts)| measure_population(population, hosts, 20_000))
                .collect(),
            Family::Storm => STORM_PROBES.map(measure).to_vec(),
        }
    }
}

/// What one run of the tool does.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// Measure these families and rewrite their rows in the report.
    Sweep(&'static [Family]),
    /// Measure the full sweep's in-process and population families at
    /// smoke size; write nothing.
    Quick,
    /// Run every gate of the flag's lane.
    Gates,
    /// Append live warm and population rows to the history.
    AppendHistory,
}

/// The full sweep, run with no argument. It keeps the `*_http` rows.
const FULL_SWEEP: Mode = Mode::Sweep(&[Family::Saturation, Family::Population, Family::Storm]);

/// Every flag and its mode.
const MODES: [(&str, Mode); 7] = [
    ("--quick", Mode::Quick),
    ("--check", Mode::Gates),
    ("--check-http", Mode::Gates),
    ("--check-storm", Mode::Gates),
    ("--append-history", Mode::AppendHistory),
    ("--transport=http", Mode::Sweep(&[Family::Http])),
    ("--storm", Mode::Sweep(&[Family::Storm])),
];

/// Parses the arguments after the program name: none is the full sweep,
/// one flag of [`MODES`] is its mode, and anything else is `None`.
fn parse_mode(args: &[String]) -> Option<(&'static str, Mode)> {
    match args {
        [] => Some(("", FULL_SWEEP)),
        [flag] => MODES.into_iter().find(|(name, _)| flag == name),
        _ => None,
    }
}

/// The rows of a report or history document: one JSON object per line,
/// as this tool writes them, without the array's separating comma.
fn rows(doc: &str) -> impl Iterator<Item = &str> {
    doc.lines()
        .map(|line| line.trim().trim_end_matches(','))
        .filter(|line| line.starts_with('{'))
}

/// The prefix of the row a selector names: `"phase6_warm threads=1"`
/// names the row that starts `{"bench":"phase6_warm","threads":1,`.
fn row_key(selector: &str) -> String {
    let mut words = selector.split(' ');
    let mut key = format!("{{\"bench\":\"{}\",", words.next().unwrap_or_default());
    for (name, value) in words.filter_map(|word| word.split_once('=')) {
        key.push_str(&format!("\"{name}\":{value},"));
    }
    key
}

/// The rows of `doc` that `selector` names.
fn rows_named<'a>(doc: &'a str, selector: &str) -> impl Iterator<Item = &'a str> {
    let key = row_key(selector);
    rows(doc).filter(move |row| row.starts_with(&key))
}

/// A row's `bench` name.
fn bench(row: &str) -> &str {
    row.strip_prefix("{\"bench\":\"")
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_default()
}

/// A row as a selector names it, such as `phase6_warm threads=1`.
fn label(row: &str) -> String {
    let shape = ["threads", "population", "hosts"]
        .map(|name| field::<u64>(row, name).map(|value| format!(" {name}={value}")));
    bench(row).to_owned() + &shape.into_iter().flatten().collect::<String>()
}

/// Reads field `name` of one row as a `T`. It reads inside `row` only, so
/// a row that lacks the field is an error, never a neighbour's value.
/// Hand-rolled on purpose: the root package takes no JSON dependency, and
/// every row is a flat object of numbers and one `bench` string.
fn field<T: std::str::FromStr>(row: &str, name: &str) -> Result<T, String> {
    row.split_once(&format!("\"{name}\":"))
        .and_then(|(_, rest)| rest.split([',', '}']).next()?.trim().parse().ok())
        .ok_or_else(|| format!("no {name} in {row}"))
}

/// `Ok(line)` if `pass`, else `Err(line)`.
fn verdict(pass: bool, line: String) -> Verdict {
    if pass {
        Ok(line)
    } else {
        Err(line)
    }
}

/// One verdict for several: its lines joined, passing only if all pass.
fn all(verdicts: impl IntoIterator<Item = Verdict>) -> Verdict {
    let (mut pass, mut lines) = (true, Vec::new());
    for verdict in verdicts {
        pass &= verdict.is_ok();
        lines.push(verdict.unwrap_or_else(|line| line));
    }
    verdict(pass, lines.join("; "))
}

/// Compares `row`'s `name` with `bound`: the gate passes if
/// `holds(value, bound)`.
fn compare(row: &str, name: &str, holds: fn(&f64, &f64) -> bool, bound: f64) -> Verdict {
    let value: f64 = field(row, name)?;
    let line = format!("{} {name} {value} (bound {bound:.2})", label(row));
    verdict(holds(&value, &bound), line)
}

/// Holds the space-separated counts `names` of a live row to a reference
/// row, exactly. With `per` set, each count is compared per `per` (per
/// access) by u128 cross-multiplication, so the two runs may differ in
/// length but not in work per access; without it, counts must be equal.
fn same_counts(reference: &str, live: &str, names: &str, per: Option<&str>) -> Verdict {
    let per_count = |row| per.map_or(Ok(1), |per| field::<u64>(row, per));
    let (reference_per, live_per) = (per_count(reference)?, per_count(live)?);
    let per_text = |n| per.map_or(String::new(), |per| format!(" per {n} {per}"));
    let (mut counts, mut drift) = (Vec::new(), Vec::new());
    for name in names.split(' ') {
        let (want, got): (u64, u64) = (field(reference, name)?, field(live, name)?);
        counts.push(format!("{got} {name}"));
        if u128::from(got) * u128::from(reference_per) != u128::from(want) * u128::from(live_per) {
            let per = per_text(reference_per);
            drift.push(format!("{name} (reference {want}{per})"));
        }
    }
    let (label, counts, per) = (label(live), counts.join(", "), per_text(live_per));
    let line = format!("{label}: {counts}{per}");
    match drift.is_empty() {
        true => Ok(line),
        false => Err(format!("{line}: WORK DRIFT in {}", drift.join(", "))),
    }
}

/// The `phase6_warm` req/s at `threads` recorded in the history.
fn history_points(history: &str, threads: usize) -> Vec<f64> {
    rows_named(history, &format!("phase6_warm threads={threads}"))
        .filter_map(|row| field(row, "reqs_per_sec").ok())
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

/// One gate's verdict: its committed rows from `report`, its live rows
/// from `measured` (measuring, and adding, any the lane has not run yet),
/// then its check.
fn judge(gate: &Gate, report: &str, history: &str, measured: &mut Vec<(Live, String)>) -> Verdict {
    let mut rows = Vec::new();
    for selector in gate.rows {
        let row = rows_named(report, selector).next();
        rows.push(row.ok_or_else(|| format!("no committed {selector} row in {REPORT}"))?);
    }
    for &live in gate.live {
        if !measured.iter().any(|(done, _)| *done == live) {
            measured.push((live, measure(live)));
        }
    }
    let live: Vec<&str> = gate
        .live
        .iter()
        .filter_map(|live| measured.iter().find(|(done, _)| done == live))
        .map(|(_, row)| row.as_str())
        .collect();
    (gate.check)(&rows, &live, history)
}

/// Runs every gate of `lane` in table order and prints one verdict per
/// gate. Returns the exit code: 1 if any gate failed.
fn run_gates(lane: &str) -> i32 {
    let Ok(report) = std::fs::read_to_string(REPORT) else {
        eprintln!("{lane}: cannot read {REPORT}");
        return 1;
    };
    let history = std::fs::read_to_string(HISTORY_FILE).unwrap_or_default();
    let gates: Vec<&Gate> = GATES
        .iter()
        .filter(|gate| gate.lanes.contains(&lane))
        .collect();
    let mut measured = Vec::new();
    let mut failed = 0;
    for gate in &gates {
        let (id, bound) = (gate.id, gate.bound);
        match judge(gate, &report, &history, &mut measured) {
            Ok(line) => println!("{lane}: gate {id:<2} pass: {line}"),
            Err(line) => {
                failed += 1;
                eprintln!("{lane}: gate {id:<2} FAIL: {line}; bound: {bound}");
            }
        }
    }
    if failed > 0 {
        eprintln!("{lane}: {failed} of {} gates failed", gates.len());
        return 1;
    }
    println!("{lane}: all {} gates pass", gates.len());
    0
}

/// Renders the report document from its rows.
fn render(rows: &[String]) -> String {
    format!("[\n  {}\n]\n", rows.join(",\n  "))
}

/// The committed rows with each family in `families` replaced by its
/// fresh rows, in place of its first committed row (at the end if the
/// report had none); every other row is kept as committed.
fn merge(committed: &[&str], mut fresh: Vec<String>, families: &[Family]) -> Vec<String> {
    let mut merged = Vec::new();
    for &row in committed {
        let family = Family::of(row);
        if !families.contains(&family) {
            merged.push(row.to_owned());
            continue;
        }
        let (mine, rest): (Vec<String>, _) =
            fresh.into_iter().partition(|r| Family::of(r) == family);
        merged.extend(mine);
        fresh = rest;
    }
    merged.extend(fresh);
    merged
}

/// Measures `families` and rewrites their rows in the report, keeping
/// every other committed row; smoke-sized and writing nothing when
/// `quick`. Only the full sweep, which measures the in-process family,
/// may start from an empty report. Returns the exit code.
fn sweep(flag: &str, families: &[Family], quick: bool) -> i32 {
    let report = std::fs::read_to_string(REPORT).unwrap_or_default();
    let committed: Vec<&str> = rows(&report).collect();
    // Merging no fresh rows leaves the rows this sweep keeps.
    let kept = merge(&committed, Vec::new(), families);
    if kept.is_empty() && !families.contains(&Family::Saturation) {
        eprintln!("{flag}: {REPORT} has no committed rows to preserve — run the full sweep first");
        return 1;
    }
    let mut fresh = Vec::new();
    for family in families {
        for row in family.measure(quick) {
            println!("{row}");
            fresh.push(row);
        }
    }
    if quick {
        println!("\n--quick: skipping {REPORT} rewrite");
        return 0;
    }
    let rows = merge(&committed, fresh, families);
    if let Err(err) = std::fs::write(REPORT, render(&rows)) {
        eprintln!("{flag}: cannot write {REPORT}: {err}");
        return 1;
    }
    println!("\nwrote {REPORT} ({} rows)", rows.len());
    0
}

/// Appends the 1/4/8-thread `phase6_warm` rows of both transports and
/// the smoke-sized population row to the history, so the history carries
/// the multi-thread, cross-process and population trajectories. Returns
/// the exit code.
fn append_history() -> i32 {
    let runs = [1, 4, 8]
        .map(Live::Warm)
        .into_iter()
        .chain([1, 4, 8].map(Live::WarmHttp))
        .chain([Live::Population]);
    let mut history = std::fs::read_to_string(HISTORY_FILE).unwrap_or_default();
    for live in runs {
        let row = measure(live);
        println!("bench-history: recording {row}");
        history.push_str(&row);
        history.push('\n');
    }
    if let Err(err) = std::fs::write(HISTORY_FILE, &history) {
        eprintln!("--append-history: cannot write {HISTORY_FILE}: {err}");
        return 1;
    }
    println!(
        "bench-history: {} single-thread point(s), {} eight-thread point(s) total",
        history_points(&history, 1).len(),
        history_points(&history, 8).len()
    );
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((flag, mode)) = parse_mode(&args) else {
        let flags: Vec<&str> = MODES.iter().map(|(flag, _)| *flag).collect();
        eprintln!("bench_report: {args:?}: expected no argument (the full sweep) or one of");
        eprintln!("  {}", flags.join(" "));
        std::process::exit(2);
    };
    std::process::exit(match mode {
        Mode::Sweep(families) => sweep(flag, families, false),
        Mode::Quick => sweep(flag, &[Family::Saturation, Family::Population], true),
        Mode::Gates => run_gates(flag),
        Mode::AppendHistory => append_history(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in report.
    const COMMITTED: &str = include_str!("../BENCH_PR2.json");

    fn gate(id: &str) -> &'static Gate {
        GATES.iter().find(|gate| gate.id == id).expect("gate id")
    }

    fn row(doc: &str, selector: &str) -> String {
        rows_named(doc, selector).next().expect("row").to_owned()
    }

    /// `row` with field `name` set to `value`.
    fn set(row: &str, name: &str, value: impl std::fmt::Display) -> String {
        let key = format!("\"{name}\":");
        let start = row.find(&key).expect("field") + key.len();
        let end = start + row[start..].find([',', '}']).expect("value end");
        format!("{}{value}{}", &row[..start], &row[end..])
    }

    /// The checked-in report with one field of one row set to `value`.
    fn committed_with(selector: &str, name: &str, value: impl std::fmt::Display) -> String {
        let old = row(COMMITTED, selector);
        COMMITTED.replacen(&old, &set(&old, name, value), 1)
    }

    /// Every live run answered by a committed row of the same shape.
    fn committed_live() -> Vec<(Live, String)> {
        let storm = STORM_PROBES.iter().zip([
            "storm_epoch_only",
            "storm_sieve",
            "reval_unconditional",
            "reval_conditional",
        ]);
        let smoke =
            |mode, transport, selector| (Live::Smoke(mode, transport), row(COMMITTED, selector));
        let (warm, flow) = (SaturationMode::Phase6Warm, SaturationMode::FullFlow);
        THREAD_COUNTS
            .iter()
            .map(|&t| {
                (
                    Live::Warm(t),
                    row(COMMITTED, &format!("phase6_warm threads={t}")),
                )
            })
            .chain([
                (Live::Tail, row(COMMITTED, "full_flow threads=8")),
                (
                    Live::Population,
                    row(COMMITTED, "population_scale population=10000 hosts=256"),
                ),
                smoke(warm, TransportKind::Sim, "phase6_warm_http threads=2"),
                smoke(warm, TransportKind::Http, "phase6_warm_http threads=2"),
                smoke(flow, TransportKind::Sim, "full_flow_http threads=2"),
                smoke(flow, TransportKind::Http, "full_flow_http threads=2"),
            ])
            .chain(storm.map(|(&live, selector)| (live, row(COMMITTED, selector))))
            .collect()
    }

    /// The committed row standing in for live run `run`.
    fn live_row(run: Live) -> String {
        let rows = committed_live().into_iter();
        rows.filter(|(live, _)| *live == run)
            .map(|(_, row)| row)
            .next()
            .expect("live row")
    }

    /// Judges gate `id` on `report`, its live runs answered by the
    /// committed rows except for those `live` names.
    fn judge_with(id: &str, report: &str, history: &str, live: &[(Live, String)]) -> Verdict {
        let mut measured = live.to_vec();
        measured.extend(committed_live());
        judge(gate(id), report, history, &mut measured)
    }

    /// Gate `id` with live run `run` measuring `row`.
    fn live_with(id: &str, run: Live, row: String) -> Verdict {
        judge_with(id, COMMITTED, "", &[(run, row)])
    }

    /// Gate `id` passes with field `name` of live run `run` at `pass` and
    /// fails one unit past its bound, at `fail`.
    fn live_edge(id: &str, run: Live, name: &str, pass: &str, fail: &str) {
        let row = live_row(run);
        assert!(
            live_with(id, run, set(&row, name, pass)).is_ok(),
            "{id} at {pass}"
        );
        assert!(
            live_with(id, run, set(&row, name, fail)).is_err(),
            "{id} at {fail}"
        );
    }

    /// Gate `id` passes with field `name` of committed row `selector` at
    /// `pass` and fails one unit past its bound, at `fail`.
    fn committed_edge(id: &str, selector: &str, name: &str, pass: &str, fail: &str) {
        let judge_on = |value| judge_with(id, &committed_with(selector, name, value), "", &[]);
        assert!(judge_on(pass).is_ok(), "{id} at {pass}");
        assert!(judge_on(fail).is_err(), "{id} at {fail}");
    }

    #[test]
    fn every_gate_passes_when_the_live_runs_match_the_committed_rows() {
        for gate in &GATES {
            let verdict = judge_with(gate.id, COMMITTED, "", &[]);
            assert!(verdict.is_ok(), "gate {}: {verdict:?}", gate.id);
        }
    }

    #[test]
    fn the_table_is_well_formed() {
        let lanes: Vec<&str> = MODES
            .iter()
            .filter(|(_, mode)| *mode == Mode::Gates)
            .map(|(flag, _)| *flag)
            .collect();
        for (i, gate) in GATES.iter().enumerate() {
            assert!(GATES[..i].iter().all(|other| other.id != gate.id));
            assert!(gate.lanes.iter().all(|lane| lanes.contains(lane)));
            assert!(!gate.rows.is_empty() || !gate.live.is_empty());
        }
        // Each lane has gates, and measures each of its live runs once.
        for lane in lanes {
            let mut measured = committed_live();
            let before = measured.len();
            for gate in GATES.iter().filter(|gate| gate.lanes.contains(&lane)) {
                assert!(judge(gate, COMMITTED, "", &mut measured).is_ok());
            }
            assert_eq!(measured.len(), before, "{lane} measured a run twice");
        }
        let (population, hosts) = POPULATION_SMOKE;
        let smoke = format!("population_scale population={population} hosts={hosts}");
        assert_eq!(gate("4").rows, [smoke.as_str()]);
    }

    #[test]
    fn committed_row_gates_fail_just_past_their_bounds() {
        // 0.95 × 1,038,083.9 = 986,179.705 for the 2-thread row.
        committed_edge(
            "2a",
            "phase6_warm threads=2",
            "reqs_per_sec",
            "986179.8",
            "986179.6",
        );
        committed_edge("3a", "full_flow threads=8", "p99_us", "1999.99", "2000.00");
        // 2.5 × 95,076.3 = 237,690.75.
        let (one_t, four_t) = ("phase6_warm_http threads=1", "phase6_warm_http threads=4");
        committed_edge("5a", one_t, "reqs_per_sec", "237690.8", "237690.7");
        // 1T p50 2.92 µs × 1.5 × 4 (the rows' 1-core box) = 17.52 µs.
        committed_edge("5b", four_t, "p50_us", "17.51", "17.53");
        // On a 4-core box the ceiling is the bare 1.5× = 4.38 µs.
        let four_cores = committed_with(four_t, "cores", 4);
        let p50 = |value| four_cores.replacen("\"p50_us\":6.92", &format!("\"p50_us\":{value}"), 1);
        assert!(judge_with("5b", &p50("4.37"), "", &[]).is_ok());
        assert!(judge_with("5b", &p50("4.39"), "", &[]).is_err());
    }

    #[test]
    fn live_gates_fail_just_past_their_bounds() {
        // 0.70 × 1,038,083.9 = 726,658.73.
        live_edge("1", Live::Warm(1), "reqs_per_sec", "726658.8", "726658.7");
        // 0.85 × the committed 4T 952,510.1 = 809,633.585.
        live_edge("2b", Live::Warm(8), "reqs_per_sec", "809633.6", "809633.5");
        live_edge("3b", Live::Tail, "p95_us", "1999.99", "2000.00");
        // 0.30 × 20,592.7 = 6,177.81.
        live_edge("4", Live::Population, "reqs_per_sec", "6177.9", "6177.8");
        // At most 10% of the epoch-only wave's 120 AM queries.
        live_edge("6a", Live::Storm(true), "am_queries", "12", "13");
        // Strictly fewer than the unconditional wave's 26,342 bytes.
        live_edge("6b", Live::Reval(true), "bytes_on_wire", "26341", "26342");
    }

    #[test]
    fn gate_1_tightens_its_floor_with_a_steady_history_only() {
        let warm = |rps: f64| set(&live_row(Live::Warm(1)), "reqs_per_sec", rps);
        let judge_on =
            |history: &str, rps| judge_with("1", COMMITTED, history, &[(Live::Warm(1), warm(rps))]);
        // Three steady points (other thread counts ignored) tighten the
        // floor to their mean.
        let point = warm(1_000_000.0);
        let steady = format!("{point}\n{point}\n{}\n{point}\n", live_row(Live::Warm(8)));
        assert!(judge_on(&steady, 1_000_000.0).is_ok());
        assert!(judge_on(&steady, 999_999.9).is_err());
        // Two points are not yet a history; a noisy one never loosens the
        // 70% floor.
        assert!(judge_on(&format!("{point}\n{point}\n"), 726_658.8).is_ok());
        let noisy = format!("{point}\n{}\n{point}\n", warm(100_000.0));
        let verdict = judge_on(&noisy, 726_658.7);
        assert!(verdict.is_err_and(|line| line.contains("(bound 726658.73)")));
    }

    #[test]
    fn exact_gates_fail_on_any_count_one_off() {
        let smoke = |mode, transport| ("5c", Live::Smoke(mode, transport), WORK);
        let (warm, flow) = (SaturationMode::Phase6Warm, SaturationMode::FullFlow);
        let (sim, http) = (TransportKind::Sim, TransportKind::Http);
        let storm = STORM_PROBES.into_iter().zip(STORM_COUNTS);
        let cases = [
            ("1b", Live::Warm(1), WORK),
            ("3c", Live::Tail, WORK),
            smoke(warm, sim),
            smoke(warm, http),
            smoke(flow, sim),
            smoke(flow, http),
        ]
        .into_iter()
        .chain(storm.map(|(run, names)| ("6c", run, names)));
        for (id, run, names) in cases {
            let row = live_row(run);
            for name in names.split(' ') {
                let bumped = set(&row, name, field::<u64>(&row, name).unwrap() + 1);
                assert!(live_with(id, run, bumped).is_err(), "gate {id}: {name} + 1");
            }
        }
        // Longer runs that do the same work per access pass.
        assert!(live_with("1b", Live::Warm(1), live_row(Live::Warm(2))).is_ok());
        let longer = row(COMMITTED, "full_flow_http threads=4");
        let runs = [
            (Live::Smoke(flow, sim), longer.clone()),
            (Live::Smoke(flow, http), longer),
        ];
        assert!(judge_with("5c", COMMITTED, "", &runs).is_ok());
    }

    #[test]
    fn a_row_missing_a_field_fails_instead_of_reading_its_neighbour() {
        let full_flow = row(COMMITTED, "full_flow threads=8");
        let without_p99 = full_flow.replace("\"p99_us\":1249.93,", "");
        let report = COMMITTED.replacen(&full_flow, &without_p99, 1);
        // The next row down, population_scale 10³, has a p99 of 128.53
        // µs: a reader that left the row would pass gate 3a on it.
        let verdict = judge_with("3a", &report, "", &[]);
        assert!(
            verdict
                .as_ref()
                .is_err_and(|line| line.contains("no p99_us")),
            "{verdict:?}"
        );
        assert_eq!(field::<f64>(&without_p99, "p95_us"), Ok(53.61));
        let unnamed = COMMITTED.replace("\"bench\":\"full_flow\",\"threads\":8,", "");
        assert!(judge_with("3a", &unnamed, "", &[]).is_err());
    }

    #[test]
    fn the_parser_takes_one_known_mode_or_none() {
        let parse =
            |args: &[&str]| parse_mode(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        assert_eq!(parse(&[]), Some(("", FULL_SWEEP)));
        for (flag, mode) in MODES {
            assert_eq!(parse(&[flag]), Some((flag, mode)));
        }
        assert_eq!(parse(&["--chek"]), None);
        assert_eq!(parse(&["check"]), None);
        assert_eq!(parse(&["--check", "--quick"]), None);
        assert_eq!(parse(&["--storm", "--storm"]), None);
    }

    #[test]
    fn a_refresh_keeps_every_other_row_byte_for_byte() {
        let committed: Vec<&str> = rows(COMMITTED).collect();
        assert_eq!(committed.len(), 26);
        assert_eq!(
            render(&committed.iter().map(|r| r.to_string()).collect::<Vec<_>>()),
            COMMITTED
        );
        let family = |family| -> Vec<String> {
            committed
                .iter()
                .filter(|r| Family::of(r) == family)
                .map(|r| r.to_string())
                .collect()
        };
        let sizes = [
            Family::Saturation,
            Family::Population,
            Family::Storm,
            Family::Http,
        ]
        .map(|f| family(f).len());
        assert_eq!(sizes, [8, 6, 4, 8]);
        // Fresh rows equal to the committed ones rewrite nothing, for any
        // mix of families, in any order the sweep measures them.
        let all = [
            Family::Http,
            Family::Storm,
            Family::Population,
            Family::Saturation,
        ];
        for n in 1..=all.len() {
            let families = &all[..n];
            let fresh: Vec<String> = families.iter().flat_map(|&f| family(f)).collect();
            assert_eq!(render(&merge(&committed, fresh, families)), COMMITTED);
        }
        // Fresh rows land where their family stood; a new family goes last.
        let new_storm = set(&family(Family::Storm)[0], "am_queries", 7);
        let merged = merge(&committed, vec![new_storm.clone()], &[Family::Storm]);
        assert_eq!(merged.len(), 23);
        assert_eq!(merged[22], new_storm);
        assert_eq!(merged[..22], committed[..22]);
        let without_http: Vec<&str> = committed
            .iter()
            .copied()
            .filter(|r| Family::of(r) != Family::Http)
            .collect();
        let merged = merge(&without_http, family(Family::Http), &[Family::Http]);
        assert_eq!(merged[18..], family(Family::Http)[..]);
    }
}
