//! The three workload loops. Each takes its seed as an argument, runs a
//! closed loop (every requester waits for its reply), and drives the
//! system only through public APIs.
//!
//! * `warm_http` — paper phase 6 (§V.B.6) over loopback HTTP: two
//!   requester threads each hold a token for their own resource, sieves
//!   are delivered before the clock starts, and accesses go in pipelined
//!   strides through `access_batch`. Only the transport, the codec and the
//!   Host's tier-1 sieve probe work per access; the AM idles. The rig
//!   holds 1,024 owners (two of them read) so that its set-up is enough
//!   work for `setup_s` to measure more than server thread start-up.
//! * `zipf_pop` — 10⁵ owners and resources over 64 Hosts with 1,024 Zipf
//!   requesters on SimNet, one load thread calling `access`. ~1,560 owners per
//!   Host overflow the 1,024-entry decision cache, so the cold path
//!   (redirect, AM authorize, AM decision) dominates, and set-up is the
//!   heaviest write path.
//! * `churn_sim` — reads beside owner edits on SimNet: every
//!   `edit_every`-th step unlinks (then, next time, relinks) one realm and
//!   drains the pushes, the following read confirms the new decision, and
//!   the logical clock jumps past the cache TTL at intervals so
//!   conditional revalidation and token re-authorization join the mix.
//!   One load thread, so the interleaving and every count are
//!   deterministic. It runs on SimNet because one sequential load thread over
//!   loopback HTTP measures mostly the idle server workers' wake-up
//!   latency, which spread too far from run to run to bound; its counts
//!   equal an HTTP replay of the same schedule (`tests/counts.rs`).
//!
//! `zipf_pop` and `churn_sim` share one loop: `zipf_pop` is the churn mix
//! with no edits and no TTL jumps.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use ucam_requester::{AccessSpec, RequesterClient, RequesterStats};
use ucam_sim::population::SplitMix64;
use ucam_webenv::Transport;

use crate::measure::{
    drive, peak_rss_mb, pick_edit, sum_requesters, timed_edit, Modes, RunResult, SysSnap, Tally,
    Traced, WindowCounts,
};
use crate::rig::{Backend, Rig, Shape};
use crate::trace::{set_access_id, Kind, TimedNet, Tracer};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Phase-6 warm path over loopback HTTP, pipelined strides.
    WarmHttp,
    /// Population-scale Zipf traffic on SimNet; the cold path dominates.
    ZipfPop,
    /// Reads mixed with owner edits on SimNet.
    Churn,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 3] = [Workload::WarmHttp, Workload::ZipfPop, Workload::Churn];

/// Sizes and settings of one workload. [`Workload::params`] gives the
/// benchmark's; tests shrink them.
#[derive(Debug, Clone)]
pub struct Params {
    /// Transport backend.
    pub backend: Backend,
    /// Population of the rig.
    pub shape: Shape,
    /// Load threads (closed-loop clients running concurrently).
    pub threads: usize,
    /// Set-up repetitions per untraced run ([`SetUps`]); `setup_s` is the
    /// mean of their middle half and the first rig is the one measured.
    pub setup_reps: usize,
    /// Loop steps per block (strides for `warm_http`). Traced runs
    /// alternate untraced and traced blocks.
    pub block_ops: u64,
    /// Steps every count-type metric is taken over, from the window's
    /// start: a multiple of two blocks, so half of it is traced.
    pub count_window: u64,
    /// Accesses per pipelined stride (`warm_http`).
    pub stride: usize,
    /// One step in this many is an edit; 0 for none.
    pub edit_every: u64,
    /// The logical clock jumps past the cache TTL every this many steps;
    /// 0 for never.
    pub advance_every: u64,
}

impl Workload {
    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHttp => "warm_http",
            Workload::ZipfPop => "zipf_pop",
            Workload::Churn => "churn_sim",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's settings for this workload.
    #[must_use]
    pub fn params(self) -> Params {
        match self {
            Workload::WarmHttp => Params {
                backend: Backend::Http,
                shape: Shape {
                    users: 1_024,
                    resources: 1_024,
                    hosts: 2,
                    realms: 1,
                    requesters: 2,
                    cache_ttl_ms: 60_000,
                },
                threads: 2,
                setup_reps: 9,
                block_ops: 256,
                count_window: 0,
                stride: 16,
                edit_every: 0,
                advance_every: 0,
            },
            Workload::ZipfPop => Params {
                backend: Backend::Sim,
                shape: Shape {
                    users: 100_000,
                    resources: 100_000,
                    hosts: 64,
                    realms: 1,
                    requesters: 1_024,
                    cache_ttl_ms: 60_000,
                },
                threads: 1,
                setup_reps: 1,
                block_ops: 2_048,
                count_window: 16_384,
                stride: 1,
                edit_every: 0,
                advance_every: 0,
            },
            Workload::Churn => Params {
                backend: Backend::Sim,
                shape: Shape {
                    users: 8,
                    resources: 64,
                    hosts: 2,
                    realms: 4,
                    requesters: 8,
                    cache_ttl_ms: 60_000,
                },
                threads: 1,
                setup_reps: 41,
                block_ops: 1_024,
                count_window: 8_192,
                stride: 1,
                edit_every: 16,
                advance_every: 64,
            },
        }
    }
}

/// Runs `workload` once: set-up repetitions, then the measured window
/// of `seconds`. With `trace`, every application is wrapped, blocks
/// alternate traced and untraced, and the first spans are written to
/// `dump` when given.
#[must_use]
pub fn run(
    workload: Workload,
    params: &Params,
    seed: u64,
    seconds: f64,
    trace: bool,
    dump: Option<&Path>,
) -> RunResult {
    let tracer = trace.then(Tracer::new);
    let mut result = match workload {
        Workload::WarmHttp => warm_http(params, seed, seconds, tracer.as_ref()),
        Workload::ZipfPop | Workload::Churn => sim_mix(params, seed, seconds, tracer.as_ref()),
    };
    if let (Some(tracer), Some(path), Some(traced)) = (&tracer, dump, result.traced.as_mut()) {
        match tracer.write_spans(path) {
            Ok(n) => traced.dump = Some((n, path.display().to_string())),
            Err(e) => eprintln!("span dump to {} failed: {e}", path.display()),
        }
    }
    result
}

/// The set-up repetitions of one run. The first builds the measured rig
/// before the window; the rest are spread evenly over the window, each
/// built, timed and torn down between two blocks, so that `setup_s`
/// samples the same speed phases of a shared box as the window does.
/// A traced run sets up once.
struct SetUps<'p, T> {
    params: &'p Params,
    seed: u64,
    /// Brings a freshly built rig to the state the window starts from.
    prepare: fn(&mut Rig, &Params) -> T,
    /// Repetitions to make.
    total: usize,
    /// Wall time of each repetition made so far, in ns.
    times_ns: Vec<u64>,
}

impl<'p, T> SetUps<'p, T> {
    fn new(
        params: &'p Params,
        seed: u64,
        trace: bool,
        prepare: fn(&mut Rig, &Params) -> T,
    ) -> Self {
        let total = if trace { 1 } else { params.setup_reps.max(1) };
        SetUps {
            params,
            seed,
            prepare,
            total,
            times_ns: Vec::with_capacity(total),
        }
    }

    /// Builds and prepares one rig, timing both.
    fn build(&mut self, tracer: Option<&Arc<Tracer>>) -> (Rig, T) {
        let started = Instant::now();
        let mut rig = Rig::build(self.params.backend, &self.params.shape, self.seed, tracer);
        let prepared = (self.prepare)(&mut rig, self.params);
        self.times_ns.push(started.elapsed().as_nanos() as u64);
        (rig, prepared)
    }

    /// Makes every repetition due once `done` (0 to 1) of the window has
    /// passed: repetition `k` of `total` is due at `k / total`.
    fn catch_up(&mut self, done: f64) {
        while self.times_ns.len() < self.total
            && self.times_ns.len() as f64 / self.total as f64 <= done
        {
            let (rig, prepared) = self.build(None);
            drop(prepared);
            rig.tear_down();
        }
    }
}

/// The share of a window of `seconds` that `elapsed_s` covers (all of it
/// for an empty window).
fn window_share(elapsed_s: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        elapsed_s / seconds
    } else {
        1.0
    }
}

fn timed_net(rig: &Rig, tracer: Option<&Arc<Tracer>>) -> Option<Arc<dyn Transport>> {
    tracer
        .map(|t| Arc::new(TimedNet::new(Arc::clone(&rig.net), Arc::clone(t))) as Arc<dyn Transport>)
}

/// Zeroes the transport and Host counters so window counts start at 0.
fn reset_counters(rig: &Rig) {
    rig.net.reset_stats();
    for host in &rig.hosts {
        host.shell().core.reset_stats();
    }
}

fn result_for(params: &Params, rig: &Rig) -> RunResult {
    RunResult {
        backend: params.backend,
        threads: params.threads,
        setups_ns: Vec::new(),
        setup_split: rig.setup,
        users: params.shape.users,
        hosts: params.shape.hosts,
        resources: params.shape.resources,
        tally: Tally::default(),
        window_ns: 0,
        samples_ns: Vec::new(),
        sample_stride: 1,
        edit_ns: Vec::new(),
        modes: Modes::default(),
        traced: None,
    }
}

struct WarmThread {
    client: RequesterClient,
    tally: Tally,
    modes: Modes,
    began: Option<Instant>,
    ended: Option<Instant>,
    samples_ns: Vec<u64>,
}

/// Each load thread's client obtains its token, then the AM compiles and
/// delivers the sieves: the warm state exists before timing.
fn warm_clients(rig: &mut Rig, params: &Params) -> Vec<RequesterClient> {
    let clients = (0..params.threads as u64)
        .map(|t| {
            let mut client = RequesterClient::new(&rig.pop.requester_name(t));
            let outcome = client.access(rig.net.as_ref(), &AccessSpec::read(rig.url(t)));
            assert!(outcome.is_granted(), "warm-up access denied: {outcome:?}");
            client
        })
        .collect();
    rig.am.schedule_sieve_refresh();
    rig.drain();
    clients
}

fn warm_http(params: &Params, seed: u64, seconds: f64, tracer: Option<&Arc<Tracer>>) -> RunResult {
    let threads = params.threads;
    let mut setups = SetUps::new(params, seed, tracer.is_some(), warm_clients);
    let (rig, clients) = setups.build(tracer);
    let setups = Mutex::new(setups);
    let mut result = result_for(params, &rig);
    let timed = timed_net(&rig, tracer);
    let barrier = Barrier::new(threads);
    let stop = AtomicBool::new(false);
    let stride = params.stride;

    let mut states: Vec<WarmThread> = clients
        .into_iter()
        .map(|client| WarmThread {
            client,
            tally: Tally::default(),
            modes: Modes::default(),
            began: None,
            ended: None,
            samples_ns: Vec::new(),
        })
        .collect();
    let before: Mutex<Option<SysSnap>> = Mutex::new(None);
    let window_start = Instant::now();
    std::thread::scope(|scope| {
        for (t, state) in states.iter_mut().enumerate() {
            let (rig, barrier, stop, timed, before, setups) =
                (&rig, &barrier, &stop, &timed, &before, &setups);
            scope.spawn(move || {
                let r = t as u64;
                let specs = vec![AccessSpec::read(rig.url(r)); stride];
                // One untimed stride opens this thread's connections; the
                // counters are zeroed once every thread has done so.
                let opened = state.client.access_batch(rig.net.as_ref(), &specs);
                assert!(opened.iter().all(|o| o.is_granted()), "warm stride denied");
                state.client.reset_stats();
                barrier.wait();
                if t == 0 {
                    reset_counters(rig);
                    *before.lock().expect("no thread panicked holding it") =
                        tracer.map(|tracer| SysSnap::take(rig, Some(tracer)));
                }
                let mut block = 0u64;
                loop {
                    barrier.wait();
                    if t == 0 {
                        if block >= 2 {
                            // Every thread has read the peak resident set.
                            let elapsed = window_start.elapsed().as_secs_f64();
                            setups
                                .lock()
                                .expect("no thread panicked holding it")
                                .catch_up(window_share(elapsed, seconds));
                        }
                        let done = block >= 2
                            && block.is_multiple_of(2)
                            && window_start.elapsed().as_secs_f64() >= seconds;
                        stop.store(done, Ordering::SeqCst);
                        if let Some(tracer) = tracer {
                            tracer.set_on(!done && block % 2 == 1);
                        }
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let traced = tracer.is_some() && block % 2 == 1;
                    let first = state.samples_ns.len();
                    let t0 = Instant::now();
                    state.began.get_or_insert(t0);
                    for _ in 0..params.block_ops {
                        let s0 = Instant::now();
                        let outcomes = match (traced, tracer, timed) {
                            (true, Some(tracer), Some(net)) => {
                                tracer.span(Kind::Access, stride as u64, || {
                                    state.client.access_batch(net.as_ref(), &specs)
                                })
                            }
                            _ => state.client.access_batch(rig.net.as_ref(), &specs),
                        };
                        state
                            .samples_ns
                            .push(s0.elapsed().as_nanos() as u64 / stride as u64);
                        for outcome in &outcomes {
                            state.tally.accesses += 1;
                            state.tally.traced_accesses += u64::from(traced);
                            state.tally.judge(outcome, true, r);
                        }
                    }
                    let ended = Instant::now();
                    state.ended = Some(ended);
                    state.modes.record(
                        traced,
                        params.block_ops * stride as u64,
                        ended.duration_since(t0).as_nanos() as u64,
                        &state.samples_ns[first..],
                    );
                    block += 1;
                    if block == 2 {
                        state.modes.rss_mb = peak_rss_mb();
                    }
                }
            });
        }
    });

    let mut setups = setups.into_inner().expect("no thread panicked holding it");
    setups.catch_up(1.0);
    result.setups_ns = setups.times_ns;
    let mut began: Option<Instant> = None;
    let mut ended: Option<Instant> = None;
    for state in &mut states {
        result.tally.merge(&state.tally);
        result.modes.merge(&state.modes);
        began = match (began, state.began) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        ended = match (ended, state.ended) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        result.samples_ns.append(&mut state.samples_ns);
    }
    result.window_ns = match (began, ended) {
        (Some(b), Some(e)) => e.duration_since(b).as_nanos() as u64,
        _ => 0,
    };
    result.sample_stride = stride as u64;
    let before = before.into_inner().expect("no thread panicked holding it");
    if let (Some(tracer), Some(before)) = (tracer, before) {
        // Every timed access does identical work, so counts over the
        // whole window are as exact as over a fixed prefix.
        let after = SysSnap::take(&rig, Some(tracer));
        let requester = sum_requesters(states.iter().map(|s| s.client.stats()));
        result.traced = Some(Traced {
            access: WindowCounts::between(&before, &after, requester, result.tally),
            access_spans: after.spans.since(&before.spans),
            ..Traced::default()
        });
    }
    result
}

/// `zipf_pop` and `churn_sim`: one load thread on SimNet reading the
/// seeded Zipf stream. With `edit_every` > 0 every `edit_every`-th step is
/// an edit instead, and the read after it confirms the new state; with
/// `advance_every` > 0 the logical clock jumps past the cache TTL every
/// `advance_every` steps.
fn sim_mix(params: &Params, seed: u64, seconds: f64, tracer: Option<&Arc<Tracer>>) -> RunResult {
    let mut setups = SetUps::new(params, seed, tracer.is_some(), |_, _| ());
    let (mut rig, ()) = setups.build(tracer);
    let mut result = result_for(params, &rig);
    let timed = timed_net(&rig, tracer);
    let mut clients: HashMap<u64, RequesterClient> = HashMap::new();
    let mut events = rig.pop.accesses();
    let mut rng = SplitMix64::new(seed ^ 0xC4A2_0000);
    let mut tally = Tally::default();
    let mut edit_ns = Vec::new();
    let mut open_pair: Option<(u64, usize)> = None;
    let mut confirm: Option<u64> = None;
    let mut at_window: Option<(SysSnap, Tally, RequesterStats)> = None;
    let window = if tracer.is_some() {
        params.count_window
    } else {
        0
    };
    let ttl_jump = params.shape.cache_ttl_ms + 1;
    // Whether step `op` is the last of a period of `n` (never for 0).
    let every = |n: u64, op: u64| n > 0 && op % n == n - 1;

    reset_counters(&rig);
    let before = tracer.map(|t| SysSnap::take(&rig, Some(t)));
    let (modes, window_ns, samples) = drive(
        tracer,
        params.block_ops,
        params.count_window,
        seconds,
        |elapsed| setups.catch_up(window_share(elapsed, seconds)),
        |op, traced| {
            if every(params.advance_every, op) {
                rig.net.clock().advance_ms(ttl_jump);
            }
            let sample = if every(params.edit_every, op) {
                // Pairs: the first edit of a pair revokes a realm, the next
                // restores it; the read after each confirms the new state.
                let (owner, realm) = match open_pair.take() {
                    Some(pair) => pair,
                    None => {
                        let pair = pick_edit(&rig, &mut rng);
                        open_pair = Some(pair);
                        pair
                    }
                };
                edit_ns.push(timed_edit(&mut rig, owner, realm, tracer, &mut tally));
                confirm = Some(rig.resource_in(owner, realm));
                None
            } else {
                let event = events.next().expect("the traffic stream is infinite");
                let r = confirm.take().unwrap_or(event.resource);
                let spec = AccessSpec::read(rig.url(r));
                let client = clients.entry(event.requester).or_insert_with(|| {
                    RequesterClient::new(&rig.pop.requester_name(event.requester))
                });
                let t0 = Instant::now();
                let outcome = match (traced, tracer, &timed) {
                    (true, Some(tracer), Some(net)) => {
                        set_access_id(op as u32 + 1);
                        tracer.span(Kind::Access, 1, || client.access(net.as_ref(), &spec))
                    }
                    _ => client.access(rig.net.as_ref(), &spec),
                };
                let ns = t0.elapsed().as_nanos() as u64;
                tally.accesses += 1;
                tally.traced_accesses += u64::from(traced);
                tally.judge(&outcome, rig.grants(r), r);
                Some(ns)
            };
            if op + 1 == window {
                let requester = sum_requesters(clients.values().map(RequesterClient::stats));
                at_window = Some((SysSnap::take(&rig, tracer), tally, requester));
            }
            sample
        },
    );
    setups.catch_up(1.0);
    result.setups_ns = setups.times_ns;
    result.tally = tally;
    result.window_ns = window_ns;
    result.samples_ns = samples;
    result.edit_ns = edit_ns;
    result.modes = modes;
    if let (Some(tracer), Some(before), Some((at, window_tally, requester))) =
        (tracer, before, at_window)
    {
        let after = SysSnap::take(&rig, Some(tracer));
        result.traced = Some(Traced {
            access: WindowCounts::between(&before, &at, requester, window_tally),
            access_spans: after.spans.since(&before.spans),
            traced_edit_ns: tally.traced_edit_ns,
            dump: None,
        });
    }
    result
}
