//! Self-checks of the benchmark's traced run, on shrunken shapes:
//!
//! * every count-type per-layer metric repeats exactly across two runs
//!   of one seed, on every workload;
//! * `churn_sim`'s counts (wire bytes included) equal a loopback-HTTP
//!   replay of the same schedule — the cross-backend work-count identity;
//! * on SimNet the route-aggregate self times the report uses equal the
//!   same-thread span-stack self times, the layers together cover every
//!   span's self time exactly once, and that never exceeds (and covers
//!   most of) the traced blocks' wall time.
//!
//! `--seconds 0` makes every run exactly its count window long.

use ucam_perfbench::report::{self, Metric, Nature};
use ucam_perfbench::rig::Backend;
use ucam_perfbench::trace::Kind;
use ucam_perfbench::workloads::{self, Params, Workload};

fn small(workload: Workload) -> Params {
    let mut p = workload.params();
    p.setup_reps = 1;
    match workload {
        Workload::WarmHttp => {
            p.shape.users = 64;
            p.shape.resources = 64;
            p.block_ops = 8;
        }
        Workload::ZipfPop => {
            p.shape.users = 2_000;
            p.shape.resources = 2_000;
            p.shape.hosts = 8;
            p.shape.requesters = 64;
            p.block_ops = 256;
            p.count_window = 2_048;
        }
        Workload::Churn => {
            p.block_ops = 256;
            p.count_window = 2_048;
        }
    }
    p
}

fn counts(workload: Workload, params: &Params, seed: u64) -> Vec<Metric> {
    let result = workloads::run(workload, params, seed, 0.0, true, None);
    assert!(
        report::correct(&result),
        "{}: wrong output",
        workload.name()
    );
    assert_eq!(result.tally.failed, 0);
    report::per_layer(&result)
        .into_iter()
        .filter(|m| m.nature == Nature::Count)
        .collect()
}

#[test]
fn count_metrics_repeat_exactly_for_a_seed() {
    for workload in workloads::WORKLOADS {
        let params = small(workload);
        let first = counts(workload, &params, 7);
        let second = counts(workload, &params, 7);
        assert_eq!(first, second, "{} counts diverged", workload.name());
        let rts = first
            .iter()
            .find(|m| m.name == "webenv.rts_per_access")
            .expect("reported");
        assert!(rts.value >= 1.0, "{}: {rts:?}", workload.name());
    }
}

#[test]
fn churn_counts_equal_an_http_replay() {
    let sim = small(Workload::Churn);
    let mut http = sim.clone();
    http.backend = Backend::Http;
    let on_sim = counts(Workload::Churn, &sim, 11);
    let on_http = counts(Workload::Churn, &http, 11);
    assert_eq!(on_http, on_sim);
    let value = |name: &str| on_sim.iter().find(|m| m.name == name).expect(name).value;
    // The schedule really exercises the edit and revalidation paths.
    assert!(value("webenv.bytes_per_access") > 0.0);
    assert!(value("requester.reauthorizations_per_access") > 0.0);
    assert!(value("host.sieve_delta_installs_per_edit") > 0.0);
    assert!(value("host.revalidations_unchanged_ratio") > 0.0);
}

#[test]
fn simnet_layers_add_up_exactly() {
    let result = workloads::run(
        Workload::ZipfPop,
        &small(Workload::ZipfPop),
        3,
        0.0,
        true,
        None,
    );
    let traced = result.traced.as_ref().expect("traced run");
    let s = &traced.access_spans;
    let top = [Kind::HostFiles, Kind::AmAuthorize, Kind::AmAuthorizeBatch];
    let decide = [
        Kind::AmDecisionV1,
        Kind::AmDecisionV2,
        Kind::AmDecisionBatch,
    ];
    // Same-thread stack self times equal the route-aggregate formulas.
    assert_eq!(
        s.self_time(&[Kind::Dispatch]),
        s.dur(&[Kind::Dispatch]) - s.dur(&top)
    );
    assert_eq!(
        s.self_time(&[Kind::HostFiles]),
        s.dur(&[Kind::HostFiles]) - s.dur(&decide)
    );
    assert_eq!(
        s.self_time(&[Kind::Access]),
        s.dur(&[Kind::Access]) - s.dur(&[Kind::Dispatch])
    );
    let layers = report::Layers::of(&result);
    let n = s.items(Kind::Access) as f64;
    let stack = (s.self_time(&[Kind::Access]) + s.self_time(&[Kind::Dispatch])) as f64 / n;
    assert!((layers.requester_ns - stack).abs() < 1e-6 * stack);
    // The same-thread self times of every span kind partition the access
    // spans: the layers cover all of them, nothing twice.
    let every_kind = s.self_time(&Kind::ALL);
    assert_eq!(every_kind, s.dur(&[Kind::Access]));
    let attributed = layers.requester_ns + layers.host_ns + layers.am_ns;
    assert!((attributed - every_kind as f64 / n).abs() < 1e-6 * attributed);
    // Measured against the traced blocks' wall time per access, the spans
    // cover most of it and never more: what is left is the load loop's
    // own bookkeeping.
    assert!(attributed <= layers.end_to_end_ns);
    assert!(
        layers.unattributed_share() < 0.5,
        "spans cover only {attributed:.0} of {:.0} ns per access",
        layers.end_to_end_ns
    );
}
