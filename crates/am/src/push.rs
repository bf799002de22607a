//! The asynchronous policy-epoch push channel (AM → Host).
//!
//! Earlier revisions modeled epoch propagation as a synchronous call: the
//! moment an owner's policy changed, every Host's decision cache learned
//! the new epoch "for free". Real networks do not work that way — a push
//! is a message, and messages are lost, delayed and retried. This module
//! makes the push a first-class [`ucam_webenv::SimNet`] message with its
//! own due-time, deterministic backoff and delivery bookkeeping, so the
//! chaos soak can *measure* the revocation-visibility window instead of
//! assuming it is zero (DESIGN.md §11).
//!
//! At population scale the channel is a **fan-out**, not a list: one AM
//! serves up to thousands of Hosts, but any one owner's resources live on
//! a handful of them. `PushFanOut` therefore keeps *per-owner
//! subscription sets* (plus a legacy global target list for small rigs):
//! an epoch advance fans out only to the Hosts subscribed to that owner,
//! and the pending queue is sharded by (host, owner) hash with O(1)
//! coalescing — a 512-Host epoch advance neither scans one flat vector
//! nor serializes behind one lock (DESIGN.md §13).
//!
//! Properties the rest of the system relies on:
//!
//! * **Coalescing** — pushes are keyed by (host, owner); a burst of policy
//!   edits collapses to one pending push carrying the *maximum* epoch.
//!   Epochs are monotonic, so delivering only the newest is lossless.
//! * **No drops** — a push retries forever (with capped backoff). A
//!   dropped revocation would leave a Host's visible policy stale until
//!   cache TTL expiry; retrying forever keeps the visibility window
//!   bounded by partition length + backoff, which the soak asserts.
//! * **Determinism** — backoff is a fixed doubling schedule with no
//!   jitter, and due pushes are drained in sorted (host, owner) order, so
//!   a seeded run replays exactly.
//! * **Bounded drain** — `PushFanOut::take_due` accepts a batch limit;
//!   the excess stays queued (still due), so one pump call over a
//!   million-owner backlog does O(limit) deliveries, not O(backlog).
//!
//! Safety note: a push's plain epoch parameters can only *lower* trust
//! (they invalidate cached permits; see `HostCore::note_policy_epoch`'s
//! monotonicity), so they need no authentication — a forged or replayed
//! push is at worst a cache flush. A push *body* is different: it may
//! carry a compiled capability sieve (`ucam_webenv::protocol::SieveBody`)
//! or a delta against one, which raises trust, so the body is HMAC-signed
//! with the delegation's `host_token` and the Host installs nothing
//! unless the signature verifies (DESIGN.md §12).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

/// Delivery counters for the epoch push channel.
///
/// Counter semantics (pinned by `stats_distinguish_fanout_from_schedules`):
/// one `schedule()` call is **one** `scheduled` owner-epoch advance; the
/// subscription fan-out it triggers adds one `fanned_out` per (host,
/// owner) pair, of which `coalesced` were absorbed into a still-pending
/// push; `delivered` counts per-Host deliveries (each a POST that landed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochPushStats {
    /// Owner epoch advances handed to the channel (one per schedule call,
    /// regardless of how many Hosts it fans out to).
    pub scheduled: u64,
    /// Per-(host, owner) pushes produced by subscription fan-out.
    pub fanned_out: u64,
    /// Fan-outs absorbed into an already-pending push for the same
    /// (host, owner).
    pub coalesced: u64,
    /// Pushes delivered to a Host (one per POST that landed).
    pub delivered: u64,
    /// Delivery attempts that failed at the transport and were requeued.
    pub retries: u64,
    /// Worst observed scheduling-to-delivery lag in milliseconds — the
    /// measured revocation-visibility window contribution of the channel.
    pub max_lag_ms: u64,
    /// Delivered pushes that carried a compiled capability sieve body
    /// (always ≤ `delivered`; zero when sieve push is disabled).
    pub sieved: u64,
    /// Delta sieve bodies a Host rejected for an unknown base generation;
    /// each forces one full-body reship (DESIGN.md §13).
    pub resyncs: u64,
    /// Delivered pushes that carried a decision-level invalidation body
    /// (DESIGN.md §16; disjoint from `sieved` — a sieve body supersedes
    /// the invalidation list; zero when invalidation push is disabled).
    pub invalidations: u64,
}

/// One undelivered epoch push.
#[derive(Debug, Clone)]
pub(crate) struct PendingPush {
    /// Host authority to deliver to.
    pub(crate) host: String,
    /// Owner whose epoch advanced.
    pub(crate) owner: String,
    /// The (coalesced, maximum) epoch to announce.
    pub(crate) epoch: u64,
    /// When the oldest coalesced-in advance was scheduled — the basis of
    /// the lag measurement.
    pub(crate) first_scheduled_ms: u64,
    /// Earliest time the next delivery attempt may run.
    pub(crate) due_at_ms: u64,
    /// Failed delivery attempts so far.
    pub(crate) attempts: u32,
}

/// First retry delay after a failed push delivery.
const BASE_BACKOFF_MS: u64 = 25;
/// Retry delay ceiling; a long partition costs at most this much extra
/// visibility lag once it heals.
const MAX_BACKOFF_MS: u64 = 400;
/// How many ways the pending queue is sharded. Coalescing for one
/// (host, owner) pair only contends with pairs hashing to the same shard.
const PUSH_SHARDS: usize = 16;

/// Who receives an owner's epoch pushes.
#[derive(Debug, Default)]
struct SubscriptionTable {
    /// Hosts subscribed to **every** owner (small rigs; the pre-fan-out
    /// behavior of `set_epoch_push_target`).
    global: Vec<String>,
    /// owner → Hosts subscribed to that owner only.
    per_owner: HashMap<String, Vec<String>>,
}

/// One pending-queue shard. Ordered so a bounded drain selects a
/// deterministic subset without scanning (or sorting) the whole backlog.
type PendingShard = BTreeMap<(String, String), PendingPush>;

/// The push fan-out owned by an `AuthorizationManager`. Internally
/// synchronized: subscriptions behind a read-mostly lock, the pending
/// queue sharded by (host, owner) hash, counters as atomics.
#[derive(Debug, Default)]
pub(crate) struct PushFanOut {
    subs: RwLock<SubscriptionTable>,
    shards: [Mutex<PendingShard>; PUSH_SHARDS],
    scheduled: AtomicU64,
    fanned_out: AtomicU64,
    coalesced: AtomicU64,
    delivered: AtomicU64,
    retries: AtomicU64,
    max_lag_ms: AtomicU64,
    sieved: AtomicU64,
    resyncs: AtomicU64,
    invalidations: AtomicU64,
}

fn fnv1a(parts: &[&str]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for part in parts {
        for byte in part.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator keeps ("ab","c") and ("a","bc") distinct.
        hash ^= 0xff;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl PushFanOut {
    /// Registers a Host to receive pushes for every owner; idempotent.
    pub(crate) fn add_global_target(&self, host: &str) {
        let mut subs = self.subs.write();
        if !subs.global.iter().any(|t| t == host) {
            subs.global.push(host.to_owned());
        }
    }

    /// Subscribes `host` to `owner`'s epoch pushes only; idempotent.
    pub(crate) fn subscribe(&self, host: &str, owner: &str) {
        let mut subs = self.subs.write();
        if subs.global.iter().any(|t| t == host) {
            return; // already covered by a global subscription
        }
        let hosts = subs.per_owner.entry(owner.to_owned()).or_default();
        if !hosts.iter().any(|t| t == host) {
            hosts.push(host.to_owned());
        }
    }

    /// Whether any Host is subscribed at all (lets callers skip lock
    /// traffic on the common no-push configuration).
    pub(crate) fn has_targets(&self) -> bool {
        let subs = self.subs.read();
        !subs.global.is_empty() || !subs.per_owner.is_empty()
    }

    fn shard_for(&self, host: &str, owner: &str) -> &Mutex<PendingShard> {
        &self.shards[(fnv1a(&[host, owner]) as usize) % PUSH_SHARDS]
    }

    /// Queues `owner`'s new epoch for every subscribed Host, coalescing
    /// with any still-pending push for the same (host, owner).
    pub(crate) fn schedule(&self, now_ms: u64, owner: &str, epoch: u64) {
        self.scheduled.fetch_add(1, Ordering::Relaxed);
        let targets: Vec<String> = {
            let subs = self.subs.read();
            let mut targets = subs.global.clone();
            if let Some(hosts) = subs.per_owner.get(owner) {
                for host in hosts {
                    if !targets.iter().any(|t| t == host) {
                        targets.push(host.clone());
                    }
                }
            }
            targets
        };
        for host in targets {
            self.fanned_out.fetch_add(1, Ordering::Relaxed);
            let mut shard = self.shard_for(&host, owner).lock();
            match shard.entry((host.clone(), owner.to_owned())) {
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let existing = slot.get_mut();
                    existing.epoch = existing.epoch.max(epoch);
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(PendingPush {
                        host,
                        owner: owner.to_owned(),
                        epoch,
                        first_scheduled_ms: now_ms,
                        due_at_ms: now_ms,
                        attempts: 0,
                    });
                }
            }
        }
    }

    /// Removes and returns up to `limit` pushes due at `now_ms`; the
    /// returned batch is sorted by (host, owner) and batch *selection* is
    /// deterministic (shards visited in order, each shard ordered), so a
    /// seeded run replays exactly. Excess due pushes are never touched:
    /// one pump over a million-owner backlog does O(limit) work plus the
    /// skip-scan over not-yet-due entries, not an O(backlog) drain-sort-
    /// reinsert cycle.
    pub(crate) fn take_due(&self, now_ms: u64, limit: usize) -> Vec<PendingPush> {
        let mut due: Vec<PendingPush> = Vec::new();
        for shard in &self.shards {
            if due.len() >= limit {
                break;
            }
            let mut shard = shard.lock();
            if shard.is_empty() {
                continue;
            }
            let mut keys: Vec<(String, String)> = Vec::new();
            for (key, push) in shard.iter() {
                if push.due_at_ms <= now_ms {
                    keys.push(key.clone());
                    if due.len() + keys.len() >= limit {
                        break;
                    }
                }
            }
            for key in keys {
                if let Some(push) = shard.remove(&key) {
                    due.push(push);
                }
            }
        }
        due.sort_by(|a, b| (&a.host, &a.owner).cmp(&(&b.host, &b.owner)));
        due
    }

    /// Puts a push back untouched (excess from a bounded drain), merging
    /// with anything scheduled for the pair in the meantime.
    fn reinsert(&self, push: PendingPush) {
        let mut shard = self.shard_for(&push.host, &push.owner).lock();
        merge_into(&mut shard, push);
    }

    /// Requeues a push whose delivery failed at the transport, with the
    /// next slot of the deterministic backoff schedule. If a newer epoch
    /// was scheduled for the same (host, owner) while this one was in
    /// flight, the two merge.
    pub(crate) fn requeue(&self, mut push: PendingPush, now_ms: u64) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        push.attempts += 1;
        let backoff = (BASE_BACKOFF_MS << push.attempts.min(16)).min(MAX_BACKOFF_MS);
        push.due_at_ms = now_ms + backoff;
        self.reinsert(push);
    }

    /// Requeues a push whose delta body the Host rejected (unknown base
    /// generation): due immediately — the reship is a correctness matter,
    /// not a transport failure, so it skips the backoff schedule.
    pub(crate) fn requeue_for_resync(&self, mut push: PendingPush, now_ms: u64) {
        self.resyncs.fetch_add(1, Ordering::Relaxed);
        push.due_at_ms = now_ms;
        self.reinsert(push);
    }

    /// Records a successful delivery and folds its lag into the stats.
    pub(crate) fn record_delivery(&self, now_ms: u64, push: &PendingPush) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        let lag = now_ms.saturating_sub(push.first_scheduled_ms);
        self.max_lag_ms.fetch_max(lag, Ordering::Relaxed);
    }

    /// Records that a delivered push carried a compiled sieve body.
    pub(crate) fn record_sieved(&self) {
        self.sieved.fetch_add(1, Ordering::Relaxed);
    }

    /// Records that a delivered push carried an invalidation body.
    pub(crate) fn record_invalidation(&self) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Undelivered push count.
    pub(crate) fn pending_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Snapshot of the delivery counters.
    pub(crate) fn stats(&self) -> EpochPushStats {
        EpochPushStats {
            scheduled: self.scheduled.load(Ordering::Relaxed),
            fanned_out: self.fanned_out.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            max_lag_ms: self.max_lag_ms.load(Ordering::Relaxed),
            sieved: self.sieved.load(Ordering::Relaxed),
            resyncs: self.resyncs.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// Merges `push` into a shard, keeping max epoch, oldest schedule time,
/// earliest due time and the worst attempt count.
fn merge_into(shard: &mut PendingShard, push: PendingPush) {
    match shard.entry((push.host.clone(), push.owner.clone())) {
        std::collections::btree_map::Entry::Occupied(mut slot) => {
            let existing = slot.get_mut();
            existing.epoch = existing.epoch.max(push.epoch);
            existing.first_scheduled_ms = existing.first_scheduled_ms.min(push.first_scheduled_ms);
            existing.due_at_ms = existing.due_at_ms.min(push.due_at_ms);
            existing.attempts = existing.attempts.max(push.attempts);
        }
        std::collections::btree_map::Entry::Vacant(slot) => {
            slot.insert(push);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_coalesce_to_max_epoch_per_host_owner() {
        let ch = PushFanOut::default();
        ch.add_global_target("host-a.example");
        ch.add_global_target("host-b.example");
        ch.add_global_target("host-a.example"); // idempotent
        ch.schedule(100, "bob", 2);
        ch.schedule(150, "bob", 4);
        ch.schedule(150, "bob", 3);
        assert_eq!(ch.pending_len(), 2); // one per host, coalesced
        let due = ch.take_due(200, usize::MAX);
        assert_eq!(due.len(), 2);
        assert!(due.iter().all(|p| p.epoch == 4));
        assert!(due.iter().all(|p| p.first_scheduled_ms == 100));
    }

    /// Pins the counter semantics the fan-out introduced: `scheduled`
    /// counts owner-epoch advances, `fanned_out` counts per-(host, owner)
    /// pushes, `coalesced` the absorbed subset, and `delivered` per-Host
    /// deliveries — four distinct numbers once an owner has several
    /// subscribed Hosts.
    #[test]
    fn stats_distinguish_fanout_from_schedules() {
        let ch = PushFanOut::default();
        ch.add_global_target("host-a.example");
        ch.add_global_target("host-b.example");
        ch.schedule(100, "bob", 2);
        ch.schedule(150, "bob", 4);
        ch.schedule(150, "bob", 3);
        let stats = ch.stats();
        assert_eq!(stats.scheduled, 3, "one per owner epoch advance");
        assert_eq!(stats.fanned_out, 6, "each advance reaches two hosts");
        assert_eq!(stats.coalesced, 4, "later advances merged per host");
        assert_eq!(stats.delivered, 0);
        for push in ch.take_due(200, usize::MAX) {
            ch.record_delivery(200, &push);
        }
        let stats = ch.stats();
        assert_eq!(stats.delivered, 2, "one delivery per host, not per advance");
        assert_eq!(stats.scheduled, 3, "deliveries do not recount schedules");
    }

    #[test]
    fn per_owner_subscriptions_scope_the_fan_out() {
        let ch = PushFanOut::default();
        ch.subscribe("host-a.example", "alice");
        ch.subscribe("host-b.example", "bob");
        ch.subscribe("host-b.example", "bob"); // idempotent
        assert!(ch.has_targets());
        ch.schedule(10, "alice", 2);
        ch.schedule(10, "bob", 5);
        ch.schedule(10, "carol", 9); // nobody subscribed to carol
        let due = ch.take_due(10, usize::MAX);
        assert_eq!(due.len(), 2);
        assert_eq!(
            (due[0].host.as_str(), due[0].owner.as_str()),
            ("host-a.example", "alice")
        );
        assert_eq!(
            (due[1].host.as_str(), due[1].owner.as_str()),
            ("host-b.example", "bob")
        );
        let stats = ch.stats();
        assert_eq!(stats.scheduled, 3);
        assert_eq!(stats.fanned_out, 2, "carol's advance fans out to nobody");
    }

    #[test]
    fn global_targets_cover_every_owner_and_dedupe_subscriptions() {
        let ch = PushFanOut::default();
        ch.add_global_target("host.example");
        ch.subscribe("host.example", "bob"); // redundant with global
        ch.schedule(0, "bob", 1);
        assert_eq!(
            ch.pending_len(),
            1,
            "global + per-owner must not double-push"
        );
        ch.schedule(0, "alice", 1);
        assert_eq!(ch.pending_len(), 2, "global target hears every owner");
    }

    #[test]
    fn bounded_drain_leaves_excess_queued_and_due() {
        let ch = PushFanOut::default();
        for i in 0..8 {
            ch.subscribe(&format!("host-{i}.example"), "bob");
        }
        ch.schedule(0, "bob", 1);
        let first = ch.take_due(0, 3);
        assert_eq!(first.len(), 3);
        assert_eq!(ch.pending_len(), 5, "excess stays queued");
        // Each batch is sorted, and successive bounded drains cover every
        // subscribed host exactly once — nothing is lost or duplicated.
        assert!(first.windows(2).all(|w| w[0].host <= w[1].host));
        let rest = ch.take_due(0, usize::MAX);
        assert_eq!(rest.len(), 5, "excess is still due, not backed off");
        let mut hosts: Vec<&str> = first
            .iter()
            .chain(rest.iter())
            .map(|p| p.host.as_str())
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), 8, "both drains together cover every host");
    }

    #[test]
    fn take_due_respects_due_time_and_orders_deterministically() {
        let ch = PushFanOut::default();
        ch.add_global_target("z.example");
        ch.add_global_target("a.example");
        ch.schedule(100, "bob", 2);
        assert!(ch.take_due(99, usize::MAX).is_empty());
        let due = ch.take_due(100, usize::MAX);
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].host, "a.example");
        assert_eq!(due[1].host, "z.example");
        assert_eq!(ch.pending_len(), 0);
    }

    #[test]
    fn requeue_backs_off_and_merges_with_fresher_schedules() {
        let ch = PushFanOut::default();
        ch.add_global_target("host.example");
        ch.schedule(0, "bob", 2);
        let mut due = ch.take_due(0, usize::MAX);
        let push = due.pop().unwrap();
        // A fresher epoch lands while the first delivery is in flight.
        ch.schedule(10, "bob", 3);
        ch.requeue(push, 20);
        assert_eq!(ch.pending_len(), 1);
        let merged = ch.take_due(u64::MAX, usize::MAX).pop().unwrap();
        assert_eq!(merged.epoch, 3);
        assert_eq!(merged.first_scheduled_ms, 0);
        assert_eq!(ch.stats().retries, 1);
    }

    #[test]
    fn backoff_is_capped() {
        let ch = PushFanOut::default();
        ch.add_global_target("host.example");
        ch.schedule(0, "bob", 2);
        let mut push = ch.take_due(0, usize::MAX).pop().unwrap();
        for _ in 0..10 {
            ch.requeue(push.clone(), 1000);
            push = ch.take_due(u64::MAX, usize::MAX).pop().unwrap();
        }
        assert!(push.due_at_ms <= 1000 + MAX_BACKOFF_MS);
    }

    #[test]
    fn resync_requeue_is_immediate_and_counted() {
        let ch = PushFanOut::default();
        ch.add_global_target("host.example");
        ch.schedule(0, "bob", 2);
        let push = ch.take_due(0, usize::MAX).pop().unwrap();
        ch.requeue_for_resync(push, 40);
        let again = ch.take_due(40, usize::MAX).pop().unwrap();
        assert_eq!(again.epoch, 2, "resync reships without backoff");
        let stats = ch.stats();
        assert_eq!(stats.resyncs, 1);
        assert_eq!(stats.retries, 0, "a resync is not a transport retry");
    }

    #[test]
    fn delivery_tracks_worst_lag() {
        let ch = PushFanOut::default();
        ch.add_global_target("host.example");
        ch.schedule(100, "bob", 2);
        let push = ch.take_due(100, usize::MAX).pop().unwrap();
        ch.record_delivery(340, &push);
        assert_eq!(ch.stats().delivered, 1);
        assert_eq!(ch.stats().max_lag_ms, 240);
    }
}
