#!/usr/bin/env bash
# Fail-closed mutants. Each mutant weakens one fail-closed check by
# changing one line, and the tests its row names must fail on it:
#
# * route classes (DESIGN.md §17): one route-table row's caller class,
#   killed by the route-authorization matrix tests
#   (`*_answers_each_caller_as_pinned`);
# * the Host's permit store (DESIGN.md §8, §12): an epoch-floor or base
#   check, a sieve entry's per-entry checks, a tier-2 purge, or a tier-2
#   lookup that ignores the expiry, the floor or the delegation tag, each
#   killed by the unit test named in its row;
# * the Host's digest memo (DESIGN.md §8): its field compares and its
#   length cap;
# * the SHA-256 block kernel: two schedule words, two round-constant
#   lanes. These run only where the CPU has the SHA extensions (on any
#   other CPU no test reaches the kernel) and are skipped elsewhere;
# * the message model (DESIGN.md §14): a packed field list's name
#   compare, the decoder's last-duplicate-wins rule, and the escaper's
#   reserved bytes;
# * the HTTP/1.1 head codec (DESIGN.md §15): the head terminator test,
#   the refusal of a header line without a colon, the MAX_HEADERS cap,
#   and the MAX_MESSAGE_BYTES cap on a declared content-length;
# * the round-trip accounting (DESIGN.md §9): the edge memo's compare of
#   both names, without which edges sharing a memo slot count as one;
# * the AM's sieve compiler (DESIGN.md §12): each built-in action of a
#   (grant, resource) pair judged on its own, not as the first one;
# * the AM's (host, owner) records (DESIGN.md §13): a record's `active`
#   check, and the push key looked up by both names, not by the owner's
#   first record.
#
#   bash scripts/mutants.sh            # every mutant
#   bash scripts/mutants.sh NAME...    # the named mutants only
#
# The tree is copied to a temporary directory, every file stamped with the
# time of the copy (so cargo never takes an earlier run's mutated build in
# the same target directory as fresh), and each mutant is applied there,
# one at a time; the working tree is never edited. First every
# named test filter must select at least one test and pass on the
# unmutated copy. Then each mutant must change exactly one line and
# build, and the lib tests its filter selects in its crate must fail.
# All runs share one CARGO_TARGET_DIR (the caller's if set, else one
# inside the temporary directory), so the dependencies build once.
# Prints one verdict per mutant and the total runtime; exits 1 if a
# filter is empty or fails unmutated, or a mutant survives, does not
# apply or does not build.
set -euo pipefail
cd "$(dirname "$0")/.."

routes='_answers_each_caller_as_pinned'
core='crates/host/src/core.rs'
sha='crates/umacrypto/src/sha.rs'
fields='crates/webenv/src/fields.rs'
codec='crates/webenv/src/codec.rs'

# name @@ crate @@ killing test filter @@ file @@ line as written @@ line mutated
MUTANTS=(
  "am-audit-view-anyone @@ ucam-am @@ $routes @@ crates/am/src/manager.rs @@ "'        ("/audit/view", Owner(Param("owner")), Self::web_audit_view), @@         ("/audit/view", Anyone, Self::web_audit_view),'
  "am-v2-delegate-registrant @@ ucam-am @@ $routes @@ crates/am/src/manager.rs @@ "'        (DELEGATE_V2_PATH, RegisteredHost("user"), Self::web_onboard), @@         (DELEGATE_V2_PATH, Registrant, Self::web_onboard),'
  "am-consent-pending-anyone @@ ucam-am @@ $routes @@ crates/am/src/manager.rs @@ "'        ("/consent/pending", Owner(Param("owner")), Self::web_pending), @@         ("/consent/pending", Anyone, Self::web_pending),'
  "host-delegate-done-anyone @@ ucam-host @@ $routes @@ crates/host/src/shell.rs @@ "'        (None, "/delegate/done", SessionFor("user"), Self::delegated), @@         (None, "/delegate/done", Anyone, Self::delegated),'
  "host-acl-anyone @@ ucam-host @@ $routes @@ crates/host/src/shell.rs @@ "'        (None, "/acl", ResourceOwner, Self::edit_acl), @@         (None, "/acl", Anyone, Self::edit_acl),'
  "storage-backup-anyone @@ ucam-host @@ $routes @@ crates/host/src/webstorage.rs @@ "'        (Some(Post), "/backup", Session, Self::backup), @@         (Some(Post), "/backup", crate::shell::Caller::Anyone, Self::backup),'
  "pics-import-anyone @@ ucam-host @@ $routes @@ crates/host/src/webpics.rs @@ "'        (Some(Post), "/import", Session, Self::import), @@         (Some(Post), "/import", crate::shell::Caller::Anyone, Self::import),'
  "cache-insert-below-floor @@ ucam-host @@ late_permit_below_floor_is_never_revived @@ $core @@ "'        if self.capacity == 0 || self.behind_floor(&entry) { @@         if self.capacity == 0 {'
  "delta-any-base @@ ucam-host @@ sieve_delta_base_mismatch_answers_resync @@ $core @@ "'        let admit = epochs.and_then(|e| e.generation) == Some(delta.base_epoch) @@         let admit = true'
  "delta-below-floor @@ ucam-host @@ sieve_delta_base_mismatch_answers_resync @@ $core @@ "'            && delta.epoch >= self.floor(&delta.owner, token); @@             && true;'
  "body-below-floor @@ ucam-host @@ epoch_advance_purges_the_sieve_and_blocks_stale_reinstalls @@ $core @@ "'        if epoch < self.floor(owner, &delegation.host_token) { @@         if false {'
  "sieve-entry-expired @@ ucam-host @@ sieve_installs_fail_closed_on_any_doubt @@ $core @@ "'                resource_ok && delegation_ok && entry.expires_at_ms > now @@                 resource_ok && delegation_ok'
  "sieve-entry-any-owner @@ ucam-host @@ sieve_installs_fail_closed_on_any_doubt @@ $core @@ "'                    .is_some_and(|r| r.owner == owner); @@                     .is_some();'
  "sieve-entry-overridden @@ ucam-host @@ sieve_installs_fail_closed_on_any_doubt @@ $core @@ "'                    .is_none_or(|over| over.host_token == config.host_token); @@                     .is_none_or(|_| true);'
  "deletion-keeps-cache @@ ucam-host @@ a_deleted_resource_takes_its_cached_permits_along @@ $core @@ "'            entry.resource_id != resource_id @@             true'
  "delegation-keeps-cache @@ ucam-host @@ an_owner_switching_ams_voids_their_cached_permits @@ $core @@ "'            entry.owner != owner @@             true'
  "lookup-ignores-expiry @@ ucam-host @@ stale_grace_serves_expired_permit_until_window_closes @@ $core @@ "'            Some(entry) if entry.expires_at_ms > now => { @@             Some(entry) => {'
  "lookup-ignores-floor @@ ucam-host @@ policy_epoch_advance_invalidates_cached_permit @@ $core @@ "'            e.owner != owner || e.epoch >= floor(&e.delegation.host_token) @@             true'
  "lookup-ignores-delegation @@ ucam-host @@ a_permit_settled_after_a_switch_is_not_served_under_the_new_delegation @@ $core @@ "'        Arc::ptr_eq(&entry.delegation, delegation).then_some(entry) @@         Some(entry)'
  "memo-compares-lengths @@ ucam-host @@ the_digest_memo_compares_bytes_not_lengths @@ $core @@ "'            held == field.as_bytes() @@             held.len() == field.len()'
  "memo-skips-requester @@ ucam-host @@ cached_permit_is_bound_to_the_whole_access_tuple @@ $core @@ "'        fields.iter().zip(self.ends).all(|(field, end)| { @@         fields.iter().zip(self.ends).take(3).all(|(field, end)| {'
  "memo-no-length-cap @@ ucam-host @@ an_oversized_tuple_bypasses_the_digest_memo @@ $core @@ "'    if len > DIGEST_MEMO_TUPLE_CAP { @@     if false {'
  "sha-schedule-words @@ ucam-crypto @@ kernel_matches_portable_on_random_blocks @@ $sha @@ "'        let mut m0 = _mm_set_epi32(w[3], w[2], w[1], w[0]); @@         let mut m0 = _mm_set_epi32(w[2], w[3], w[1], w[0]);'
  "sha-round-constant-lanes @@ ucam-crypto @@ kernel_matches_portable_on_random_blocks @@ $sha @@ "'                let wk = _mm_add_epi32($m, _mm_set_epi32(k3, k2, k1, k0)); @@                 let wk = _mm_add_epi32($m, _mm_set_epi32(k2, k3, k1, k0));'
  "fields-compare-lengths @@ ucam-webenv @@ names_are_compared_by_their_bytes_not_their_lengths @@ $fields @@ "'                && &self.buf.as_bytes()[start..name_end] == name.as_bytes() @@                 && true'
  "decoder-keeps-first-duplicate @@ ucam-webenv @@ last_value @@ $fields @@ "'            let later = order.get(i + 1).map(|&next| self.pair(next).0); @@             let later = i.checked_sub(1).map(|prev| self.pair(order[prev]).0);'
  "escaper-passes-percent-and-amp @@ ucam-webenv @@ the_escaper @@ crates/webenv/src/url.rs @@         | (b == b'~') @@         | (b == b'~') | (b == b'%') | (b == b'&')"
  "edge-memo-trusts-its-slot @@ ucam-webenv @@ edges_alike_at_both_ends_are_counted_apart @@ crates/webenv/src/net.rs @@ "'                Some(held) if held.block == self.id && held.from == from && held.to == to => { @@                 Some(held) if held.block == self.id => {'
  # awk reads a row's two lines with escapes, so `\\r` stands for `\r`.
  "head-end-bare-lf @@ ucam-webenv @@ find_head_end_needs_a_full_crlf_pair @@ $codec @@ "'        if buf[lf - 3..lf] == *b"\\r\\n\\r" { @@         if buf[lf - 2..lf] == *b"\\n\\r" {'
  "header-without-colon-skipped @@ ucam-webenv @@ malformed_heads_fail_closed @@ $codec @@ "'            return Err("bad header"); @@             continue;'
  "max-headers-lifted @@ ucam-webenv @@ malformed_heads_fail_closed @@ $codec @@ "'        if count == MAX_HEADERS { @@         if false {'
  "content-length-uncapped @@ ucam-webenv @@ content_length_bounds @@ $codec @@ "'        if len > MAX_MESSAGE_BYTES { @@         if false {'
  "compile-judges-one-action @@ ucam-am @@ the_compile_judges_each_action_on_its_own @@ crates/am/src/manager.rs @@ "'                    g.tuple.action = builtin[i].clone(); @@                     g.tuple.action = builtin[0].clone();'
  "record-ignores-revocation @@ ucam-am @@ a_revoked_delegation_refuses_its_host_token @@ crates/am/src/trust.rs @@ "'        if !record.active { @@         if false {'
  "push-key-by-owner-only @@ ucam-am @@ each_hosts_pushes_are_signed_with_its_own_delegations_key @@ crates/am/src/trust.rs @@ "'        let record = self.record(host, user)?; @@         let record = self.by_user.get(user)?.first()?;'
)

started=$(date +%s)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
tar --exclude=./target --exclude=./perfbench/target --exclude=./.git -cf - . | tar -xmf - -C "$tmp"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$tmp/target}"

# Splits a mutant row into its six fields.
fields() {
  local rest="$1"
  name="${rest%% @@ *}" && rest="${rest#* @@ }"
  crate="${rest%% @@ *}" && rest="${rest#* @@ }"
  filter="${rest%% @@ *}" && rest="${rest#* @@ }"
  file="${rest%% @@ *}" && rest="${rest#* @@ }"
  from="${rest%% @@ *}"
  to="${rest#* @@ }"
}

# Whether the mutant just split is among the ones the command line names.
selected() {
  [ "$#" -eq 0 ] || [[ " $* " == *" $name "* ]]
}

# Whether the mutant just split can be reached on this CPU: a SHA-256
# kernel mutant needs the SHA extensions, the rest need nothing.
reachable() {
  [ "$file" != "$sha" ] || grep -qw sha_ni /proc/cpuinfo 2>/dev/null
}

failed=0
declare -A checked=()
for mutant in "${MUTANTS[@]}"; do
  fields "$mutant"
  selected "$@" || continue
  reachable || continue
  [ -z "${checked[$crate $filter]:-}" ] || continue
  checked[$crate $filter]=1
  if ! out="$(cd "$tmp" && cargo test -q -p "$crate" --lib "$filter" 2>&1)"; then
    echo "FAIL $crate $filter: fails on the unmutated tree"
    failed=1
  elif ! grep -q '^running [1-9]' <<<"$out"; then
    echo "FAIL $crate $filter: selects no test"
    failed=1
  fi
done

for mutant in "${MUTANTS[@]}"; do
  fields "$mutant"
  selected "$@" || continue
  if ! reachable; then
    echo "skip $name: no test reaches the SHA-256 kernel on this CPU"
    continue
  fi
  awk -v from="$from" -v to="$to" \
    '$0 == from { print to; next } { print }' \
    "$file" >"$tmp/$file"
  changed="$(diff "$file" "$tmp/$file" | grep -c '^[<>]' || true)"
  if [ "$changed" != 2 ]; then
    echo "FAIL $name: the mutant changed $((changed / 2)) lines of $file, not one"
    failed=1
  elif ! (cd "$tmp" && cargo test -q -p "$crate" --lib --no-run >/dev/null 2>&1); then
    echo "FAIL $name: the mutant does not build"
    failed=1
  elif (cd "$tmp" && cargo test -q -p "$crate" --lib "$filter" >/dev/null 2>&1); then
    echo "FAIL $name: survived, no test matching $filter failed"
    failed=1
  else
    echo "ok   $name: killed by $filter"
  fi
  cp "$file" "$tmp/$file"
done

echo "mutants: $(($(date +%s) - started)) s"
exit "$failed"
