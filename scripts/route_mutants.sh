#!/usr/bin/env bash
# Route-class mutants (DESIGN.md §17). Each mutant weakens the caller
# class of one route-table row; the route-authorization matrix tests
# (`*_answers_each_caller_as_pinned`) must fail on every one.
#
#   bash scripts/route_mutants.sh            # every mutant
#   bash scripts/route_mutants.sh NAME...    # the named mutants only
#
# The tree is copied to a temporary directory and each mutant is applied
# there, one at a time; the working tree is never edited. A mutant must
# change exactly one line and must build, and then the matrix tests of
# its crate must fail. All mutants share one CARGO_TARGET_DIR (the
# caller's if set, else one inside the temporary directory), so the
# dependencies build once. Prints one verdict per mutant and the total
# runtime; exits 1 if a mutant survives, does not apply or does not
# build.
set -euo pipefail
cd "$(dirname "$0")/.."

# name|crate|file|row as written|row weakened
MUTANTS=(
  'am-audit-view-anyone|ucam-am|crates/am/src/manager.rs|        ("/audit/view", Owner(Param("owner")), Self::web_audit_view),|        ("/audit/view", Anyone, Self::web_audit_view),'
  'am-v2-delegate-registrant|ucam-am|crates/am/src/manager.rs|        (DELEGATE_V2_PATH, RegisteredHost("user"), Self::web_onboard),|        (DELEGATE_V2_PATH, Registrant, Self::web_onboard),'
  'am-consent-pending-anyone|ucam-am|crates/am/src/manager.rs|        ("/consent/pending", Owner(Param("owner")), Self::web_pending),|        ("/consent/pending", Anyone, Self::web_pending),'
  'host-delegate-done-anyone|ucam-host|crates/host/src/shell.rs|        (None, "/delegate/done", SessionFor("user"), Self::delegated),|        (None, "/delegate/done", Anyone, Self::delegated),'
  'host-acl-anyone|ucam-host|crates/host/src/shell.rs|        (None, "/acl", ResourceOwner, Self::edit_acl),|        (None, "/acl", Anyone, Self::edit_acl),'
  'storage-backup-anyone|ucam-host|crates/host/src/webstorage.rs|        (Some(Post), "/backup", Session, Self::backup),|        (Some(Post), "/backup", crate::shell::Caller::Anyone, Self::backup),'
  'pics-import-anyone|ucam-host|crates/host/src/webpics.rs|        (Some(Post), "/import", Session, Self::import),|        (Some(Post), "/import", crate::shell::Caller::Anyone, Self::import),'
)

started=$(date +%s)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
tar --exclude=./target --exclude=./perfbench/target --exclude=./.git -cf - . | tar -xf - -C "$tmp"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$tmp/target}"

failed=0
for mutant in "${MUTANTS[@]}"; do
  IFS='|' read -r name crate file from to <<<"$mutant"
  if [ "$#" -gt 0 ] && [[ " $* " != *" $name "* ]]; then
    continue
  fi
  awk -v from="$from" -v to="$to" \
    '$0 == from { print to; n++; next } { print } END { exit n == 1 ? 0 : 3 }' \
    "$file" >"$tmp/$file" || true
  changed="$(diff "$file" "$tmp/$file" | grep -c '^[<>]' || true)"
  if [ "$changed" != 2 ]; then
    echo "FAIL $name: the mutant changed $((changed / 2)) lines of $file, not one"
    failed=1
  elif ! (cd "$tmp" && cargo test -q -p "$crate" --lib --no-run >/dev/null 2>&1); then
    echo "FAIL $name: the mutant does not build"
    failed=1
  elif (cd "$tmp" && cargo test -q -p "$crate" --lib _answers_each_caller_as_pinned >/dev/null 2>&1); then
    echo "FAIL $name: survived, no matrix test failed"
    failed=1
  else
    echo "ok   $name: killed by the matrix tests"
  fi
  cp "$file" "$tmp/$file"
done

echo "route mutants: $(($(date +%s) - started)) s"
exit "$failed"
