package update

// Bug zoo: historical defects reintroducible behind test-only flags, so
// the scenario fuzzer's oracle (internal/fuzz) can prove it would have
// caught them. The flags default to off and must only ever be set by
// tests — production code paths never read true here.

// BugRollbackReofferAll, when true, makes Staged's rollback re-offer
// every campaign interface onto the old endpoint instead of only the set
// the old version provided before the update — the ghost-service leak
// the verified update originally shipped with: an interface only
// the new version introduced survives the rollback, homed on a provider
// that never implemented it.
var BugRollbackReofferAll bool
