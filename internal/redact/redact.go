// Package redact is the diagnostics redaction vocabulary of the stack
// (DESIGN.md §16): the only sanctioned ways to mention a record value, a
// sensitive value or a contained panic payload in an error message, a log
// line, an observability event or a checkpoint record.
//
// The invariant it serves: the only place a quasi-identifier or sensitive
// value may appear is the anonymized release itself. Everything else —
// typed errors, contained shard panics, JSONL checkpoints, obs events, CLI
// stderr — is a side channel an adversary can compound with the release
// (Bettini et al.; the combinatorial-refinement attack of arXiv
// 2509.03350), so diagnostics must carry only positional facts (record
// index, column, counts) and content *digests*. The leakcheck analyzer
// (internal/analysis/leakcheck) enforces this statically: calls into this
// package are its sanitizer set, so a value routed through redact.Value or
// redact.Panic is provably digest-only by construction.
//
// Digests are FNV-1a 64: stable across processes and platforms (no map
// iteration, no randomized seed), cheap, and collision-safe enough for
// their job: letting an operator correlate repeated failures on the same
// value without learning the value.
package redact

import (
	"fmt"
	"hash/fnv"
)

// Uint64 returns the FNV-1a 64-bit digest of s, for callers that need the
// raw hash.
func Uint64(s string) uint64 {
	h := fnv.New64a()
	// Write on fnv never fails.
	h.Write([]byte(s))
	return h.Sum64()
}

// Value renders the digest form of a raw cell or header value for use in
// diagnostics: "fnv1a:9e1b…" — 16 hex digits, no content.
func Value(s string) string {
	return fmt.Sprintf("fnv1a:%016x", Uint64(s))
}

// Panic renders a contained panic payload as its dynamic type plus the
// digest of its rendered form: "*errors.errorString(fnv1a:…)". The type
// name localizes the failure class for an operator; the digest lets a
// human reading a core.ShardError or a failed experiment Run recognize the
// *same* panic recurring without the payload — which may embed record
// values — ever reaching a diagnostic channel.
func Panic(v interface{}) string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%T(%s)", v, Value(fmt.Sprint(v)))
}
