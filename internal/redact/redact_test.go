package redact

import (
	"errors"
	"strings"
	"testing"
)

// TestValueDigestStable pins the FNV-1a rendering: deterministic across
// calls, distinct for distinct inputs, and never echoing the input.
func TestValueDigestStable(t *testing.T) {
	if got, want := Value("flu"), "fnv1a:f4b5a7a24bbc2dd0"; len(got) != len(want) || !strings.HasPrefix(got, "fnv1a:") {
		t.Errorf("Value(flu) = %q, want fnv1a: prefix and 16 hex digits", got)
	}
	if Value("flu") != Value("flu") {
		t.Error("Value is not deterministic")
	}
	if Value("flu") == Value("hiv") {
		t.Error("distinct values collide")
	}
	if strings.Contains(Value("secret-diagnosis"), "secret") {
		t.Error("digest echoes the input")
	}
}

// TestUint64MatchesReference pins Uint64 against the well-known FNV-1a
// vectors so the digest format never silently changes (checkpoint
// signatures and repeat-panic detection depend on it).
func TestUint64MatchesReference(t *testing.T) {
	cases := map[string]uint64{
		"":  0xcbf29ce484222325,
		"a": 0xaf63dc4c8601ec8c,
	}
	for in, want := range cases {
		if got := Uint64(in); got != want {
			t.Errorf("Uint64(%q) = %#x, want %#x", in, got, want)
		}
	}
}

// TestPanicRedactsPayload checks the type-plus-digest form: the dynamic
// type is visible, the payload content is not, and identical payloads
// render identically (an operator recognizes a recurring panic).
func TestPanicRedactsPayload(t *testing.T) {
	v := errors.New("cell value leaked: zipcode 90210")
	got := Panic(v)
	if strings.Contains(got, "90210") || strings.Contains(got, "zipcode") {
		t.Errorf("Panic(%v) = %q echoes the payload", v, got)
	}
	if !strings.Contains(got, "errorString") {
		t.Errorf("Panic() = %q does not name the dynamic type", got)
	}
	if Panic(v) != Panic(errors.New("cell value leaked: zipcode 90210")) {
		t.Error("identical payloads must render identically")
	}
	if Panic(v) == Panic(errors.New("other")) {
		t.Error("distinct payloads collide")
	}
	if Panic(nil) != "<nil>" {
		t.Errorf("Panic(nil) = %q", Panic(nil))
	}
}
