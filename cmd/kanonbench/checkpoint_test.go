package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kanon/internal/experiment"
)

func ckptConfig() experiment.Config {
	return experiment.Config{NART: 60, NADT: 60, NCMC: 60, Seed: 5, Ks: []int{3}}
}

// TestCheckpointResumeByteIdentical simulates a mid-suite kill: the
// checkpoint is cut down to half its lines plus a torn partial line, the
// suite is resumed from it, and the resumed JSON output must be
// byte-identical to the uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()

	// Uninterrupted run against a fresh checkpoint.
	fullPath := filepath.Join(dir, "full.jsonl")
	cfgA := ckptConfig()
	closeA, err := setupCheckpoint(&cfgA, fullPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if !cfgA.Deterministic {
		t.Fatal("-checkpoint must force deterministic output")
	}
	rA := &runner{cfg: cfgA, blocks: make(map[string]*experiment.Block)}
	var outA strings.Builder
	if err := rA.run(&outA, "fig2", true); err != nil {
		t.Fatal(err)
	}
	closeA()

	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("checkpoint has only %d lines, too few to cut", len(lines))
	}

	// The kill scenario: half the runs landed, then a write was torn.
	partPath := filepath.Join(dir, "part.jsonl")
	kept := bytes.Join(lines[:len(lines)/2], []byte("\n"))
	torn := append(append([]byte(nil), kept...), []byte("\n{\"Dataset\":\"AD")...)
	if err := os.WriteFile(partPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	cfgB := ckptConfig()
	closeB, err := setupCheckpoint(&cfgB, partPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(lines) / 2; len(cfgB.Completed) != want {
		t.Fatalf("resume loaded %d runs, want %d (torn line must be dropped)",
			len(cfgB.Completed), want)
	}
	rB := &runner{cfg: cfgB, blocks: make(map[string]*experiment.Block)}
	var outB strings.Builder
	if err := rB.run(&outB, "fig2", true); err != nil {
		t.Fatal(err)
	}
	closeB()

	if outA.String() != outB.String() {
		t.Errorf("resumed output is not byte-identical to the uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s",
			outA.String(), outB.String())
	}
}

// TestSetupCheckpointRefusesOverwrite guards against silently clobbering
// an existing checkpoint when -resume was not passed.
func TestSetupCheckpointRefusesOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := ckptConfig()
	if _, err := setupCheckpoint(&cfg, path, false); err == nil {
		t.Fatal("expected error for existing checkpoint without -resume")
	}
}

// TestLoadCheckpointMissingAndTorn covers the two forgiving paths: a
// missing file is an empty checkpoint, and a torn last line is dropped
// without failing the resume.
func TestLoadCheckpointMissingAndTorn(t *testing.T) {
	completed, _, _, err := loadCheckpoint(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || len(completed) != 0 {
		t.Fatalf("missing file: completed=%v err=%v", completed, err)
	}

	path := filepath.Join(t.TempDir(), "torn.jsonl")
	content := `{"Dataset":"ART","Measure":"EM","Algorithm":"forest","K":3,"Loss":1.5}

{"Dataset":"ART","Measure":"EM","Algorithm":"kk-expand","K":3,"Lo`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	completed, _, _, err = loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 1 {
		t.Fatalf("loaded %d runs, want 1 (blank line skipped, torn line dropped)", len(completed))
	}
	if _, ok := completed["ART|EM|forest|3"]; !ok {
		t.Fatalf("unexpected keys: %v", completed)
	}
}

// TestResumeRefusesCorruptMiddle: an unreadable line with completed runs
// after it is not a torn write. The resume must fail and leave the log
// byte for byte as it was, not cut it to the lines before the bad one.
func TestResumeRefusesCorruptMiddle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	log := []byte(`{"Dataset":"ART","Measure":"EM","Algorithm":"forest","K":3,"Loss":1.5}
{garbage
{"Dataset":"ART","Measure":"EM","Algorithm":"kk-expand","K":3,"Loss":1.25}
{"Dataset":"ART","Measure":"EM","Algorithm":"kk-nearest","K":3,"Loss":1.75}
`)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := ckptConfig()
	if _, err := setupCheckpoint(&cfg, path, true); err == nil {
		t.Fatal("resume over a corrupt middle line succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, log) {
		t.Fatalf("checkpoint changed to %q, want it untouched", after)
	}
}

// TestScaleShardCheckpointResume kills the scale experiment mid-run (by
// keeping only some of its shard checkpoint lines) and resumes it: the
// resumed run must reuse exactly the kept shards and produce results
// identical to the uninterrupted run.
func TestScaleShardCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	const n, k, maxChunk = 300, 5, 64

	// Uninterrupted scale run, recording every shard.
	fullPath := filepath.Join(dir, "full.jsonl")
	cfgA := ckptConfig()
	closeA, err := setupCheckpoint(&cfgA, fullPath, false)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := cfgA.RunScale([]int{n}, k, maxChunk, 0)
	if err != nil {
		t.Fatal(err)
	}
	closeA()

	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("scale run recorded %d shard lines, want ≥ 2 to cut", len(lines))
	}

	// The kill scenario: half the shards landed, then a write was torn.
	partPath := filepath.Join(dir, "part.jsonl")
	kept := len(lines) / 2
	torn := append(bytes.Join(lines[:kept], []byte("\n")), []byte("\n{\"scale_run\":\"sc")...)
	if err := os.WriteFile(partPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	cfgB := ckptConfig()
	closeB, err := setupCheckpoint(&cfgB, partPath, true)
	if err != nil {
		t.Fatal(err)
	}
	key := experiment.ScaleRunKey(n, k, maxChunk, cfgB.Seed)
	if got := len(cfgB.CompletedShards[key]); got != kept {
		t.Fatalf("resume loaded %d shards for %q, want %d; shard map: %v",
			got, key, kept, cfgB.CompletedShards)
	}
	resB, err := cfgB.RunScale([]int{n}, k, maxChunk, 0)
	if err != nil {
		t.Fatal(err)
	}
	closeB()

	if len(resA) != len(resB) {
		t.Fatalf("result rows differ: %d vs %d", len(resA), len(resB))
	}
	for i := range resA {
		if resA[i] != resB[i] {
			t.Errorf("row %d differs: uninterrupted %+v resumed %+v", i, resA[i], resB[i])
		}
	}

	// The resumed checkpoint must now cover every shard of the run.
	_, shards, _, err := loadCheckpoint(partPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(shards[key]); got != len(lines) {
		t.Errorf("resumed checkpoint holds %d shards, want %d", got, len(lines))
	}
}
