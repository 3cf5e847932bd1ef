package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kanon"
)

const testCSV = `age,city
30,haifa
31,haifa
32,tel-aviv
40,tel-aviv
41,jerusalem
42,jerusalem
`

const testHier = `{"attributes": [
  {"attribute": "age", "subsets": [
    {"label": "30s", "values": ["30", "31", "32"]},
    {"label": "40s", "values": ["40", "41", "42"]}
  ]}
]}`

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "in.csv", testCSV)
	hier := writeFile(t, dir, "hier.json", testHier)
	out := filepath.Join(dir, "out.csv")

	for _, notion := range []kanon.Notion{kanon.NotionK, kanon.NotionKK, kanon.NotionGlobal1K} {
		err := run(nil, runConfig{
			In: in, Hier: hier, Out: out, Header: true, Verify: true,
			Opt: kanon.Options{K: 3, Notion: notion, Measure: kanon.MeasureEntropy, Distance: "d3"},
		})
		if err != nil {
			t.Fatalf("notion %s: %v", notion, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 7 { // header + 6 records
			t.Errorf("notion %s: %d output lines, want 7", notion, len(lines))
		}
		if lines[0] != "age,city" {
			t.Errorf("notion %s: header %q", notion, lines[0])
		}
	}
}

func TestRunForestAndVariants(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "in.csv", testCSV)
	out := filepath.Join(dir, "out.csv")
	if err := run(nil, runConfig{In: in, Out: out, Header: true,
		Opt: kanon.Options{K: 2, Notion: kanon.NotionK, Forest: true, Measure: kanon.MeasureLM}}); err != nil {
		t.Fatalf("forest: %v", err)
	}
	if err := run(nil, runConfig{In: in, Out: out, Header: true,
		Opt: kanon.Options{K: 2, Notion: kanon.NotionKK, UseNearest: true, Measure: kanon.MeasureLM}}); err != nil {
		t.Fatalf("nearest: %v", err)
	}
}

func TestRunAttackReport(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "in.csv", testCSV)
	hier := writeFile(t, dir, "hier.json", testHier)
	out := filepath.Join(dir, "out.csv")
	if err := run(nil, runConfig{In: in, Hier: hier, Out: out, Header: true, Attack: true,
		Opt: kanon.Options{K: 2, Notion: kanon.NotionGlobal1K, Measure: kanon.MeasureEntropy}}); err != nil {
		t.Fatalf("attack report: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "in.csv", testCSV)
	if err := run(nil, runConfig{In: filepath.Join(dir, "missing.csv"), Header: true, Opt: kanon.Options{K: 2}}); err == nil {
		t.Error("expected error for missing input")
	}
	if err := run(nil, runConfig{In: in, Hier: filepath.Join(dir, "missing.json"), Header: true, Opt: kanon.Options{K: 2}}); err == nil {
		t.Error("expected error for missing hierarchy file")
	}
	bad := writeFile(t, dir, "bad.json", "{")
	if err := run(nil, runConfig{In: in, Hier: bad, Header: true, Opt: kanon.Options{K: 2}}); err == nil {
		t.Error("expected error for bad hierarchy JSON")
	}
	if err := run(nil, runConfig{In: in, Header: true, Opt: kanon.Options{K: 0}}); err == nil {
		t.Error("expected error for k=0")
	}
	if err := run(nil, runConfig{In: in, Out: filepath.Join(dir, "nodir", "out.csv"), Header: true, Opt: kanon.Options{K: 2}}); err == nil {
		t.Error("expected error for unwritable output")
	}
	if err := run(nil, runConfig{In: in, Sensitive: filepath.Join(dir, "missing-sens.txt"), Header: true, Opt: kanon.Options{K: 2}}); err == nil {
		t.Error("expected error for missing sensitive file")
	}
	short := writeFile(t, dir, "short-sens.txt", "a\nb\n")
	if err := run(nil, runConfig{In: in, Sensitive: short, Header: true, Opt: kanon.Options{K: 2}}); err == nil {
		t.Error("expected error for wrong sensitive length")
	}
	// -notion kk -max-chunk 30: only the k pipeline is sharded.
	var oe *kanon.OptionsError
	if err := run(nil, runConfig{In: in, AutoHier: 2, Header: true, Opt: kanon.Options{K: 2, Notion: kanon.NotionKK, MaxChunk: 30}}); !errors.As(err, &oe) || oe.Field != "MaxChunk" {
		t.Errorf("-notion kk -max-chunk 30: err = %v, want *OptionsError on MaxChunk", err)
	}
}

func TestRunAutoHier(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "in.csv", testCSV)
	out := filepath.Join(dir, "out.csv")
	if err := run(nil, runConfig{In: in, Out: out, AutoHier: 3, Header: true, Verify: true,
		Opt: kanon.Options{K: 3, Notion: kanon.NotionKK}}); err != nil {
		t.Fatalf("auto-hier run: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "{") && !strings.Contains(string(data), "*") {
		t.Errorf("auto-hier output shows no generalization: %s", data)
	}
	hier := writeFile(t, dir, "hier.json", testHier)
	if err := run(nil, runConfig{In: in, Hier: hier, Out: out, AutoHier: 3, Header: true,
		Opt: kanon.Options{K: 3}}); err == nil {
		t.Error("expected -hier/-auto-hier exclusion error")
	}
}

func TestRunDiversity(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "in.csv", testCSV)
	hier := writeFile(t, dir, "hier.json", testHier)
	sens := writeFile(t, dir, "sens.txt", "flu\ncancer\nflu\ncancer\nflu\ncancer\n")
	out := filepath.Join(dir, "out.csv")
	err := run(nil, runConfig{In: in, Hier: hier, Out: out, Sensitive: sens, Header: true, Verify: true,
		Opt: kanon.Options{K: 2, Notion: kanon.NotionKK, Diversity: 2}})
	if err != nil {
		t.Fatalf("diversity run: %v", err)
	}
}

func TestRunFullDomain(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "in.csv", testCSV)
	hier := writeFile(t, dir, "hier.json", testHier)
	out := filepath.Join(dir, "out.csv")
	err := run(nil, runConfig{In: in, Hier: hier, Out: out, Header: true, Verify: true,
		Opt: kanon.Options{K: 3, Notion: kanon.NotionK, FullDomain: true}})
	if err != nil {
		t.Fatalf("full-domain run: %v", err)
	}
}

// TestRunStatsAndProfile exercises the -stats and -profile plumbing: the
// run must succeed, its stats on stderr must carry Algorithm 4's work
// counters, and the profile directory must hold non-empty capture files
// afterwards.
func TestRunStatsAndProfile(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "in.csv", testCSV)
	hier := writeFile(t, dir, "hier.json", testHier)
	out := filepath.Join(dir, "out.csv")
	prof := filepath.Join(dir, "prof")
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	saved := os.Stderr
	os.Stderr = stderr
	err = run(nil, runConfig{In: in, Hier: hier, Out: out, Header: true, Stats: true, Profile: prof,
		Opt: kanon.Options{K: 3, Notion: kanon.NotionKK}})
	os.Stderr = saved
	if err != nil {
		t.Fatalf("stats+profile run: %v", err)
	}
	logged, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, counter := range []string{`"core.k1.scan_evals"`, `"core.k1.trie_visits"`} {
		if !strings.Contains(string(logged), counter) {
			t.Errorf("-stats output lacks %s:\n%s", counter, logged)
		}
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof", "trace.out"} {
		fi, err := os.Stat(filepath.Join(prof, name))
		if err != nil {
			t.Errorf("missing capture %s: %v", name, err)
		} else if fi.Size() == 0 {
			t.Errorf("capture %s is empty", name)
		}
	}
}

// TestFlagFor pins the OptionsError-field → flag-name mapping used by the
// early-validation error message.
func TestFlagFor(t *testing.T) {
	for field, flag := range map[string]string{
		"K": "k", "Notion": "notion", "Measure": "measure",
		"Distance": "distance", "Forest": "forest",
		"FullDomain": "full-domain", "Diversity": "diversity",
	} {
		if got := flagFor(field); got != flag {
			t.Errorf("flagFor(%q) = %q, want %q", field, got, flag)
		}
	}
}

// TestRunMalformedInputNeverPanics is the panic-audit proof for the CLI:
// every malformed user input — ragged CSV, duplicate columns, bad
// hierarchy JSON, oversized input, short sensitive file — must come back
// as an error, never a panic.
func TestRunMalformedInputNeverPanics(t *testing.T) {
	dir := t.TempDir()
	hier := writeFile(t, dir, "hier.json", testHier)
	cases := []struct {
		name string
		csv  string
		hier string
		sens string
		max  int
	}{
		{name: "ragged row", csv: "age,city\n30,haifa\n31\n"},
		{name: "extra field", csv: "age,city\n30,haifa,extra\n"},
		{name: "duplicate column", csv: "age,age\n30,31\n"},
		{name: "empty input", csv: ""},
		{name: "header only", csv: "age,city\n"},
		{name: "too many records", csv: testCSV, max: 3},
		{name: "hierarchy value not in domain", csv: "age,city\n99,haifa\n98,haifa\n", hier: hier},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("run panicked on malformed input: %v", v)
				}
			}()
			in := writeFile(t, dir, "in.csv", tc.csv)
			err := run(nil, runConfig{In: in, Hier: tc.hier, Sensitive: tc.sens, MaxRecords: tc.max, Header: true,
				Opt: kanon.Options{K: 2}})
			if err == nil {
				t.Fatal("malformed input produced no error")
			}
		})
	}
}

// TestRunCancelled checks the -timeout plumbing: a context that expires
// mid-run surfaces as a timeout error, not a partial output file.
func TestRunCancelled(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "in.csv", testCSV)
	out := filepath.Join(dir, "out.csv")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, runConfig{In: in, Out: out, Header: true, Opt: kanon.Options{K: 2}})
	if err == nil || !strings.Contains(err.Error(), "-timeout") {
		t.Fatalf("err = %v, want a -timeout message", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Fatal("cancelled run wrote an output file")
	}
}

// TestRunShardCheckpoint exercises the -shard-checkpoint flag end to end:
// a partitioned run writes one JSONL line per shard, a rerun against the
// same file restores every shard from its checkpoint, and a torn trailing
// line (killed run) is truncated away rather than corrupting the log.
func TestRunShardCheckpoint(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "in.csv", testCSV)
	out := filepath.Join(dir, "out.csv")
	ckpt := filepath.Join(dir, "shards.jsonl")
	cfg := runConfig{In: in, Out: out, Header: true, ShardCkpt: ckpt,
		Opt: kanon.Options{K: 2, Notion: kanon.NotionK, MaxChunk: 3}}

	if err := run(nil, cfg); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(log)), "\n")
	if len(lines) < 2 {
		t.Fatalf("checkpoint holds %d lines, want one per shard (≥ 2)", len(lines))
	}

	// Simulate a kill mid-write: append a torn partial line, then resume.
	if err := os.WriteFile(ckpt, append(log, []byte(`{"shard":9,"si`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(nil, cfg); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(resumed) {
		t.Error("resumed output differs from the original run")
	}
	// The torn tail must be gone and the log must still parse cleanly.
	log2, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(log2), `"si{`) || !strings.HasSuffix(string(log2), "\n") {
		t.Errorf("checkpoint log left unclean after torn-tail resume:\n%s", log2)
	}
	if _, err := loadShardCheckpoints(ckpt); err != nil {
		t.Errorf("resumed checkpoint unreadable: %v", err)
	}
}

// TestRunShardCheckpointRequiresChunk pins the flag dependency the main
// entrypoint enforces before run() is reached.
func TestRunShardCheckpointStaleParams(t *testing.T) {
	dir := t.TempDir()
	in := writeFile(t, dir, "in.csv", testCSV)
	out := filepath.Join(dir, "out.csv")
	ckpt := filepath.Join(dir, "shards.jsonl")
	if err := run(nil, runConfig{In: in, Out: out, Header: true, ShardCkpt: ckpt,
		Opt: kanon.Options{K: 2, Notion: kanon.NotionK, MaxChunk: 3}}); err != nil {
		t.Fatal(err)
	}
	// Same log, different k: every checkpoint is stale and must be
	// recomputed, and the release must honor the NEW k.
	if err := run(nil, runConfig{In: in, Out: out, Header: true, ShardCkpt: ckpt, Verify: true,
		Opt: kanon.Options{K: 3, Notion: kanon.NotionK, MaxChunk: 3}}); err != nil {
		t.Fatal(err)
	}
}
