package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"kanon/internal/analysis/analysistest"
)

// TestVersionFlag pins the `-V=full` identity line the go command
// requires from a vettool: at least three fields, the second "version".
func TestVersionFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-V=full"}, &out, &errb); code != 0 {
		t.Fatalf("run(-V=full) = %d, stderr: %s", code, errb.String())
	}
	fields := strings.Fields(out.String())
	if len(fields) < 3 || fields[0] != "kanonlint" || fields[1] != "version" {
		t.Fatalf("-V=full output %q does not match \"kanonlint version <id>\"", out.String())
	}
}

// TestFlagsEndpoint pins the `-flags` JSON handshake.
func TestFlagsEndpoint(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-flags"}, &out, &errb); code != 0 {
		t.Fatalf("run(-flags) = %d", code)
	}
	var decoded []interface{}
	if err := json.Unmarshal([]byte(out.String()), &decoded); err != nil {
		t.Fatalf("-flags output %q is not a JSON array: %v", out.String(), err)
	}
	if len(decoded) != 0 {
		t.Fatalf("-flags declared unexpected flags: %v", decoded)
	}
}

// TestJSONOutput pins the -json document: valid JSON, stable across
// runs, suppressed findings carried with their reasons. The obs package
// has self-contained, suppressed ctxflow findings (its nil-ctx
// normalization sites), so the document is non-trivial even in a
// single-package load.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks packages")
	}
	runJSON := func() string {
		var out, errb bytes.Buffer
		if code := run([]string{"-json", "kanon/internal/obs"}, &out, &errb); code != 0 {
			t.Fatalf("run(-json) = %d, stderr: %s", code, errb.String())
		}
		return out.String()
	}
	first := runJSON()
	if second := runJSON(); second != first {
		t.Errorf("-json output is not stable across runs:\n%s\n---\n%s", first, second)
	}
	var report struct {
		Findings []struct {
			File, Analyzer, Message, Reason string
			Line, Column                    int
			Suppressed                      bool
		}
		Unsuppressed int
	}
	if err := json.Unmarshal([]byte(first), &report); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, first)
	}
	if report.Unsuppressed != 0 {
		t.Errorf("expected a clean package, got %d unsuppressed findings", report.Unsuppressed)
	}
	if len(report.Findings) == 0 {
		t.Fatal("expected suppressed ctxflow findings in kanon/internal/obs, got none")
	}
	for _, f := range report.Findings {
		if !f.Suppressed || f.Reason == "" {
			t.Errorf("finding %+v should be suppressed with a reason", f)
		}
	}
}

// TestRunFlag pins analyzer selection: unknown names fail fast, and a
// known subset runs clean over a clean package.
func TestRunFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "nosuch", "kanon/internal/redact"}, &out, &errb); code != 2 {
		t.Fatalf("run(-run nosuch) = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("expected an unknown-analyzer error, got: %s", errb.String())
	}
	if testing.Short() {
		return
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-run", "leakcheck,determinism", "kanon/internal/redact"}, &out, &errb); code != 0 {
		t.Fatalf("run(-run leakcheck,determinism) = %d, stderr: %s", code, errb.String())
	}
}

// writeUnitConfig materializes a vetConfig as a .cfg file in dir.
func writeUnitConfig(t *testing.T, dir string, cfg vetConfig) string {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestUnitCheckFindings runs the unitchecker path over a constructed
// config whose package (posing as kanon/internal/cluster) contains a raw
// goroutine and a time.Now call, and checks the diagnostics, the exit
// code, and the facts-file side of the protocol.
func TestUnitCheckFindings(t *testing.T) {
	dir := t.TempDir()
	src := `package cluster

import "time"

func bad() time.Time {
	go func() {}()
	return time.Now()
}
`
	srcPath := filepath.Join(dir, "x.go")
	if err := os.WriteFile(srcPath, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	root, err := analysistest.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	vetx := filepath.Join(dir, "out.vetx")
	cfgPath := writeUnitConfig(t, dir, vetConfig{
		ImportPath:  "kanon/internal/cluster",
		GoFiles:     []string{srcPath},
		PackageFile: stdlibExports(t, root, "time"),
		VetxOutput:  vetx,
	})

	var out, errb bytes.Buffer
	code := run([]string{cfgPath}, &out, &errb)
	if code != 2 {
		t.Fatalf("run(%s) = %d, want 2; stderr: %s", cfgPath, code, errb.String())
	}
	msgs := errb.String()
	if !strings.Contains(msgs, "nogoroutine") || !strings.Contains(msgs, "determinism") {
		t.Errorf("unit mode missed findings; stderr:\n%s", msgs)
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput was not written: %v", err)
	}
}

// TestUnitCheckVetxOnly pins that dependency-only invocations write the
// facts file and analyze nothing.
func TestUnitCheckVetxOnly(t *testing.T) {
	dir := t.TempDir()
	vetx := filepath.Join(dir, "out.vetx")
	cfgPath := writeUnitConfig(t, dir, vetConfig{
		ImportPath: "time",
		VetxOnly:   true,
		VetxOutput: vetx,
	})
	var out, errb bytes.Buffer
	if code := run([]string{cfgPath}, &out, &errb); code != 0 {
		t.Fatalf("VetxOnly run = %d, stderr: %s", code, errb.String())
	}
	if _, err := os.Stat(vetx); err != nil {
		t.Errorf("VetxOutput was not written: %v", err)
	}
}

// TestUnitCheckTypecheckFailure pins SucceedOnTypecheckFailure: the go
// command sets it when the compiler will report the error anyway.
func TestUnitCheckTypecheckFailure(t *testing.T) {
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "broken.go")
	if err := os.WriteFile(srcPath, []byte("package p\n\nvar x undefinedType\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, succeed := range []bool{true, false} {
		cfgPath := writeUnitConfig(t, dir, vetConfig{
			ImportPath:                "kanon/internal/cluster",
			GoFiles:                   []string{srcPath},
			VetxOutput:                filepath.Join(dir, "out.vetx"),
			SucceedOnTypecheckFailure: succeed,
		})
		var out, errb bytes.Buffer
		code := run([]string{cfgPath}, &out, &errb)
		want := 1
		if succeed {
			want = 0
		}
		if code != want {
			t.Errorf("SucceedOnTypecheckFailure=%v: run = %d, want %d", succeed, code, want)
		}
	}
}

// TestVettoolEndToEnd builds kanonlint and runs it through a real
// `go vet -vettool` invocation over a known-clean package.
func TestVettoolEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	root, err := analysistest.ModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "kanonlint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/kanonlint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building kanonlint: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./internal/analysis/suite")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool failed: %v\n%s", err, out)
	}
}

// stdlibExports resolves export-data files for the given stdlib imports
// the way the go command would populate vetConfig.PackageFile.
func stdlibExports(t *testing.T, moduleDir string, imports ...string) map[string]string {
	t.Helper()
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Export"}, imports...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p struct {
			ImportPath string
			Export     string
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports
}
