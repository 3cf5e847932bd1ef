// Command kanonlint runs the project's static-analysis suite
// (internal/analysis/...): constraintpure, ctxflow, determinism,
// faultsite, leakcheck, nogoroutine and obsphase, with //kanon:allow
// suppression.
//
// Standalone:
//
//	go run ./cmd/kanonlint ./...             # exit 1 on unsuppressed findings
//	go run ./cmd/kanonlint -allows ./...     # inventory of allow directives
//	go run ./cmd/kanonlint -json ./...       # stable machine-readable findings
//	go run ./cmd/kanonlint -run leakcheck ./... # run a subset of the suite
//
// As a go vet tool (per-package analyzers only — faultsite needs the
// whole program and runs in standalone mode):
//
//	go build -o kanonlint ./cmd/kanonlint
//	go vet -vettool=$(pwd)/kanonlint ./...
//
// The vet protocol is the unitchecker contract: `-V=full` prints a
// versioned identity line, `-flags` declares the (empty) flag set, and a
// single *.cfg argument selects unit mode, where the go command supplies
// parsed build facts as JSON.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"kanon/internal/analysis"
	"kanon/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches between the vet protocol endpoints and standalone mode,
// returning the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			printVersion(stdout)
			return 0
		}
	}
	if len(args) == 1 && args[0] == "-flags" {
		// No analyzer-specific flags: go vet will pass only the .cfg file.
		fmt.Fprintln(stdout, "[]")
		return 0
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return unitCheck(args[0], stderr)
	}
	return standalone(args, stdout, stderr)
}

// printVersion emits the `name version id` line the go command uses to
// fingerprint a vettool for build caching. The id hashes the executable
// so a rebuilt kanonlint invalidates stale vet results.
func printVersion(w io.Writer) {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			id = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	fmt.Fprintf(w, "kanonlint version %s\n", id)
}

// standalone loads the given package patterns (default ./...) from the
// working directory and runs the full suite, whole-program analyzers
// included. Exit codes: 0 clean, 1 unsuppressed findings, 2 load error.
func standalone(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kanonlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	allows := fs.Bool("allows", false, "list //kanon:allow directives instead of running analyzers")
	asJSON := fs.Bool("json", false, "emit findings as a stable JSON document (findings sorted by file, line, analyzer, message)")
	runOnly := fs.String("run", "", "comma-separated analyzer names to run (default: the full suite)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: kanonlint [-allows] [-json] [-run names] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers, err := selectAnalyzers(*runOnly)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	prog, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *allows {
		dirs, diags := analysis.Directives(prog, suite.Analyzers())
		for _, d := range dirs {
			fmt.Fprintf(stdout, "%s: %s -- %s\n", relPos(cwd, d.Pos), strings.Join(d.Analyzers, ","), d.Reason)
		}
		for _, d := range diags {
			fmt.Fprintln(stderr, relDiag(cwd, d))
		}
		if len(diags) > 0 {
			return 1
		}
		return 0
	}

	// Directives may name any suite analyzer, selected or not, without
	// tripping the unknown-name check.
	selected := map[string]bool{}
	for _, a := range analyzers {
		selected[a.Name] = true
	}
	var extraKnown []string
	for _, a := range suite.Analyzers() {
		if !selected[a.Name] {
			extraKnown = append(extraKnown, a.Name)
		}
	}
	diags, err := analysis.Run(prog, analyzers, extraKnown...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	open := analysis.Unsuppressed(diags)
	if *asJSON {
		if err := writeJSON(stdout, cwd, diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range open {
			fmt.Fprintln(stdout, relDiag(cwd, d))
		}
	}
	if len(open) > 0 {
		fmt.Fprintf(stderr, "kanonlint: %d unsuppressed finding(s)\n", len(open))
		return 1
	}
	return 0
}

// selectAnalyzers resolves a -run list against the suite (empty = all).
func selectAnalyzers(runOnly string) ([]*analysis.Analyzer, error) {
	all := suite.Analyzers()
	if runOnly == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(runOnly, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("kanonlint: unknown analyzer %q in -run", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// jsonFinding is one diagnostic of the -json document. The document is
// stable: findings arrive pre-sorted by file, line, analyzer and message,
// suppressed ones included (marked, with their reasons), so CI can diff
// two runs byte for byte.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Findings     []jsonFinding `json:"findings"`
	Unsuppressed int           `json:"unsuppressed"`
}

// writeJSON renders the diagnostics as the stable JSON document.
func writeJSON(w io.Writer, dir string, diags []analysis.Diagnostic) error {
	report := jsonReport{Findings: []jsonFinding{}}
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(dir, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		report.Findings = append(report.Findings, jsonFinding{
			File:       name,
			Line:       d.Pos.Line,
			Column:     d.Pos.Column,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Suppressed: d.Suppressed,
			Reason:     d.Reason,
		})
		if !d.Suppressed {
			report.Unsuppressed++
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// relPos renders a position with the filename relative to dir when that
// makes it shorter, matching go vet's output style.
func relPos(dir string, pos token.Position) string {
	name := pos.Filename
	if rel, err := filepath.Rel(dir, name); err == nil && !strings.HasPrefix(rel, "..") {
		name = rel
	}
	return fmt.Sprintf("%s:%d:%d", name, pos.Line, pos.Column)
}

func relDiag(dir string, d analysis.Diagnostic) string {
	return fmt.Sprintf("%s: %s: %s", relPos(dir, d.Pos), d.Analyzer, d.Message)
}

// vetConfig is the JSON the go command writes into the *.cfg file for
// each vetted package (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitCheck analyzes one package under the go vet protocol. Only the
// per-package analyzers run — there is no whole-program view inside a
// single compilation unit. Exit codes: 0 clean, 2 findings (relayed by
// go vet), 1 protocol or typecheck failure.
func unitCheck(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "kanonlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command requires the facts output to exist even though
	// kanonlint exports no facts; write it first so every early return
	// below leaves the protocol satisfied.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	importPath := cfg.ImportPath
	// Test variants are listed as "pkg [pkg.test]"; analyze them under
	// the base path so path-gated analyzers behave identically.
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i]
	}
	if strings.HasSuffix(importPath, ".test") {
		// Generated test-main package: nothing of ours to check.
		return 0
	}

	fset := token.NewFileSet()
	var files, testFiles []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if strings.HasSuffix(name, "_test.go") {
			testFiles = append(testFiles, f)
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		// External test package (pkg_test): per-package analyzers skip
		// test files entirely.
		return 0
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	tpkg, info, err := analysis.TypeCheckFiles(fset, importPath, cfg.Compiler, files, lookup)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(stderr, err)
		return 1
	}

	prog := &analysis.Program{
		Fset: fset,
		Packages: []*analysis.Package{{
			PkgPath:   importPath,
			Dir:       cfg.Dir,
			Files:     files,
			TestFiles: testFiles,
			Types:     tpkg,
			TypesInfo: info,
		}},
	}
	// Whole-program analyzers cannot run inside a single compilation
	// unit, but directives naming them are still well-formed.
	var wholeProgram []string
	for _, a := range suite.Analyzers() {
		if a.WholeProgram {
			wholeProgram = append(wholeProgram, a.Name)
		}
	}
	diags, err := analysis.Run(prog, suite.PerPackage(), wholeProgram...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	open := analysis.Unsuppressed(diags)
	for _, d := range open {
		fmt.Fprintln(stderr, d)
	}
	if len(open) > 0 {
		return 2
	}
	return 0
}
