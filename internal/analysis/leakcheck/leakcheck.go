// Package leakcheck implements the kanonlint analyzer proving that record
// values never escape into diagnostics (DESIGN.md §16). The pipeline's
// privacy contract covers its released output — WriteCSV, the generalized
// table — but a leak through an error string, a log line, an obs event
// payload or a checkpoint encoder bypasses every suppression decision the
// release machinery makes. leakcheck closes that side channel statically:
// it runs the internal/analysis/taint whole-program engine with record
// cell values as sources and every diagnostic surface as a sink, and
// requires the repository to be clean.
//
// Sources: the interned attribute domains (table.Attribute.Values), the
// sensitive-attribute domains (kanon.Table.sensitiveValues,
// datagen.Dataset.SensitiveValues), raw CSV reads, and recovered panic
// payloads (a panic raised inside an engine may interpolate cell values).
//
// Sinks: fmt print/format/Errorf, the log package, errors.New, panic
// values, obs.Run emission methods and obs.Event string payload fields,
// and the encoding/json encoders that write reports and checkpoints.
//
// Sanitizers: calls into kanon/internal/redact (digests), numeric and
// boolean scalars (row/column indices, value ids, counts — the engine
// never taints them), and schema names (table.Attribute.Name is declared
// clean: attribute names are released in the output header by design).
//
// The kanon/examples binaries are exempt: displaying the anonymized
// release is their purpose, mirroring ctxflow's entry-point carve-out.
package leakcheck

import (
	"go/types"

	"kanon/internal/analysis"
	"kanon/internal/analysis/taint"
)

// Analyzer proves record values cannot reach diagnostic sinks.
var Analyzer = &analysis.Analyzer{
	Name:         "leakcheck",
	WholeProgram: true,
	Doc: "interprocedural taint analysis proving record cell values and " +
		"sensitive-attribute values never flow into error strings, logs, " +
		"obs event payloads, panic values or checkpoint encoders; digests " +
		"and positional indices (internal/redact) are the sanctioned " +
		"diagnostic vocabulary",
	Run: run,
}

// Paths of the packages the configuration names.
const (
	tablePath   = "kanon/internal/table"
	rootPath    = "kanon"
	datagenPath = "kanon/internal/datagen"
	redactPath  = "kanon/internal/redact"
	obsPath     = "kanon/internal/obs"
	examplePath = "kanon/examples"
)

// fmtSinks is the formatting/printing surface of package fmt. Scan
// functions and Stringer plumbing are not sinks: only calls that build
// output or error text from their arguments.
var fmtSinks = map[string]bool{
	"Errorf": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// obsEmitters are the obs.Run methods whose string arguments become event
// payloads.
var obsEmitters = map[string]bool{
	"Phase": true, "Counter": true, "Peak": true, "Sched": true,
}

// Config is the production source/sink/sanitizer set. It is exported so
// the determinism fuzz target and the self-application test exercise
// exactly what CI runs.
func Config() taint.Config {
	return taint.Config{
		SourceFields: []taint.FieldRef{
			{PkgPath: tablePath, TypeName: "Attribute", FieldName: "Values"},
			{PkgPath: rootPath, TypeName: "Table", FieldName: "sensitiveValues"},
			{PkgPath: datagenPath, TypeName: "Dataset", FieldName: "SensitiveValues"},
		},
		CleanFields: []taint.FieldRef{
			// Schema names are released in the output header by design.
			{PkgPath: tablePath, TypeName: "Attribute", FieldName: "Name"},
		},
		SourceCall: func(fn *types.Func) bool {
			return analysis.IsMethod(fn, "encoding/csv", "Reader", "Read") ||
				analysis.IsMethod(fn, "encoding/csv", "Reader", "ReadAll")
		},
		TaintRecover: true,
		Sanitizer: func(fn *types.Func) bool {
			return fn.Pkg() != nil && fn.Pkg().Path() == redactPath
		},
		Sink:      sink,
		TypeSink:  typeSink,
		FieldSink: fieldSink,
		PanicSink: true,
		SkipSinksIn: func(pkgPath string) bool {
			// Example binaries display the anonymized release by design;
			// the redact package is the sanitizer itself.
			return analysis.PathWithin(pkgPath, examplePath) || pkgPath == redactPath
		},
	}
}

// sink classifies value sinks: any tainted argument is a finding.
func sink(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		if fmtSinks[fn.Name()] {
			return "fmt." + fn.Name(), true
		}
	case "log":
		return "log." + fn.Name(), true
	case "errors":
		if fn.Name() == "New" && analysis.IsPkgFunc(fn, "errors", "New") {
			return "errors.New", true
		}
	case obsPath:
		if obsEmitters[fn.Name()] && analysis.IsMethod(fn, obsPath, "Run", fn.Name()) {
			return "obs.(*Run)." + fn.Name(), true
		}
	}
	return "", false
}

// typeSink classifies encode sinks: checkpoint and report encoders, where
// a tainted field anywhere in the argument's type is itself a finding.
func typeSink(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/json" {
		return "", false
	}
	switch {
	case analysis.IsPkgFunc(fn, "encoding/json", "Marshal"):
		return "json.Marshal", true
	case analysis.IsPkgFunc(fn, "encoding/json", "MarshalIndent"):
		return "json.MarshalIndent", true
	case analysis.IsMethod(fn, "encoding/json", "Encoder", "Encode"):
		return "json.(*Encoder).Encode", true
	}
	return "", false
}

// fieldSink flags stores of tainted values into obs event payloads.
func fieldSink(ref taint.FieldRef) (string, bool) {
	if ref.PkgPath == obsPath && ref.TypeName == "Event" &&
		(ref.FieldName == "Phase" || ref.FieldName == "Name") {
		return "obs.Event." + ref.FieldName, true
	}
	return "", false
}

func run(pass *analysis.Pass) error {
	eng := taint.NewEngine(taint.NewIndex(pass.Program), Config())
	eng.Solve()
	for _, f := range eng.Report() {
		pass.Reportf(f.Pos, "%s", f.Message)
	}
	return nil
}
