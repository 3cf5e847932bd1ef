package kanon

import (
	"fmt"
	"slices"
	"strings"

	"kanon/internal/cluster"
)

// OptionsError reports a rejected Options field: which field, the value it
// held, and why it was rejected. Both CLIs print it so flag errors name the
// offending option.
type OptionsError struct {
	// Field is the Options field name (e.g. "K", "Notion").
	Field string
	// Value is the offending value.
	Value interface{}
	// Reason explains the rejection.
	Reason string
}

// Error implements error.
func (e *OptionsError) Error() string {
	return fmt.Sprintf("kanon: invalid Options.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// optErr builds an *OptionsError.
func optErr(field string, value interface{}, reason string) *OptionsError {
	return &OptionsError{Field: field, Value: value, Reason: reason}
}

// constraintString renders a constraint list as the OptionsError value,
// matching the -constraint CLI syntax.
func constraintString(cons []Constraint) string {
	parts := make([]string, len(cons))
	for i, c := range cons {
		if c == nil {
			parts[i] = "<nil>"
			continue
		}
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}

// algorithms lists, per notion, the algorithms that establish it; the
// first is the notion's default.
var algorithms = map[Notion][]Algorithm{
	NotionK:        {AlgAgglomerative, AlgModified, AlgForest, AlgFullDomain},
	NotionKK:       {AlgExpand, AlgNearest},
	NotionGlobal1K: {AlgExpand, AlgNearest},
}

// withDefaults fills a zero Notion, Algorithm and Measure with their
// defaults.
func (opt Options) withDefaults() Options {
	if opt.Notion == "" {
		opt.Notion = NotionKK
	}
	if algs := algorithms[opt.Notion]; opt.Algorithm == "" && len(algs) > 0 {
		opt.Algorithm = algs[0]
	}
	if opt.Measure == "" {
		opt.Measure = MeasureEntropy
	}
	return opt
}

// Validate checks the options without running anything, returning a typed
// *OptionsError for the first problem found (nil when the options are
// usable). Zero values that select a documented default ("" Notion/
// Algorithm/Measure/Distance, 0 Workers/MaxChunk) are valid; every other
// option either takes effect or is rejected. Anonymize and
// AnonymizeContext call Validate themselves; calling it separately lets a
// CLI reject a flag before loading any data.
func (opt Options) Validate() error {
	if opt.K < 1 {
		return optErr("K", opt.K, "the anonymity parameter must be ≥ 1")
	}
	d := opt.withDefaults()
	algs, ok := algorithms[d.Notion]
	if !ok {
		return optErr("Notion", opt.Notion, `unknown notion (want "k", "kk" or "global")`)
	}
	if !slices.Contains(algs, d.Algorithm) {
		return optErr("Algorithm", opt.Algorithm, fmt.Sprintf("not an algorithm of notion %q (want one of %q)", d.Notion, algs))
	}
	switch d.Measure {
	case MeasureEntropy, MeasureMonotoneEntropy, MeasureLM, MeasureTree, MeasureSuppression:
	default:
		return optErr("Measure", opt.Measure,
			`unknown measure (want "entropy", "monotone-entropy", "lm", "tree" or "suppression")`)
	}
	// Only the agglomerative algorithms take a distance or are sharded;
	// anywhere else Distance, MaxChunk, OnShard and CompletedShards would be
	// silently ignored.
	agglomerative := d.Algorithm == AlgAgglomerative || d.Algorithm == AlgModified
	if opt.Distance != "" {
		if cluster.DistanceByName(opt.Distance) == nil {
			return optErr("Distance", opt.Distance, `unknown distance (want "d1".."d4" or "nc")`)
		}
		if !agglomerative {
			return optErr("Distance", opt.Distance, fmt.Sprintf("only the agglomerative algorithms take a distance, not %q", d.Algorithm))
		}
	}
	if opt.MaxChunk > 0 && !agglomerative {
		return optErr("MaxChunk", opt.MaxChunk, fmt.Sprintf("only the agglomerative algorithms are sharded, not %q", d.Algorithm))
	}
	if len(opt.Constraints) > 0 {
		for i, c := range opt.Constraints {
			if c == nil {
				return optErr("Constraints", i, "nil constraint")
			}
			if err := c.validate(); err != nil {
				return optErr("Constraints", c.String(), err.Error())
			}
		}
		switch {
		case agglomerative && opt.MaxChunk > 0:
			return optErr("Constraints", constraintString(opt.Constraints), "cannot be combined with MaxChunk")
		case !agglomerative && d.Notion != NotionKK:
			// The forest, full-domain and global pipelines ignore
			// constraints; running them would silently weaken the guarantee.
			return optErr("Constraints", constraintString(opt.Constraints),
				fmt.Sprintf("not supported by %q under notion %q", d.Algorithm, d.Notion))
		}
	}
	if opt.MaxChunk <= 0 {
		// Shard checkpoints belong to the partitioned pipeline; without
		// MaxChunk there are no shards.
		if opt.OnShard != nil {
			return optErr("OnShard", "func", "requires the partitioned pipeline (set MaxChunk > 0)")
		}
		if len(opt.CompletedShards) > 0 {
			return optErr("CompletedShards", len(opt.CompletedShards), "requires the partitioned pipeline (set MaxChunk > 0)")
		}
	}
	return nil
}
