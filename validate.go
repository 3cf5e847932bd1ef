package kanon

import (
	"fmt"
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

// Validate checks the options without running anything, returning a typed
// *OptionsError for the first problem found (nil when the options are
// usable). Zero values that select a documented default ("" Notion/Measure/
// Distance, 0 Workers/MaxChunk/Diversity) are valid. Anonymize and
// AnonymizeContext call Validate themselves; calling it separately lets a
// CLI reject a flag before loading any data.
func (opt Options) Validate() error {
	if opt.K < 1 {
		return optErr("K", opt.K, "the anonymity parameter must be ≥ 1")
	}
	switch opt.Notion {
	case "", NotionK, NotionKK, NotionGlobal1K:
	default:
		return optErr("Notion", opt.Notion, `unknown notion (want "k", "kk" or "global")`)
	}
	switch opt.Measure {
	case "", MeasureEntropy, MeasureMonotoneEntropy, MeasureLM, MeasureTree, MeasureSuppression:
	default:
		return optErr("Measure", opt.Measure,
			`unknown measure (want "entropy", "monotone-entropy", "lm", "tree" or "suppression")`)
	}
	if opt.Distance != "" && cluster.DistanceByName(opt.Distance) == nil {
		return optErr("Distance", opt.Distance, `unknown distance (want "d1".."d4" or "nc")`)
	}
	if opt.Forest && opt.FullDomain {
		return optErr("Forest", opt.Forest, "mutually exclusive with FullDomain")
	}
	if opt.Diversity >= 2 {
		if opt.Forest {
			return optErr("Diversity", opt.Diversity, "not supported with the forest baseline")
		}
		if opt.FullDomain {
			return optErr("Diversity", opt.Diversity, "not supported with the full-domain baseline")
		}
		if opt.MaxChunk > 0 {
			return optErr("Diversity", opt.Diversity, "cannot be combined with MaxChunk")
		}
		if opt.Notion == NotionGlobal1K {
			return optErr("Diversity", opt.Diversity,
				"not supported with NotionGlobal1K (the global pipeline ignores constraints; it would silently weaken the guarantee)")
		}
		if len(opt.Constraints) > 0 {
			return optErr("Constraints", constraintString(opt.Constraints),
				"conflicts with Diversity (its DistinctDiversity sugar); set one or the other")
		}
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
		if opt.Forest {
			return optErr("Constraints", constraintString(opt.Constraints), "not supported with the forest baseline")
		}
		if opt.FullDomain {
			return optErr("Constraints", constraintString(opt.Constraints), "not supported with the full-domain baseline")
		}
		if opt.MaxChunk > 0 {
			return optErr("Constraints", constraintString(opt.Constraints), "cannot be combined with MaxChunk")
		}
		if opt.Notion == NotionGlobal1K {
			return optErr("Constraints", constraintString(opt.Constraints),
				"not supported with NotionGlobal1K (the global pipeline ignores constraints; it would silently weaken the guarantee)")
		}
	}
	if opt.MaxChunk > 0 {
		// Only the agglomerative k pipeline is sharded; anywhere else
		// MaxChunk, OnShard and CompletedShards would be silently ignored.
		switch {
		case opt.Notion != NotionK:
			return optErr("MaxChunk", opt.MaxChunk, "requires NotionK (only the agglomerative k pipeline is sharded)")
		case opt.Forest:
			return optErr("MaxChunk", opt.MaxChunk, "not supported with the forest baseline")
		case opt.FullDomain:
			return optErr("MaxChunk", opt.MaxChunk, "not supported with the full-domain baseline")
		}
	} else {
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
