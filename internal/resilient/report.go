package resilient

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Outcome is the terminal state of one supervised shard.
type Outcome string

// The shard outcomes.
const (
	// OutcomeOK: the shard ran and completed.
	OutcomeOK Outcome = "ok"
	// OutcomeFailed: the shard panicked (contained) or its engine returned
	// an error; the run stopped with a *ShardError.
	OutcomeFailed Outcome = "failed"
	// OutcomeAborted: the run-level context was done; the shard did not
	// fail, the whole run stopped (resumable from a checkpoint).
	OutcomeAborted Outcome = "aborted"
	// OutcomeCheckpoint: the shard was skipped — a checkpoint already held
	// its completed clusters.
	OutcomeCheckpoint Outcome = "checkpoint"
)

// ShardReport is the outcome of one shard.
type ShardReport struct {
	// Shard is the shard's index in the run.
	Shard int `json:"shard"`
	// Records is the shard's record count.
	Records int `json:"records"`
	// Outcome is the branch the shard took.
	Outcome Outcome `json:"outcome"`
	// Err is the failure or abort message (redacted for a contained
	// panic); empty for ok and checkpoint.
	Err string `json:"err,omitempty"`
	// FromCheckpoint marks a shard restored from a shard checkpoint.
	FromCheckpoint bool `json:"from_checkpoint,omitempty"`
}

// RunReport aggregates the per-shard outcomes of one supervised run. It is
// a pure function of (input, checkpoints, the shard that failed): the same
// inputs give byte-identical JSON at any worker count.
type RunReport struct {
	// Shards holds one report per supervised shard, in shard order.
	Shards []ShardReport `json:"shards"`
	// CheckpointHits is the number of shards restored from checkpoints.
	CheckpointHits int `json:"checkpoint_hits"`
}

// add folds one shard report into the totals.
func (r *RunReport) add(sr ShardReport) {
	r.Shards = append(r.Shards, sr)
	if sr.FromCheckpoint {
		r.CheckpointHits++
	}
}

// JSON renders the report as deterministic, indent-free JSON.
func (r *RunReport) JSON() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		// All field types are marshal-safe; this cannot happen.
		panic(fmt.Sprintf("resilient: report marshal: %v", err))
	}
	return b
}

// String renders a one-line human summary plus one line per shard that
// did not simply run ok.
func (r *RunReport) String() string {
	if r == nil {
		return "resilient: no report"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shards=%d checkpoint_hits=%d", len(r.Shards), r.CheckpointHits)
	for _, s := range r.Shards {
		if s.Outcome == OutcomeOK {
			continue
		}
		fmt.Fprintf(&b, "\n  shard %d (%d records): %s", s.Shard, s.Records, s.Outcome)
		if s.Err != "" {
			fmt.Fprintf(&b, ": %s", s.Err)
		}
	}
	return b.String()
}
