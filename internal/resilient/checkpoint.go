package resilient

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
)

// ShardCheckpoint is the persistable record of one completed shard: enough to
// rebuild the shard's clusters without recomputing them. Sig binds the
// checkpoint to the exact run parameters and record set, so a checkpoint
// written under different options (or after the input changed) is detected
// as stale and recomputed rather than silently reused.
type ShardCheckpoint struct {
	// Shard is the shard's index in the run.
	Shard int `json:"shard"`
	// Sig is Signature(params, records) at write time.
	Sig uint64 `json:"sig"`
	// Clusters holds the shard's clusters as global record-index sets; the
	// closures and costs are recomputed on load (they are pure functions of
	// the members).
	Clusters [][]int `json:"clusters"`
}

// Signature hashes the run parameters and the shard's global record
// indices (FNV-1a) into the checkpoint signature. Deterministic across
// processes — no map iteration, no pointers.
func Signature(params string, records []int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, params)
	var buf [8]byte
	for _, r := range records {
		v := uint64(r)
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// ParseLog reads a JSONL log of ShardCheckpoint lines (one object per
// line) into a shard-indexed map. A torn trailing line — the signature of
// a run killed mid-write — is dropped; a torn line anywhere else is an
// error. Later lines for the same shard win, so an appended log
// self-compacts on load.
//
// ParseLog also returns the length of the valid prefix: everything up to
// (and excluding) a torn trailing line. A resuming writer MUST truncate the log to that length before appending —
// appending after a torn tail without a newline would glue the new line
// onto the partial one, corrupting both for the next resume.
func ParseLog(data []byte) (map[int]ShardCheckpoint, int64, error) {
	out := make(map[int]ShardCheckpoint)
	var valid int64
	off, line := 0, 0
	for off < len(data) {
		line++
		end, next := len(data), len(data)
		if nl := bytes.IndexByte(data[off:], '\n'); nl >= 0 {
			end = off + nl
			next = end + 1
		}
		if b := data[off:end]; len(b) > 0 {
			var ck ShardCheckpoint
			if err := json.Unmarshal(b, &ck); err != nil {
				if next < len(data) {
					return nil, 0, fmt.Errorf("resilient: shard checkpoint line %d: undecodable line followed by more data", line)
				}
				// The torn tail of a killed run: dropped, and excluded
				// from the valid prefix.
				return out, valid, nil
			}
			out[ck.Shard] = ck
		}
		off = next
		valid = int64(off)
	}
	return out, valid, nil
}
