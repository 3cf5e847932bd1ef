package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"kanon/internal/cluster"
	"kanon/internal/obs"
	"kanon/internal/table"
)

// This file holds the constrained (k,k) pipeline: Algorithm 5 and its
// (k,1) front end under the pluggable privacy constraints of
// internal/cluster/constraint.go (DESIGN.md §15).

// activeConstraints drops nil and trivially-satisfied constraints,
// mirroring the engine's own filtering so the pipelines agree on whether a
// run is constrained at all.
func activeConstraints(cons []cluster.Constraint) []cluster.Constraint {
	out := cons[:0:0]
	for _, c := range cons {
		if c != nil && !c.Trivial() {
			out = append(out, c)
		}
	}
	return out
}

// constraintNames renders a constraint list for error messages.
func constraintNames(cons []cluster.Constraint) string {
	names := make([]string, len(cons))
	for i, c := range cons {
		names[i] = c.String()
	}
	return strings.Join(names, ",")
}

// make1KConstrained extends Algorithm 5 with privacy constraints on
// candidate sets: after the pass, every original record R_i is consistent
// with at least k generalized records whose sensitive values satisfy every
// constraint. This bounds what the first adversary of Section IV-A learns
// about the target's sensitive attribute — for distinct ℓ-diversity her
// candidate set is never homogeneous, for t-closeness it stays within EMD
// t of the table distribution.
//
// As in Make1KCtx, records of g are only ever widened, so a (k,1) input
// keeps its (k,1) property and the coupling yields a constrained
// (k,k)-anonymization. g is modified in place and returned. The
// per-record widening loop stops at the next record boundary once ctx is
// done and ctx.Err() is returned, leaving g partially widened — discard g
// on error. A nil ctx disables cancellation.
//
// Termination: every iteration of a record's widening loop makes one more
// generalized record consistent with it, and each Bind proved the whole
// table satisfies its constraint, so the loop converges in at most n
// widenings per record.
func make1KConstrained(ctx context.Context, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int, cons []cluster.Constraint, sensitive []int) (*table.GenTable, error) {
	n := tbl.Len()
	if g == nil || g.Len() != n {
		return nil, fmt.Errorf("core: generalized table missing or wrong length (original has %d records)", n)
	}
	if err := checkK1Args(n, k); err != nil {
		return nil, err
	}
	active := activeConstraints(cons)
	var bound []cluster.Bound
	if len(active) > 0 {
		if len(sensitive) != n {
			return nil, fmt.Errorf("core: %d sensitive values for %d records", len(sensitive), n)
		}
		bound = make([]cluster.Bound, len(active))
		for i, c := range active {
			b, err := c.Bind(sensitive)
			if err != nil {
				return nil, err
			}
			bound[i] = b
		}
	}

	o := obs.From(ctx)
	defer o.Phase(PhaseMake1K)()
	var deficient, augments int64
	defer func() { reportAugments(o, deficient, augments) }()
	x := newConsIndex(s, g)
	rows := newCostRows(s)
	var members, cands []int
	// violated collects, per round, the bounds the current candidate set
	// fails; improvesAny asks whether widening record j would strictly
	// improve any of them.
	violated := make([]cluster.Bound, 0, len(bound))
	improvesAny := func(j int) bool {
		for _, b := range violated {
			if b.Improves(j) {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		if ctxDone(ctx) {
			return nil, ctx.Err()
		}
		ri := tbl.Records[i]
		// Every widening of this record is priced from R_i's cost rows.
		rows.load(ri)
		widened := int64(0)
		for {
			consistent := x.rowsOf(ri)
			members = appendSet(members[:0], consistent)
			for _, b := range bound {
				b.Reset()
				for _, j := range members {
					b.Add(j)
				}
			}
			needCount := len(members) < k
			violated = violated[:0]
			for _, b := range bound {
				if !b.Satisfied() {
					violated = append(violated, b)
				}
			}
			if !needCount && len(violated) == 0 {
				break
			}
			// Pick the cheapest widening among admissible candidates: while a
			// constraint is violated, restrict to records that improve one,
			// and prefer them (the −1e9 bias) even when counts are also
			// short. This reproduces the diversity-aware heuristic of the
			// retired distinct-ℓ Make1K pass exactly for
			// DistinctLDiversity, where Improves(j) ⟺ the candidate carries
			// a new sensitive value.
			cands = appendClear(cands[:0], consistent, n)
			bestJ, bestDelta := -1, math.Inf(1)
			for _, j := range cands {
				gj := g.Records[j]
				if len(violated) > 0 && !needCount && !improvesAny(j) {
					continue
				}
				delta := rows.widenDelta(gj, gj)
				if len(violated) > 0 && improvesAny(j) {
					delta -= 1e9
				}
				if delta < bestDelta {
					bestJ, bestDelta = j, delta
				}
			}
			if bestJ < 0 && len(violated) > 0 && !needCount {
				// No single widening improves a violated constraint (possible
				// for the non-monotone notions — entropy, recursive,
				// t-closeness). Fall back to the cheapest widening of any
				// non-consistent record: the candidate set still grows toward
				// the whole table, which satisfies every bound constraint.
				// Unreachable for distinct ℓ-diversity, where a missing value
				// always has a non-consistent, improving carrier.
				for _, j := range cands {
					gj := g.Records[j]
					if delta := rows.widenDelta(gj, gj); delta < bestDelta {
						bestJ, bestDelta = j, delta
					}
				}
			}
			if bestJ < 0 {
				return nil, fmt.Errorf("core: record %d cannot reach (k=%d, constraints=%s): no admissible widening",
					i, k, constraintNames(active))
			}
			x.widen(bestJ, ri)
			widened++
		}
		if widened > 0 {
			deficient++
			augments += widened
		}
	}
	return g, nil
}
