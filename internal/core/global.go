package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"kanon/internal/bipartite"
	"kanon/internal/cluster"
	"kanon/internal/fault"
	"kanon/internal/obs"
	"kanon/internal/table"
)

// Global1KStats reports what Algorithm 6 had to do, feeding the paper's
// observation that "in almost all of our experiments, one such step was
// sufficient" (Section V-C) and the future-work question of how close
// (k,k)-anonymizations already are to global (1,k)-anonymity.
type Global1KStats struct {
	// DeficientRecords is the number of original records whose initial
	// match count was below k.
	DeficientRecords int
	// GeneralizationSteps is the total number of R̄_i ← R̄_i + R_jh updates
	// performed.
	GeneralizationSteps int
	// MaxStepsPerRecord is the largest number of updates any single record
	// required.
	MaxStepsPerRecord int
	// InitialMinMatches is the smallest match count before the upgrade.
	InitialMinMatches int
}

// MakeGlobal1K runs Algorithm 6: it upgrades a (k,k)-anonymization g of tbl
// into a global (1,k)-anonymization. For every original record R_i whose
// number of matches (edges of the consistency graph completable to a
// perfect matching, Definition 4.6) is below k, the algorithm selects the
// non-match neighbour R̄_jh minimizing c(R̄_i + R_jh) − c(R̄_i), where R_jh
// is the neighbour's *original* record, and widens R̄_i ← R̄_i + R_jh. The
// swap through the identity matching (see DESIGN.md) shows each such update
// turns R̄_jh into a match of R_i, so the loop terminates.
//
// g must be a positional generalization of tbl (R̄_i generalizes R_i); this
// is verified. g is modified in place and returned alongside the stats.
func MakeGlobal1K(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) (*table.GenTable, Global1KStats, error) {
	return MakeGlobal1KCtx(nil, s, tbl, g, k)
}

// MakeGlobal1KCtx is MakeGlobal1K under a context: cancellation is checked
// before every record and every widening step (the matching rebuild is the
// expensive unit of work), returning ctx.Err(). Like Make1KCtx, a cancelled
// call leaves g partially widened — discard g on error. A nil ctx disables
// cancellation.
func MakeGlobal1KCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, g *table.GenTable, k int) (*table.GenTable, Global1KStats, error) {
	var stats Global1KStats
	n := tbl.Len()
	if g.Len() != n {
		return nil, stats, fmt.Errorf("core: generalized table has %d records, original has %d", g.Len(), n)
	}
	if err := checkK1Args(n, k); err != nil {
		return nil, stats, err
	}
	for i := 0; i < n; i++ {
		if !s.Consistent(tbl.Records[i], g.Records[i]) {
			return nil, stats, fmt.Errorf("core: record %d: R̄_i does not generalize R_i; Algorithm 6 requires a positional generalization", i)
		}
	}

	o := obs.From(ctx)
	defer o.Phase(PhaseGlobal)()
	// adj[u] lists, ascending, the j with R_u consistent with R̄_j: the
	// consistency graph. Widening R̄_i only adds consistencies, so each step
	// inserts i into the lists that gain it instead of rebuilding the graph.
	adj := make([][]int, n)
	for u := 0; u < n; u++ {
		if ctxDone(ctx) {
			return nil, stats, ctx.Err()
		}
		for j := 0; j < n; j++ {
			if s.Consistent(tbl.Records[u], g.Records[j]) {
				adj[u] = append(adj[u], j)
			}
		}
	}
	var matcher bipartite.Matcher
	allowed, err := matcher.AllowedEdges(bipartite.FromAdjacency(n, adj))
	if err != nil {
		return nil, stats, fmt.Errorf("core: consistency graph has no perfect matching: %w", err)
	}
	o.Counter("core.global.matchings", 1)
	stats.InitialMinMatches = math.MaxInt
	for i := 0; i < n; i++ {
		if len(allowed[i]) < stats.InitialMinMatches {
			stats.InitialMinMatches = len(allowed[i])
		}
		if len(allowed[i]) < k {
			stats.DeficientRecords++
		}
	}
	rows := newCostRows(s)
	isMatch := make([]bool, n)
	for i := 0; i < n; i++ {
		steps := 0
		for len(allowed[i]) < k {
			if ctxDone(ctx) {
				return nil, stats, ctx.Err()
			}
			fault.Inject(SiteGlobalStep)
			// Non-match neighbours of R_i.
			for _, v := range allowed[i] {
				isMatch[v] = true
			}
			// Widen R̄_i to also cover the neighbour's original R_j: each
			// candidate reads R̄_i's cost rows at R_j's values.
			gi := g.Records[i]
			rows.load(gi)
			bestJ, bestDelta := -1, math.Inf(1)
			for _, j := range adj[i] {
				if isMatch[j] {
					continue
				}
				if delta := rows.widenDelta(tbl.Records[j], gi); delta < bestDelta {
					bestJ, bestDelta = j, delta
				}
			}
			for _, v := range allowed[i] {
				isMatch[v] = false
			}
			if bestJ < 0 {
				return nil, stats, fmt.Errorf("core: record %d has no non-match neighbour to widen towards (matches %d < k=%d)", i, len(allowed[i]), k)
			}
			widen(s, gi, tbl.Records[bestJ])
			// Right node i of the consistency graph may gain neighbours.
			for u, nb := range adj {
				if p, found := slices.BinarySearch(nb, i); !found && s.Consistent(tbl.Records[u], gi) {
					adj[u] = slices.Insert(nb, p, i)
				}
			}
			steps++
			stats.GeneralizationSteps++
			o.Event(obs.KindAugment, PhaseGlobal, 1)
			allowed, err = matcher.AllowedEdges(bipartite.FromAdjacency(n, adj))
			if err != nil {
				return nil, stats, fmt.Errorf("core: perfect matching lost after widening (impossible for positional generalizations): %w", err)
			}
			o.Counter("core.global.matchings", 1)
		}
		if steps > stats.MaxStepsPerRecord {
			stats.MaxStepsPerRecord = steps
		}
	}
	if o.Enabled() {
		o.Counter("core.global.deficient", int64(stats.DeficientRecords))
		o.Counter("core.global.steps", int64(stats.GeneralizationSteps))
		o.Counter("core.global.min_matches", int64(stats.InitialMinMatches))
		o.Peak("core.global.max_steps", int64(stats.MaxStepsPerRecord))
	}
	return g, stats, nil
}

// GlobalAnonymize is the full global (1,k) pipeline of the paper: a
// (k,k)-anonymization (Algorithm 4 + Algorithm 5) upgraded by Algorithm 6.
func GlobalAnonymize(s *cluster.Space, tbl *table.Table, k int) (*table.GenTable, Global1KStats, error) {
	return GlobalAnonymizeCtx(nil, s, tbl, k, 0)
}

// GlobalAnonymizeCtx is GlobalAnonymize under a context, with the (k,k)
// stage running on a pool of Workers(workers) workers. A nil ctx disables
// cancellation.
func GlobalAnonymizeCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, k, workers int) (*table.GenTable, Global1KStats, error) {
	g, err := KKAnonymizeCtx(ctx, s, tbl, k, K1ByExpansion, workers)
	if err != nil {
		return nil, Global1KStats{}, err
	}
	return MakeGlobal1KCtx(ctx, s, tbl, g, k)
}
