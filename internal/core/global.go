package core

import (
	"context"
	"fmt"
	"math"

	"kanon/internal/bipartite"
	"kanon/internal/cluster"
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

// MakeGlobal1KCtx runs Algorithm 6: it upgrades a (k,k)-anonymization g
// of tbl into a global (1,k)-anonymization. For every original record R_i
// whose number of matches (edges of the consistency graph completable to a
// perfect matching, Definition 4.6) is below k, the algorithm selects the
// non-match neighbour R̄_jh minimizing c(R̄_i + R_jh) − c(R̄_i), where R_jh
// is the neighbour's *original* record, and widens R̄_i ← R̄_i + R_jh. The
// swap through the identity matching (see DESIGN.md) shows each such update
// turns R̄_jh into a match of R_i, so the loop terminates.
//
// g must be a positional generalization of tbl (R̄_i generalizes R_i); this
// is verified. g is modified in place and returned alongside the stats.
//
// Cancellation is checked while the consistency graph is built and before
// every widening step, returning ctx.Err(). Like Make1KCtx, a cancelled
// call leaves g partially widened — discard g on error. A nil ctx disables
// cancellation.
//
// The graph is built once and one Hopcroft–Karp pass finds its perfect
// matching. Widening only adds edges, so that matching stays perfect and a
// match stays a match. Only records deficient at the start are revisited,
// with no new matching: bipartite.Growing answers a record's matches from
// the components it has certified, or else by a search of its own
// (core.global.search_visits counts the searches' visits). The originals
// never change, so static masks over them (recordMasks) give both the
// graph and, after a widening of R̄_i, the records now consistent with it.
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
	visits := int64(0)
	defer func() {
		o.Counter("core.global.deficient", int64(stats.DeficientRecords))
		o.Counter("core.global.steps", int64(stats.GeneralizationSteps))
		o.Counter("core.global.min_matches", int64(stats.InitialMinMatches))
		o.Counter("core.global.search_visits", visits)
		o.Peak("core.global.max_steps", int64(stats.MaxStepsPerRecord))
	}()
	// adj[u] lists, ascending, the j with R_u consistent with R̄_j: the
	// consistency graph, read row by row off the static masks over the
	// originals. The lists share one exactly sized array until an
	// insertion moves a list to an array of its own.
	x := newRecordMasks(s, tbl)
	deg := make([]int, n)
	under := make([]int, 0, n)
	for _, row := range g.Records {
		under = appendSet(under[:0], x.recordsOf(row))
		for _, u := range under {
			deg[u]++
		}
	}
	adj := make([][]int, n)
	edges := 0
	for _, d := range deg {
		edges += d
	}
	buf := make([]int, edges)
	for u, d := range deg {
		adj[u], buf = buf[:0:d], buf[d:]
	}
	for j, row := range g.Records {
		if ctxDone(ctx) {
			return nil, stats, ctx.Err()
		}
		under = appendSet(under[:0], x.recordsOf(row))
		for _, u := range under {
			adj[u] = append(adj[u], j)
		}
	}
	graph, allowed, err := bipartite.NewGrowing(n, adj)
	if err != nil {
		return nil, stats, fmt.Errorf("core: consistency graph has no perfect matching: %w", err)
	}
	o.Counter("core.global.matchings", 1)
	// Match sets only grow, so only the records deficient now are ever
	// widened.
	stats.InitialMinMatches = math.MaxInt
	var deficient []int
	for i, ms := range allowed {
		stats.InitialMinMatches = min(stats.InitialMinMatches, len(ms))
		if len(ms) < k {
			deficient = append(deficient, i)
		}
	}
	stats.DeficientRecords = len(deficient)
	rows := newCostRows(s)
	isMatch := make([]bool, n)
	for _, i := range deficient {
		steps := 0
		for {
			// Fewer than k matches are exactly all of them.
			matches, visited := graph.Matches(i, k)
			visits += int64(visited)
			if len(matches) >= k {
				break
			}
			if ctxDone(ctx) {
				return nil, stats, ctx.Err()
			}
			// Non-match neighbours of R_i.
			for _, v := range matches {
				isMatch[v] = true
			}
			// Widen R̄_i to also cover the neighbour's original R_j: each
			// candidate reads R̄_i's cost rows at R_j's values.
			gi := g.Records[i]
			rows.load(gi)
			bestJ, bestDelta := -1, math.Inf(1)
			for _, j := range graph.Neighbors(i) {
				if isMatch[j] {
					continue
				}
				if delta := rows.widenDelta(tbl.Records[j], gi); delta < bestDelta {
					bestJ, bestDelta = j, delta
				}
			}
			for _, v := range matches {
				isMatch[v] = false
			}
			if bestJ < 0 {
				return nil, stats, fmt.Errorf("core: record %d has no non-match neighbour to widen towards (matches %d < k=%d)", i, len(matches), k)
			}
			widen(s, gi, tbl.Records[bestJ])
			// Right node i of the consistency graph may gain neighbours:
			// the records under R̄_i's new nodes.
			under = appendSet(under[:0], x.recordsOf(gi))
			for _, u := range under {
				graph.AddEdge(u, i)
			}
			steps++
			stats.GeneralizationSteps++
		}
		if steps > stats.MaxStepsPerRecord {
			stats.MaxStepsPerRecord = steps
		}
	}
	return g, stats, nil
}
