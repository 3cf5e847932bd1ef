// Package core implements the algorithms of "k-Anonymization Revisited"
// (Gionis, Mazza, Tassa; ICDE 2008), one entry point per algorithm, each
// taking a context and returning its result in full:
//
//   - Algorithm 1, the basic agglomerative k-anonymizer, and Algorithm 2,
//     its modified variant (KAnonymizeCtx, delegating to
//     internal/cluster), and their partitioned driver for large inputs
//     (KAnonymizePartitionedReportCtx);
//   - the forest algorithm of Aggarwal et al. (ICDT'05), the 3k−3
//     approximation baseline the paper compares against (ForestCtx);
//   - Algorithm 3, (k,1)-anonymization by nearest neighbours
//     (K1NearestCtx);
//   - Algorithm 4, (k,1)-anonymization by greedy expansion (K1ExpandCtx);
//   - Algorithm 5, the (1,k)-anonymizer post-pass (Make1KCtx), whose
//     coupling with Algorithm 3 or 4 yields a (k,k)-anonymizer, optionally
//     under privacy constraints (KKAnonymizeCtx);
//   - Algorithm 6, upgrading a (k,k)-anonymization to a global
//     (1,k)-anonymization via perfect-matching tests (MakeGlobal1KCtx);
//   - the full-domain global-recoding baseline (FullDomainCtx).
//
// The oracles the tests hold these against — brute-force optimal k- and
// (k,1)-anonymizers for tiny inputs (optimal_test.go) and the LCA-walk
// references (ref_test.go) — live in test files and ship in no build.
//
// A nil context disables cancellation.
package core

import (
	"context"
	"fmt"

	"kanon/internal/cluster"
	"kanon/internal/par"
	"kanon/internal/table"
)

// Observability phases of the core pipelines (obs.KindPhaseStart/End).
const (
	// PhaseK1 is the per-record (k,1) stage (Algorithms 3 and 4).
	PhaseK1 = "core.k1"
	// PhaseMake1K is the Algorithm 5 widening post-pass (plain and diverse).
	PhaseMake1K = "core.make1k"
	// PhaseGlobal is the Algorithm 6 matching-and-widening loop.
	PhaseGlobal = "core.global"
	// PhaseForest is the forest baseline (Borůvka rounds + tree partition).
	PhaseForest = "core.forest"
	// PhaseFullDomain is the full-domain lattice search.
	PhaseFullDomain = "core.fulldomain"
	// PhasePartition is the chunking driver of the partitioned pipeline.
	PhasePartition = "core.partition"
)

// ctxDone reports whether a (possibly nil) context has been cancelled. It
// delegates to par.Done, the stack's single nil-context check.
func ctxDone(ctx context.Context) bool { return par.Done(ctx) }

// KAnonymizeCtx runs the basic agglomerative algorithm (Algorithm 1) or,
// when opt.Modified is set, the modified one (Algorithm 2), through
// cluster.AgglomerateStatsCtx, and returns the k-anonymized table. A nil
// opt.Distance selects D3 (eq. 10). The engine stops at its next
// scan/merge boundary once ctx is done and returns ctx.Err() with no
// partial output. A nil ctx disables cancellation.
func KAnonymizeCtx(ctx context.Context, s *cluster.Space, tbl *table.Table, opt cluster.AggloOptions) (*table.GenTable, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("core: k must be ≥ 1, got %d", opt.K)
	}
	if opt.Distance == nil {
		opt.Distance = cluster.D3{}
	}
	clusters, _, err := cluster.AgglomerateStatsCtx(ctx, s, tbl, opt)
	if err != nil {
		return nil, err
	}
	return cluster.ToGenTable(tbl.Schema, tbl.Len(), clusters), nil
}

// costRows is the one cost-evaluation layer of the core scans. It holds,
// per attribute, the fused LCA-cost row of a fixed closure u
// (cluster.Space.LCACostRow): rows[a][v] = CostAt(a, LCA(u[a], v)). A scan
// loads the rows of its fixed side once; each candidate then costs one
// load per attribute instead of an LCA walk. Sums run in ascending
// attribute order, and the entries are the CostAt values of the same LCA
// nodes, so every cost is bit-identical to the walk it replaces.
type costRows struct {
	s    *cluster.Space
	rows [][]float64
}

func newCostRows(s *cluster.Space) *costRows {
	return &costRows{s: s, rows: make([][]float64, s.NumAttrs())}
}

// load points the rows at closure u. A record is its own leaf closure
// (value ids are leaf node ids), so u may be a table.Record too.
func (c *costRows) load(u []int) {
	for a, row := range c.rows {
		c.rows[a] = c.s.LCACostRow(a, u[a], row)
	}
}

// pairCost returns c(u + rec), the generalization cost of the closure
// covering u and the record. With u = R_i it is d({R_i, R_j}), the edge
// weight of the forest algorithm and of Algorithm 3.
func (c *costRows) pairCost(rec table.Record) float64 {
	sum := 0.0
	for a, row := range c.rows {
		sum += row[rec[a]]
	}
	return sum / float64(len(c.rows))
}

// widenDelta returns Σ_a (row_a[v[a]] − CostAt(a, base[a])) / r: the
// marginal cost c(base + v) − c(base) of widening base to cover v, each
// per-attribute difference taken before it is summed. Algorithm 6 indexes
// R̄_i's rows by an original record (v = R_j, base = R̄_i); Algorithm 5
// takes the same sum per class of rows (rowClasses.price).
func (c *costRows) widenDelta(v, base []int) float64 {
	sum := 0.0
	for a, row := range c.rows {
		sum += row[v[a]] - c.s.CostAt(a, base[a])
	}
	return sum / float64(len(c.rows))
}

// widen sets g ← g + rec: every entry becomes the LCA of itself and the
// record's value.
func widen(s *cluster.Space, g table.GenRecord, rec table.Record) {
	s.MergeInto(g, table.GenRecord(rec))
}

// cand is one scored candidate of a selection scan.
type cand struct {
	j int
	w float64
}

// cheapest is a bounded selection: it keeps the m least candidates offered,
// in ascending (w, j) order. Candidates may be offered in any order of j:
// the kept set is exactly the first m entries of a full sort by weight,
// ties to the lower index.
type cheapest struct {
	m    int
	best []cand
}

// reset empties the selection and sets its bound to m.
func (c *cheapest) reset(m int) {
	c.m = m
	c.best = c.best[:0]
}

// sortsBefore reports whether (w, j) sorts before x.
func sortsBefore(w float64, j int, x cand) bool { return w < x.w || (w == x.w && j < x.j) }

// offer adds (w, j) to the selection and reports whether it was kept.
func (c *cheapest) offer(j int, w float64) bool {
	n := len(c.best)
	if n == c.m {
		if n == 0 || !sortsBefore(w, j, c.best[n-1]) {
			return false
		}
		n--
		c.best = c.best[:n]
	}
	pos := n
	for pos > 0 && sortsBefore(w, j, c.best[pos-1]) {
		pos--
	}
	c.best = append(c.best, cand{})
	copy(c.best[pos+1:], c.best[pos:n])
	c.best[pos] = cand{j, w}
	return true
}
