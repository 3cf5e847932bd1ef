package experiment

import (
	"fmt"
	"strings"

	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/loss"
	"kanon/internal/obs"
	"kanon/internal/risk"
	"kanon/internal/table"
)

// emitAttackCounters publishes the worker-count-invariant attack totals of
// one run into its observability stream.
func emitAttackCounters(run *obs.Run, rep *risk.AttackReport) {
	run.Counter(obs.CounterAttackPopulation, int64(rep.Records))
	run.Counter(obs.CounterAttackVulnMatching, int64(rep.Matching.Vulnerable))
	run.Counter(obs.CounterAttackVulnRefinement, int64(rep.Refinement.Vulnerable))
	run.Counter(obs.CounterAttackVulnIntersection, int64(rep.Intersection.Vulnerable))
	run.Counter(obs.CounterAttackVulnUnion, int64(rep.VulnerableUnion))
}

// AttackResult is one row of the adversarial evaluation experiment (E20):
// one pipeline's release at one k, scored by the full attack suite.
type AttackResult struct {
	Dataset   string
	K         int
	Algorithm string
	Loss      float64
	Report    *risk.AttackReport
}

// RunAttack runs E20 on one dataset under the entropy measure: the four
// representative pipelines — agglomerative k-anonymity, the forest
// baseline, the (k,k) coupling, and its global (1,k) upgrade — each
// evaluated by the matching, refinement and intersection attacks. The rows
// quantify the paper's central claim: the privacy/utility ladder from
// k-anonymity to global (1,k)-anonymity is visible as a monotone drop in
// the vulnerable share of the population.
func (c Config) RunAttack(dataset string) ([]AttackResult, error) {
	ds, err := c.dataset(dataset)
	if err != nil {
		return nil, err
	}
	s, meas, err := newSpace(ds, EM)
	if err != nil {
		return nil, err
	}
	type pipeline struct {
		name string
		gen  func(k int) (*table.GenTable, error)
	}
	pipelines := []pipeline{
		{"k-anon", func(k int) (*table.GenTable, error) {
			g, err := core.KAnonymizeCtx(c.Ctx, s, ds.Table, cluster.AggloOptions{K: k, Workers: c.Workers})
			return g, err
		}},
		{"forest", func(k int) (*table.GenTable, error) {
			g, _, err := core.ForestCtx(c.Ctx, s, ds.Table, k)
			return g, err
		}},
		{"kk", func(k int) (*table.GenTable, error) {
			return core.KKAnonymizeCtx(c.Ctx, s, ds.Table, k, core.K1ByExpansion, nil, nil, c.Workers)
		}},
		{"global", func(k int) (*table.GenTable, error) {
			g, err := core.KKAnonymizeCtx(c.Ctx, s, ds.Table, k, core.K1ByExpansion, nil, nil, c.Workers)
			if err != nil {
				return nil, err
			}
			g, _, err = core.MakeGlobal1KCtx(c.Ctx, s, ds.Table, g, k)
			return g, err
		}},
	}
	var out []AttackResult
	for _, k := range c.Ks {
		for _, p := range pipelines {
			g, err := p.gen(k)
			if err != nil {
				return nil, fmt.Errorf("experiment: %s at k=%d: %w", p.name, k, err)
			}
			rep, err := risk.EvaluateAttacks(s, ds.Table, g, k, ds.Sensitive)
			if err != nil {
				return nil, fmt.Errorf("experiment: attack suite on %s at k=%d: %w", p.name, k, err)
			}
			out = append(out, AttackResult{
				Dataset: dataset, K: k, Algorithm: p.name,
				Loss: loss.TableLoss(meas, g), Report: rep,
			})
			c.logf("done %-8s %-2s attack:%-10s k=%-3d loss=%.4f risk=%.1f%%",
				dataset, "EM", p.name, k, loss.TableLoss(meas, g), rep.Score)
		}
	}
	return out, nil
}

// FormatAttack renders E20: per release, the entropy loss next to the
// vulnerable-population percentage of each attack and their union.
func FormatAttack(results []AttackResult) string {
	var b strings.Builder
	b.WriteString("ADVERSARIAL EVALUATION (E20) — % of population vulnerable per attack\n")
	fmt.Fprintf(&b, "%-6s %-4s %-10s %10s %10s %12s %13s %10s %8s\n",
		"data", "k", "release", "loss", "matching", "refinement", "intersection", "union", "exposed")
	for _, r := range results {
		rep := r.Report
		fmt.Fprintf(&b, "%-6s %-4d %-10s %10.4f %9.1f%% %11.1f%% %12.1f%% %9.1f%% %8d\n",
			r.Dataset, r.K, r.Algorithm, r.Loss,
			rep.Matching.VulnerablePct, rep.Refinement.VulnerablePct,
			rep.Intersection.VulnerablePct, rep.Score,
			rep.Matching.Exposed+rep.Refinement.Exposed+rep.Intersection.Exposed)
	}
	return b.String()
}
