package experiment

import (
	"fmt"
	"strings"

	"kanon/internal/anonymity"
	"kanon/internal/attack"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/loss"
	"kanon/internal/table"
)

// ConstraintResult is one row of the pluggable-constraint experiment
// (E22): the utility and risk of one engine × constraint × k cell. Every
// release is scored under both loss measures plus the discernibility
// metric, and attacked with the homogeneity analysis, so the table answers
// both questions at once — what each constraint notion costs, and how much
// sensitive-value exposure it removes.
type ConstraintResult struct {
	Dataset    string
	K          int
	Constraint string // "none", or the cluster.Constraint name
	Engine     string // alg1, alg2, kk

	EntropyLoss float64 // ΠE of the release
	LMLoss      float64 // ΠLM of the same release
	DM          int     // discernibility metric
	Millis      int64

	// Satisfied is the class-level audit: every equivalence class of the
	// release satisfies the constraint. For the kk engine the binding
	// guarantee is candidate-set-based, so this stricter audit may be
	// false with the guarantee intact.
	Satisfied bool
	// Exposed counts records whose sensitive value the first adversary
	// learns outright (all consistent candidates share one value).
	Exposed int
}

// constraintMenu is the sweep of E22: the unconstrained baseline and one
// representative of each constraint family. Parameters are chosen to be
// feasible on all three benchmark datasets (ADT's sensitive attribute is
// binary and ~3:1 skewed, which caps the attainable entropy and ratio).
func constraintMenu() []struct {
	name string
	cons []cluster.Constraint
} {
	return []struct {
		name string
		cons []cluster.Constraint
	}{
		{"none", nil},
		{"distinct=2", []cluster.Constraint{cluster.DistinctLDiversity(2)}},
		{"entropy=1.5", []cluster.Constraint{cluster.EntropyLDiversity(1.5)}},
		{"recursive=4/2", []cluster.Constraint{cluster.RecursiveCL(4, 2)}},
		{"tclose=0.4", []cluster.Constraint{cluster.TCloseness(0.4)}},
	}
}

// RunConstraints runs E22 on one dataset: every constraint of the menu
// through all three engines across the k sweep.
func (c Config) RunConstraints(dataset string) ([]ConstraintResult, error) {
	ds, err := c.dataset(dataset)
	if err != nil {
		return nil, err
	}
	s, meas, err := newSpace(ds, EM)
	if err != nil {
		return nil, err
	}
	lm := loss.NewLM(ds.Hiers)
	var out []ConstraintResult
	for _, k := range c.Ks {
		for _, menu := range constraintMenu() {
			engines := []struct {
				name string
				run  func() (*table.GenTable, error)
			}{
				{"alg1", func() (*table.GenTable, error) {
					g, err := core.KAnonymizeCtx(c.Ctx, s, ds.Table, cluster.AggloOptions{
						K: k, Workers: c.Workers, Constraints: menu.cons, Sensitive: ds.Sensitive})
					return g, err
				}},
				{"alg2", func() (*table.GenTable, error) {
					g, err := core.KAnonymizeCtx(c.Ctx, s, ds.Table, cluster.AggloOptions{
						K: k, Modified: true, Workers: c.Workers, Constraints: menu.cons, Sensitive: ds.Sensitive})
					return g, err
				}},
				{"kk", func() (*table.GenTable, error) {
					return core.KKAnonymizeCtx(c.Ctx, s, ds.Table, k,
						core.K1ByExpansion, menu.cons, ds.Sensitive, c.Workers)
				}},
			}
			for _, eng := range engines {
				start := nowMillis()
				g, err := eng.run()
				if err != nil {
					return nil, fmt.Errorf("%s %s k=%d: %w", eng.name, menu.name, k, err)
				}
				res := ConstraintResult{
					Dataset: dataset, K: k, Constraint: menu.name, Engine: eng.name,
					EntropyLoss: loss.TableLoss(meas, g),
					LMLoss:      loss.TableLoss(lm, g),
					DM:          loss.Discernibility(g),
					Millis:      c.millisSince(start),
				}
				res.Satisfied, err = classesSatisfy(g, menu.cons, ds.Sensitive)
				if err != nil {
					return nil, err
				}
				outcomes, err := attack.Simulate(s, ds.Table, g, ds.Sensitive)
				if err != nil {
					return nil, err
				}
				res.Exposed = attack.Summarize(outcomes, k).Exposed1
				c.logf("done %-8s constraints %-14s %-4s k=%-3d pe=%.4f lm=%.4f dm=%d exposed=%d",
					dataset, menu.name, eng.name, k, res.EntropyLoss, res.LMLoss, res.DM, res.Exposed)
				out = append(out, res)
			}
		}
	}
	return out, nil
}

// classesSatisfy audits the release's equivalence classes against every
// constraint (anonymity.AuditClasses). An empty constraint list is
// vacuously satisfied.
func classesSatisfy(g *table.GenTable, cons []cluster.Constraint, sensitive []int) (bool, error) {
	for _, cc := range cons {
		a, err := anonymity.AuditClasses(g, cc, sensitive)
		if err != nil || !a.Satisfied {
			return false, err
		}
	}
	return true, nil
}

// FormatConstraints renders E22.
func FormatConstraints(results []ConstraintResult) string {
	var b strings.Builder
	b.WriteString("PLUGGABLE PRIVACY CONSTRAINTS (E22) — loss, discernibility and homogeneity exposure\n")
	fmt.Fprintf(&b, "%-6s %-4s %-14s %-5s %10s %10s %10s %8s %6s %8s\n",
		"data", "k", "constraint", "eng", "ΠE", "ΠLM", "DM", "ms", "sat", "exposed")
	for _, r := range results {
		sat := "yes"
		if !r.Satisfied {
			sat = "no"
		}
		fmt.Fprintf(&b, "%-6s %-4d %-14s %-5s %10.4f %10.4f %10d %8d %6s %8d\n",
			r.Dataset, r.K, r.Constraint, r.Engine, r.EntropyLoss, r.LMLoss, r.DM, r.Millis, sat, r.Exposed)
	}
	return b.String()
}
