package experiment

import (
	"fmt"
	"math"

	"kanon/internal/anonymity"
	"kanon/internal/core"
	"kanon/internal/loss"
)

// GlobalResult is one row of the global (1,k) experiment (E13): the cost of
// upgrading a (k,k)-anonymization into a global (1,k)-anonymization with
// Algorithm 6, and whether over-provisioned ((1+ε)k,(1+ε)k)-anonymizations
// already satisfy global (1,k) — the paper's Section VII conjecture.
type GlobalResult struct {
	Dataset string
	Measure MeasureKind
	K       int

	// KKLoss and GlobalLoss are the information loss before and after the
	// Algorithm 6 upgrade.
	KKLoss, GlobalLoss float64
	// Stats reports the upgrade work (deficiencies, widening steps).
	Stats core.Global1KStats
	// EpsGlobal[ε] reports whether the ((1+ε)k,(1+ε)k)-anonymization
	// produced by the same pipeline already satisfies global
	// (1,k)-anonymity without running Algorithm 6.
	EpsGlobal map[float64]bool
}

// RunGlobal runs experiment E13 on one dataset under the given measure:
// for every k in the sweep it builds the (k,k)-anonymization
// (Algorithm 4 + 5), upgrades it with Algorithm 6, and probes the ε
// over-provisioning conjecture for each requested ε.
func (c Config) RunGlobal(dataset string, m MeasureKind, epsilons []float64) ([]GlobalResult, error) {
	ds, err := c.dataset(dataset)
	if err != nil {
		return nil, err
	}
	s, meas, err := newSpace(ds, m)
	if err != nil {
		return nil, err
	}
	var out []GlobalResult
	for _, k := range c.Ks {
		gkk, err := core.KKAnonymizeCtx(c.Ctx, s, ds.Table, k, core.K1ByExpansion, nil, nil, c.Workers)
		if err != nil {
			return nil, fmt.Errorf("experiment: (k,k) at k=%d: %w", k, err)
		}
		res := GlobalResult{
			Dataset:   dataset,
			Measure:   m,
			K:         k,
			KKLoss:    loss.TableLoss(meas, gkk),
			EpsGlobal: make(map[float64]bool),
		}
		gGlobal, stats, err := core.MakeGlobal1KCtx(c.Ctx, s, ds.Table, gkk.Clone(), k)
		if err != nil {
			return nil, fmt.Errorf("experiment: global upgrade at k=%d: %w", k, err)
		}
		res.GlobalLoss = loss.TableLoss(meas, gGlobal)
		res.Stats = stats
		if c.Verify && !anonymity.IsGlobal1K(s, ds.Table, gGlobal, k) {
			return nil, fmt.Errorf("experiment: global (1,%d) output failed verification", k)
		}
		for _, eps := range epsilons {
			kUp := int(math.Ceil(float64(k) * (1 + eps)))
			if kUp > ds.Table.Len() {
				continue
			}
			gUp, err := core.KKAnonymizeCtx(c.Ctx, s, ds.Table, kUp, core.K1ByExpansion, nil, nil, c.Workers)
			if err != nil {
				return nil, fmt.Errorf("experiment: (k,k) at k=%d (ε=%.2f): %w", kUp, eps, err)
			}
			res.EpsGlobal[eps] = anonymity.IsGlobal1K(s, ds.Table, gUp, k)
		}
		c.logf("done %-8s %-2s global            k=%-3d kk=%.4f global=%.4f deficient=%d steps=%d",
			dataset, m, k, res.KKLoss, res.GlobalLoss, stats.DeficientRecords, stats.GeneralizationSteps)
		out = append(out, res)
	}
	return out, nil
}
