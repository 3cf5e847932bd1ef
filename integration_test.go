package kanon

import (
	"testing"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/loss"
)

// TestIntegrationAllDatasetsAllNotions runs every pipeline on every
// benchmark dataset and certifies the outputs against the definition-level
// verifiers — the end-to-end contract of the library.
func TestIntegrationAllDatasetsAllNotions(t *testing.T) {
	datasets := []*datagen.Dataset{
		datagen.ART(180, 11),
		datagen.Adult(180, 11),
		datagen.CMC(180, 11),
	}
	const k = 5
	for _, ds := range datasets {
		em, err := loss.NewEntropy(ds.Table, ds.Hiers)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		s, err := cluster.NewSpace(ds.Hiers, em)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}

		gK, err := core.KAnonymizeCtx(nil, s, ds.Table, cluster.AggloOptions{K: k})
		if err != nil {
			t.Fatalf("%s agglo: %v", ds.Name, err)
		}
		if !anonymity.IsKAnonymous(gK, k) || !anonymity.IsGeneralizationOf(s, ds.Table, gK) {
			t.Errorf("%s: agglomerative output invalid", ds.Name)
		}

		gF, _, err := core.ForestCtx(nil, s, ds.Table, k)
		if err != nil {
			t.Fatalf("%s forest: %v", ds.Name, err)
		}
		if !anonymity.IsKAnonymous(gF, k) {
			t.Errorf("%s: forest output not k-anonymous", ds.Name)
		}

		gKK, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
		if err != nil {
			t.Fatalf("%s kk: %v", ds.Name, err)
		}
		if !anonymity.IsKK(s, ds.Table, gKK, k) {
			t.Errorf("%s: (k,k) output invalid", ds.Name)
		}

		gG, _, err := core.MakeGlobal1KCtx(nil, s, ds.Table, gKK.Clone(), k)
		if err != nil {
			t.Fatalf("%s global: %v", ds.Name, err)
		}
		if !anonymity.IsGlobal1K(s, ds.Table, gG, k) {
			t.Errorf("%s: global output invalid", ds.Name)
		}

		// The paper's headline utility ordering. The forest baseline can be
		// competitive at tiny n, so only the strict (k,k) ≤ k-anon claim is
		// asserted; the forest gap is checked loosely.
		lK := loss.TableLoss(em, gK)
		lF := loss.TableLoss(em, gF)
		lKK := loss.TableLoss(em, gKK)
		if lKK > lK+1e-9 {
			t.Errorf("%s: (k,k) loss %.4f exceeds k-anon loss %.4f", ds.Name, lKK, lK)
		}
		if lF < lKK-1e-9 {
			t.Errorf("%s: forest loss %.4f below (k,k) loss %.4f", ds.Name, lF, lKK)
		}
		// Global upgrade can only add loss, and only a little.
		lG := loss.TableLoss(em, gG)
		if lG < lKK-1e-12 {
			t.Errorf("%s: global loss %.4f below (k,k) loss %.4f", ds.Name, lG, lKK)
		}
	}
}

// TestIntegrationRelaxationStrict verifies on a real pipeline output that
// the relaxations are strict in practice: the (k,k) result is not
// k-anonymous (otherwise it could not be cheaper).
func TestIntegrationRelaxationStrict(t *testing.T) {
	ds := datagen.Adult(200, 13)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	gKK, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if anonymity.IsKAnonymous(gKK, k) {
		t.Skip("degenerate: (k,k) output happened to be k-anonymous")
	}
	if !anonymity.IsKK(s, ds.Table, gKK, k) {
		t.Error("(k,k) output must satisfy (k,k)")
	}
}

// TestIntegrationMeasureConsistency: each pipeline optimized under LM must
// not lose to the entropy-optimized pipeline when both are scored under LM
// by a large margin (sanity of measure plumbing; exact dominance is not
// guaranteed by heuristics).
func TestIntegrationMeasureConsistency(t *testing.T) {
	ds := datagen.ART(200, 17)
	const k = 5
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		t.Fatal(err)
	}
	lm := loss.NewLM(ds.Hiers)
	sEM, _ := cluster.NewSpace(ds.Hiers, em)
	sLM, _ := cluster.NewSpace(ds.Hiers, lm)
	gEM, err := core.KAnonymizeCtx(nil, sEM, ds.Table, cluster.AggloOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	gLM, err := core.KAnonymizeCtx(nil, sLM, ds.Table, cluster.AggloOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	lmOfLM := loss.TableLoss(lm, gLM)
	lmOfEM := loss.TableLoss(lm, gEM)
	if lmOfLM > lmOfEM*1.5+1e-9 {
		t.Errorf("LM-optimized pipeline (%.4f) much worse under LM than entropy-optimized (%.4f)",
			lmOfLM, lmOfEM)
	}
}
