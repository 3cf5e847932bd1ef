package attack

import (
	"testing"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/loss"
)

// FuzzRefinementAttack fuzzes the containment theorem of the refinement
// attack: on any release certified globally (1,k)-anonymous, the refined
// candidate set of every position has size ≥ k — the no-auxiliary-
// information adversary can never do better than the fully-informed second
// adversary, whom the certificate bounds. A violation would mean either
// the attack over-reports (unsound refinement) or the certificate lies
// (broken verifier); both are privacy-critical.
func FuzzRefinementAttack(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(2))
	f.Add(int64(7), uint8(45), uint8(3))
	f.Add(int64(12345), uint8(60), uint8(4))
	f.Add(int64(-9), uint8(25), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw uint8) {
		// Keep the quadratic pipeline fuzz-sized: n in [10, 73], k in [2, 5].
		n := 10 + int(nRaw)%64
		k := 2 + int(kRaw)%4
		ds := datagen.ART(n, seed)
		em, err := loss.NewEntropy(ds.Table, ds.Hiers)
		if err != nil {
			t.Fatal(err)
		}
		s, err := cluster.NewSpace(ds.Hiers, em)
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err = core.MakeGlobal1KCtx(nil, s, ds.Table, g, k)
		if err != nil {
			t.Fatal(err)
		}
		if !anonymity.IsGlobal1K(s, ds.Table, g, k) {
			t.Skip("upgrade did not certify global (1,k) on this input")
		}
		counts, _, err := SimulateRefinement(ds.Hiers, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c < k {
				t.Errorf("n=%d k=%d seed=%d: record %d has %d refined candidates on a certified global (1,k) release",
					n, k, seed, i, c)
			}
		}
	})
}
