// Adversary: makes the paper's Section IV-A security analysis concrete by
// attacking four releases of the same data — a bare (1,k) release (the
// paper's counterexample), a k-anonymous release, a (k,k) release and a
// global (1,k) release — with both adversaries:
//
//   - adversary 1 knows everyone's public data and counts consistent
//     released records;
//
//   - adversary 2 also knows exactly who is in the database, and discards
//     candidates that cannot occur in any consistent joint assignment
//     (perfect matching).
//
//     go run ./examples/adversary
package main

import (
	"fmt"
	"log"

	"kanon/internal/anonymity"
	"kanon/internal/attack"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/datagen"
	"kanon/internal/loss"
	"kanon/internal/table"
)

func main() {
	const (
		n = 200
		k = 5
	)
	ds := datagen.ART(n, 99)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		log.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		log.Fatal(err)
	}

	releases := []struct {
		name string
		gen  func() *table.GenTable
	}{
		{"(1,k) only (paper's counterexample)", func() *table.GenTable {
			// Keep n−k records untouched, fully suppress the last k.
			g := table.NewGen(ds.Table.Schema, n)
			for i, r := range ds.Table.Records {
				if i < n-k {
					copy(g.Records[i], s.LeafClosure(r))
				} else {
					for j := range g.Records[i] {
						g.Records[i][j] = s.Hiers[j].Root()
					}
				}
			}
			return g
		}},
		{"k-anonymity (agglomerative)", func() *table.GenTable {
			g, err := core.KAnonymizeCtx(nil, s, ds.Table, cluster.AggloOptions{K: k})
			if err != nil {
				log.Fatal(err)
			}
			return g
		}},
		{"(k,k)-anonymity", func() *table.GenTable {
			g, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
			if err != nil {
				log.Fatal(err)
			}
			return g
		}},
		{"global (1,k)-anonymity", func() *table.GenTable {
			g, err := core.KKAnonymizeCtx(nil, s, ds.Table, k, core.K1ByExpansion, nil, nil, 0)
			if err != nil {
				log.Fatal(err)
			}
			g, _, err = core.MakeGlobal1KCtx(nil, s, ds.Table, g, k)
			if err != nil {
				log.Fatal(err)
			}
			return g
		}},
	}

	fmt.Printf("attacking releases of ART (n=%d) at k=%d\n\n", n, k)
	fmt.Printf("%-38s %10s %9s %9s %9s %9s %9s\n",
		"release", "loss", "adv1<k", "adv1:exp", "adv2<k", "adv2:exp", "min adv2")
	for _, rel := range releases {
		g := rel.gen()
		outcomes, err := attack.Simulate(s, ds.Table, g, ds.Sensitive)
		if err != nil {
			log.Fatal(err)
		}
		sum := attack.Summarize(outcomes, k)
		fmt.Printf("%-38s %10.4f %9d %9d %9d %9d %9d\n",
			rel.name, loss.TableLoss(em, g),
			sum.Breaches1, sum.Exposed1, sum.Breaches2, sum.Exposed2, sum.MinCandidates2)
	}

	fmt.Println(`
reading the table:
  adv1<k    records an adversary knowing only public data links to <k rows
  adv2<k    records an adversary who also knows WHO is in the table links to <k rows
  *:exp     records whose sensitive value is disclosed (homogeneous candidates)
  the (1,k)-only release looks private to adversary 1 but collapses under
  adversary 2; (k,k) resists adversary 1 at lower loss than k-anonymity;
  global (1,k) resists both.`)

	// Cross-check with the definition-level verifiers.
	gKK := releases[2].gen()
	fmt.Println("\n(k,k) release verification:", anonymity.Check(s, ds.Table, gKK, k))

	// The even stronger adversary (Section IV-A, full version): she also
	// knows the private values of some individuals. Even the global (1,k)
	// release cannot bound her candidate sets.
	gGlobal := releases[3].gen()
	known := make([]int, 0, n/10)
	for i := 0; i < n; i += 10 {
		known = append(known, i)
	}
	counts, err := attack.SimulateInformed(s, ds.Table, gGlobal, ds.Sensitive, known)
	if err != nil {
		log.Fatal(err)
	}
	below := 0
	minC := n
	for _, c := range counts {
		if c < k {
			below++
		}
		if c < minC {
			minC = c
		}
	}
	fmt.Printf("\ninformed adversary (knows %d private values) vs the GLOBAL release:\n", len(known))
	fmt.Printf("  %d of %d records now link to fewer than k rows (min candidates %d)\n", below, n, minC)
	fmt.Println("  no k-type notion bounds an adversary with private-value knowledge —")
	fmt.Println("  that threat needs l-diversity (see Options.Constraints) or stronger.")
}
