// Survey release: anonymizes the contraceptive-survey benchmark (the
// paper's CMC dataset) and studies how the choice of information-loss
// measure — entropy, LM, tree — changes the released table, plus what
// ℓ-diversity the release achieves on the survey's sensitive class.
//
//	go run ./examples/survey
package main

import (
	"fmt"
	"log"

	"kanon"
)

func main() {
	const (
		n = 1473 // the real CMC size
		k = 10
	)
	tbl := kanon.CMC(n, 1987)
	fmt.Printf("survey microdata: n=%d, k=%d, sensitive attribute: contraceptive method\n\n", n, k)

	measures := []kanon.MeasureName{kanon.MeasureEntropy, kanon.MeasureLM, kanon.MeasureTree}
	fmt.Printf("%-10s %14s %14s %14s %8s\n", "optimized", "entropy-loss", "LM-loss", "tree-loss", "DM/n")
	results := make(map[kanon.MeasureName]*kanon.Result, len(measures))
	for _, m := range measures {
		res, err := kanon.Anonymize(tbl, kanon.Options{K: k, Notion: kanon.NotionKK, Measure: m})
		if err != nil {
			log.Fatalf("survey: measure %s: %v", m, err)
		}
		results[m] = res
		row := make([]float64, len(measures))
		for i, other := range measures {
			v, err := res.LossUnder(other)
			if err != nil {
				log.Fatal(err)
			}
			row[i] = v
		}
		fmt.Printf("%-10s %14.4f %14.4f %14.4f %8.1f\n",
			m, row[0], row[1], row[2], float64(res.Discernibility())/float64(n))
	}
	fmt.Println("\neach release is best under the measure it optimized — the diagonal dominates.")

	// The privacy side: ℓ-diversity of the sensitive class within groups.
	res := results[kanon.MeasureEntropy]
	fmt.Printf("\nrelease verification: %v\n", res.Verify(k))
	for l := 1; l <= 3; l++ {
		ok, err := res.IsDistinctLDiverse(l)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("distinct %d-diversity of contraceptive method: %v\n", l, ok)
	}

	// A sample of released rows with the sensitive value alongside.
	fmt.Println("\nsample rows (released public data | sensitive):")
	for i := 0; i < 5; i++ {
		fmt.Printf("  %v | %s\n", res.Row(i), tbl.SensitiveValue(i))
	}
}
