// Census release: compares all the anonymization pipelines of the paper on
// the Adult-like census benchmark — classical k-anonymity (agglomerative
// and forest baseline), (k,k)-anonymity, and global (1,k)-anonymity — and
// tells the adversarial story behind each notion.
//
//	go run ./examples/census [n]
package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"kanon"
)

func main() {
	n := 1000
	if len(os.Args) > 1 {
		var err error
		if n, err = strconv.Atoi(os.Args[1]); err != nil {
			log.Fatalf("census: bad n %q: %v", os.Args[1], err)
		}
	}
	const k = 10
	tbl := kanon.Adult(n, 42)
	fmt.Printf("census microdata release: n=%d records, %d quasi-identifiers, k=%d\n\n",
		tbl.Len(), tbl.NumAttrs(), k)
	fmt.Println("attributes:", strings.Join(tbl.AttrNames(), ", "))

	type pipeline struct {
		name  string
		opt   kanon.Options
		story string
	}
	pipelines := []pipeline{
		{"k-anonymity (agglomerative)", kanon.Options{K: k, Notion: kanon.NotionK},
			"classical guarantee: every released record identical to ≥ k-1 others"},
		{"k-anonymity (forest baseline)", kanon.Options{K: k, Notion: kanon.NotionK, Algorithm: kanon.AlgForest},
			"the Aggarwal et al. 3k-3 approximation the paper compares against"},
		{"(k,k)-anonymity", kanon.Options{K: k, Notion: kanon.NotionKK},
			"adversary knowing anyone's public data still sees ≥ k candidate records"},
		{"global (1,k)-anonymity", kanon.Options{K: k, Notion: kanon.NotionGlobal1K},
			"holds even if the adversary knows exactly who is in the census sample"},
	}

	fmt.Printf("\n%-32s %12s %12s %10s\n", "pipeline", "loss (bits)", "loss (LM)", "time")
	var results []*kanon.Result
	for _, p := range pipelines {
		start := time.Now()
		res, err := kanon.Anonymize(tbl, p.opt)
		if err != nil {
			log.Fatalf("census: %s: %v", p.name, err)
		}
		lm, err := res.LossUnder(kanon.MeasureLM)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s %12.4f %12.4f %10v\n", p.name, res.Loss(), lm, time.Since(start).Round(time.Millisecond))
		results = append(results, res)
	}

	fmt.Println("\nwhat each guarantee means:")
	for i, p := range pipelines {
		rep := results[i].Verify(k)
		fmt.Printf("  %-32s %s\n      %s\n", p.name, p.story, rep)
	}

	global := results[len(results)-1]
	st := global.Stats()
	fmt.Printf("\nglobal upgrade (Algorithm 6): %d of %d records were deficient "+
		"(min matches %d); %d widening steps repaired them (max %d per record)\n",
		st.Counter("core.global.deficient"), tbl.Len(), st.Counter("core.global.min_matches"),
		st.Counter("core.global.steps"), st.Peaks["core.global.max_steps"])

	// A data consumer's view: how large are the indistinguishability groups?
	sizes := results[2].GroupSizes()
	fmt.Printf("\n(k,k) release group sizes: %d groups, smallest %d, largest %d\n",
		len(sizes), sizes[0], sizes[len(sizes)-1])
}
