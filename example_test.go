package kanon_test

import (
	"fmt"
	"log"
	"strings"

	"kanon"
)

// ExampleAnonymize demonstrates the one-call API: load a CSV, install
// hierarchies, release a (k,k)-anonymization.
func ExampleAnonymize() {
	csvData := `age,city
30,haifa
31,haifa
32,haifa
40,eilat
41,eilat
42,eilat
`
	hierData := `{"attributes": [
	  {"attribute": "age", "subsets": [
	    {"label": "30s", "values": ["30","31","32"]},
	    {"label": "40s", "values": ["40","41","42"]}
	  ]}
	]}`

	tbl, err := kanon.LoadCSV(strings.NewReader(csvData), true)
	if err != nil {
		log.Fatal(err)
	}
	if err := tbl.SetHierarchiesJSON(strings.NewReader(hierData)); err != nil {
		log.Fatal(err)
	}
	res, err := kanon.Anonymize(tbl, kanon.Options{K: 3, Notion: kanon.NotionKK})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(strings.Join(res.Row(0), ","))
	fmt.Println(strings.Join(res.Row(3), ","))
	// Output:
	// 30s,haifa
	// 40s,eilat
}

// ExampleResult_Verify shows definition-level certification of a release.
func ExampleResult_Verify() {
	tbl := kanon.ART(100, 7)
	res, err := kanon.Anonymize(tbl, kanon.Options{K: 5, Notion: kanon.NotionGlobal1K})
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Verify(5)
	fmt.Println(rep.KK, rep.Global1K)
	// Output:
	// true true
}

// ExampleTable_SetSensitive shows attaching a sensitive attribute and
// requesting an ℓ-diverse release.
func ExampleTable_SetSensitive() {
	csvData := "zip\n10001\n10002\n10003\n10004\n10005\n10006\n"
	tbl, err := kanon.LoadCSV(strings.NewReader(csvData), true)
	if err != nil {
		log.Fatal(err)
	}
	if err := tbl.SetSensitive("diagnosis", []string{"flu", "cancer", "flu", "cancer", "flu", "cancer"}); err != nil {
		log.Fatal(err)
	}
	res, err := kanon.Anonymize(tbl, kanon.Options{K: 2, Notion: kanon.NotionKK,
		Constraints: []kanon.Constraint{kanon.DistinctDiversity(2)}})
	if err != nil {
		log.Fatal(err)
	}
	div, err := res.CandidateDiversity()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(div >= 2)
	// Output:
	// true
}
