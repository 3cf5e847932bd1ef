package dataio

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"kanon/internal/datagen"
	"kanon/internal/hierarchy"
	"kanon/internal/table"
)

const sampleCSV = `age,city
34,haifa
35,haifa
34,tel-aviv
52,jerusalem
`

func TestReadCSVWithHeader(t *testing.T) {
	tbl, err := ReadCSVOptions(strings.NewReader(sampleCSV), ReadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 4 {
		t.Errorf("Len = %d, want 4", tbl.Len())
	}
	if got := tbl.Schema.Attrs[0].Name; got != "age" {
		t.Errorf("attr 0 name = %q", got)
	}
	// Domains in first-appearance order.
	if got := tbl.Schema.Attrs[1].Values; got[0] != "haifa" || got[1] != "tel-aviv" {
		t.Errorf("city domain = %v", got)
	}
	// Duplicate values intern to the same id.
	if tbl.Records[0][0] != tbl.Records[2][0] {
		t.Error("same value got different ids")
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	tbl, err := ReadCSVOptions(strings.NewReader("a,b\nc,d\n"), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d, want 2", tbl.Len())
	}
	if got := tbl.Schema.Attrs[0].Name; got != "col1" {
		t.Errorf("attr 0 name = %q, want col1", got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSVOptions(strings.NewReader(""), ReadOptions{Header: true}); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := ReadCSVOptions(strings.NewReader("h1,h2\n"), ReadOptions{Header: true}); err == nil {
		t.Error("expected error for header-only input")
	}
	if _, err := ReadCSVOptions(strings.NewReader("a,b\nc\n"), ReadOptions{}); err == nil {
		t.Error("expected error for ragged rows")
	}
}

func TestReadCSVTrimsSpace(t *testing.T) {
	tbl, err := ReadCSVOptions(strings.NewReader("a, b\nx, y\n"), ReadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Schema.Attrs[1].Name; got != "b" {
		t.Errorf("attr name = %q, want b", got)
	}
	if got := tbl.Strings(0)[1]; got != "y" {
		t.Errorf("value = %q, want y", got)
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	tbl, err := ReadCSVOptions(strings.NewReader(sampleCSV), ReadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	tbl2, err := ReadCSVOptions(bytes.NewReader(buf.Bytes()), ReadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != tbl.Len() {
		t.Fatalf("round trip changed length")
	}
	for i := range tbl.Records {
		a, b := tbl.Strings(i), tbl2.Strings(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("record %d field %d: %q vs %q", i, j, a[j], b[j])
			}
		}
	}
}

func buildTestHierarchy(t *testing.T) (*table.Table, []*hierarchy.Hierarchy) {
	t.Helper()
	tbl, err := ReadCSVOptions(strings.NewReader(sampleCSV), ReadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	spec := `{"attributes": [
	  {"attribute": "age", "subsets": [{"label": "30s", "values": ["34", "35"]}]}
	]}`
	hiers, err := LoadHierarchies(strings.NewReader(spec), tbl.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, hiers
}

func TestLoadHierarchies(t *testing.T) {
	tbl, hiers := buildTestHierarchy(t)
	if len(hiers) != 2 {
		t.Fatalf("got %d hierarchies", len(hiers))
	}
	// age: 3 leaves + {34,35} + root = 5 nodes.
	if got := hiers[0].NumNodes(); got != 5 {
		t.Errorf("age nodes = %d, want 5", got)
	}
	// city got the trivial hierarchy.
	if got := hiers[1].NumNodes(); got != tbl.Schema.Attrs[1].Size()+1 {
		t.Errorf("city nodes = %d, want %d", got, tbl.Schema.Attrs[1].Size()+1)
	}
	id34, _ := tbl.Schema.Attrs[0].ValueID("34")
	id35, _ := tbl.Schema.Attrs[0].ValueID("35")
	node := hiers[0].Closure([]int{id34, id35})
	if hiers[0].Label(node) != "30s" {
		t.Errorf("closure label = %q, want 30s", hiers[0].Label(node))
	}
}

func TestLoadHierarchiesErrors(t *testing.T) {
	tbl, _ := buildTestHierarchy(t)
	cases := []string{
		`{"attributes": [{"attribute": "nope", "subsets": []}]}`,
		`{"attributes": [{"attribute": "age", "subsets": [{"values": ["34", "999"]}]}]}`,
		`{"attributes": [{"attribute": "age", "subsets": []}, {"attribute": "age", "subsets": []}]}`,
		`{"attributes": [{"attribute": "age", "subsets": [{"values": ["34"]}]}]}`,
		`{"bogus": true}`,
		`not json`,
	}
	for i, spec := range cases {
		if _, err := LoadHierarchies(strings.NewReader(spec), tbl.Schema); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSaveLoadHierarchiesRoundTrip(t *testing.T) {
	ds := datagen.ART(10, 1)
	var buf bytes.Buffer
	if err := SaveHierarchies(&buf, ds.Table.Schema, ds.Hiers); err != nil {
		t.Fatal(err)
	}
	hiers, err := LoadHierarchies(bytes.NewReader(buf.Bytes()), ds.Table.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for j := range hiers {
		if hiers[j].NumNodes() != ds.Hiers[j].NumNodes() {
			t.Errorf("attr %d: %d nodes after round trip, want %d",
				j, hiers[j].NumNodes(), ds.Hiers[j].NumNodes())
		}
		// Closure structure must be preserved: same LCA for all leaf pairs.
		for a := 0; a < hiers[j].NumValues(); a++ {
			for b := a + 1; b < hiers[j].NumValues(); b++ {
				la := hiers[j].Leaves(hiers[j].LCA(a, b))
				lb := ds.Hiers[j].Leaves(ds.Hiers[j].LCA(a, b))
				if len(la) != len(lb) {
					t.Fatalf("attr %d: LCA(%d,%d) covers %d vs %d leaves", j, a, b, len(la), len(lb))
				}
			}
		}
	}
}

func TestSaveHierarchiesMismatch(t *testing.T) {
	ds := datagen.ART(5, 1)
	var buf bytes.Buffer
	if err := SaveHierarchies(&buf, ds.Table.Schema, ds.Hiers[:2]); err == nil {
		t.Error("expected mismatch error")
	}
}

func TestGenValueString(t *testing.T) {
	attr := table.MustAttribute("x", []string{"a", "b", "c", "d"})
	h, err := hierarchy.FromSubsets(4, []hierarchy.Subset{
		{Values: []int{0, 1}, Label: "ab"},
		{Values: []int{2, 3}}, // unlabeled
	}, "*")
	if err != nil {
		t.Fatal(err)
	}
	if got := GenValueString(attr, h, h.LeafOf(2)); got != "c" {
		t.Errorf("leaf = %q, want c", got)
	}
	if got := GenValueString(attr, h, h.Closure([]int{0, 1})); got != "ab" {
		t.Errorf("labeled = %q, want ab", got)
	}
	if got := GenValueString(attr, h, h.Closure([]int{2, 3})); got != "{c,d}" {
		t.Errorf("unlabeled = %q, want {c,d}", got)
	}
	if got := GenValueString(attr, h, h.Root()); got != "*" {
		t.Errorf("root = %q, want *", got)
	}
}

func TestGenValueStringAbbreviates(t *testing.T) {
	vals := make([]string, 12)
	for i := range vals {
		vals[i] = string(rune('a' + i))
	}
	attr := table.MustAttribute("x", vals)
	h := hierarchy.Flat(12)
	got := GenValueString(attr, h, h.Root())
	if got != "*" {
		t.Errorf("flat root = %q, want *", got)
	}
	// A large unlabeled internal node abbreviates.
	h2, err := hierarchy.FromSubsets(12, []hierarchy.Subset{
		{Values: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
	}, "*")
	if err != nil {
		t.Fatal(err)
	}
	node := h2.Closure([]int{0, 9})
	got = GenValueString(attr, h2, node)
	if !strings.Contains(got, "...") {
		t.Errorf("large subset %q should abbreviate", got)
	}
}

func TestWriteGenCSV(t *testing.T) {
	tbl, hiers := buildTestHierarchy(t)
	g := table.NewGen(tbl.Schema, 2)
	id34, _ := tbl.Schema.Attrs[0].ValueID("34")
	id35, _ := tbl.Schema.Attrs[0].ValueID("35")
	g.Records[0][0] = hiers[0].Closure([]int{id34, id35})
	g.Records[0][1] = hiers[1].Root()
	g.Records[1][0] = hiers[0].LeafOf(id34)
	g.Records[1][1] = hiers[1].LeafOf(0)
	var buf bytes.Buffer
	if err := WriteGenCSV(&buf, g, hiers); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := "age,city\n30s,*\n34,haifa\n"
	if out != want {
		t.Errorf("WriteGenCSV = %q, want %q", out, want)
	}
	if err := WriteGenCSV(&buf, g, hiers[:1]); err == nil {
		t.Error("expected hierarchy-count mismatch error")
	}
}

// TestReadCSVRecordsIndependent checks that the records of a loaded table,
// which share one backing array, are capped: appending to one leaves the
// next unchanged.
func TestReadCSVRecordsIndependent(t *testing.T) {
	tbl, err := ReadCSVOptions(strings.NewReader("a,b\nx,y\nz,w\nx,w\n"), ReadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	next := slices.Clone(tbl.Records[1])
	grown := append(tbl.Records[0], 7)
	grown[0] = 9
	if !slices.Equal(tbl.Records[1], next) {
		t.Errorf("appending to record 0 changed record 1: %v, was %v", tbl.Records[1], next)
	}
	if tbl.Records[0][0] != 0 {
		t.Errorf("writing through the grown copy changed record 0: %v", tbl.Records[0])
	}
}
