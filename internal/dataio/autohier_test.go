package dataio

import (
	"strings"
	"testing"
)

func TestAutoHierarchiesNumeric(t *testing.T) {
	// Ages appear out of order in the CSV; the auto hierarchy must bucket
	// by numeric value, not appearance order.
	csv := "age\n40\n20\n30\n21\n41\n31\n22\n42\n32\n23\n"
	tbl, err := ReadCSVOptions(strings.NewReader(csv), ReadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	hiers, err := AutoHierarchies(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := hiers[0]
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	attr := tbl.Schema.Attrs[0]
	id := func(v string) int {
		x, err := attr.ValueID(v)
		if err != nil {
			t.Fatalf("value %q: %v", v, err)
		}
		return x
	}
	// 20 and 21 are numeric neighbours: their closure must be a small
	// bucket, not the root.
	node := h.Closure([]int{id("20"), id("21")})
	if h.Size(node) != 2 {
		t.Errorf("closure(20,21) covers %d values, want 2", h.Size(node))
	}
	// 20 and 42 are extremes: their closure is the root.
	if h.Closure([]int{id("20"), id("42")}) != h.Root() {
		t.Error("closure(20,42) should be the root")
	}
}

func TestAutoHierarchiesMixed(t *testing.T) {
	csv := "age,city\n30,haifa\n31,eilat\n32,haifa\n33,acre\n34,haifa\n"
	tbl, err := ReadCSVOptions(strings.NewReader(csv), ReadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	hiers, err := AutoHierarchies(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	// age: interval hierarchy with internal nodes.
	if hiers[0].NumNodes() <= tbl.Schema.Attrs[0].Size()+1 {
		t.Error("numeric attribute got no interval nodes")
	}
	// city: trivial (leaves + root only).
	if hiers[1].NumNodes() != tbl.Schema.Attrs[1].Size()+1 {
		t.Error("categorical attribute should be trivial")
	}
}

func TestAutoHierarchiesSmallNumericDomain(t *testing.T) {
	// A numeric domain not exceeding baseWidth stays trivial.
	csv := "n\n1\n2\n3\n"
	tbl, err := ReadCSVOptions(strings.NewReader(csv), ReadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	hiers, err := AutoHierarchies(tbl, 4)
	if err != nil {
		t.Fatal(err)
	}
	if hiers[0].NumNodes() != 4 {
		t.Errorf("small domain got %d nodes, want 4 (trivial)", hiers[0].NumNodes())
	}
}

func TestAutoHierarchiesBadWidth(t *testing.T) {
	csv := "n\n1\n2\n"
	tbl, err := ReadCSVOptions(strings.NewReader(csv), ReadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AutoHierarchies(tbl, 1); err == nil {
		t.Error("expected baseWidth error")
	}
}

func TestNumericOrderRejectsNonInts(t *testing.T) {
	csv := "x\n1\n2\nthree\n"
	tbl, err := ReadCSVOptions(strings.NewReader(csv), ReadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := numericOrder(tbl.Schema.Attrs[0]); ok {
		t.Error("mixed domain should not be numeric")
	}
	csv2 := "x\n-5\n0\n10\n"
	tbl2, err := ReadCSVOptions(strings.NewReader(csv2), ReadOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	order, ok := numericOrder(tbl2.Schema.Attrs[0])
	if !ok {
		t.Fatal("negative ints should parse")
	}
	attr := tbl2.Schema.Attrs[0]
	if attr.Value(order[0]) != "-5" || attr.Value(order[2]) != "10" {
		t.Errorf("order wrong: %v", order)
	}
}
