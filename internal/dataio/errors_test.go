package dataio

import (
	"errors"
	"strings"
	"testing"

	"kanon/internal/hierarchy"
	"kanon/internal/table"
)

// TestRaggedRowTypedError checks that a short row surfaces as a
// *RaggedRowError naming the 1-based data row and both field counts.
func TestRaggedRowTypedError(t *testing.T) {
	_, err := ReadCSVOptions(strings.NewReader("age,city\n30,haifa\n31\n"), ReadOptions{Header: true})
	var ragged *RaggedRowError
	if !errors.As(err, &ragged) {
		t.Fatalf("err = %v (%T), want *RaggedRowError", err, err)
	}
	if ragged.Row != 2 || ragged.Fields != 1 || ragged.Want != 2 {
		t.Errorf("got %+v, want row 2 with 1 of 2 fields", ragged)
	}
	if !strings.Contains(err.Error(), "row 2") {
		t.Errorf("message %q does not name the row", err)
	}

	// A long row is just as ragged as a short one.
	_, err = ReadCSVOptions(strings.NewReader("a,b\nx,y,z\n"), ReadOptions{Header: true})
	if !errors.As(err, &ragged) || ragged.Fields != 3 {
		t.Errorf("long row: err = %v", err)
	}
}

// TestDuplicateColumnTypedError checks that a header naming the same
// column twice reports both 1-based positions.
func TestDuplicateColumnTypedError(t *testing.T) {
	_, err := ReadCSVOptions(strings.NewReader("age,city,age\n30,haifa,31\n"), ReadOptions{Header: true})
	var dup *DuplicateColumnError
	if !errors.As(err, &dup) {
		t.Fatalf("err = %v (%T), want *DuplicateColumnError", err, err)
	}
	if dup.Name != "age" || dup.First != 1 || dup.Column != 3 {
		t.Errorf("got %+v, want age at columns 1 and 3", dup)
	}

	// Header names are trimmed before comparison, so " age" collides too.
	_, err = ReadCSVOptions(strings.NewReader("age, age\n30,31\n"), ReadOptions{Header: true})
	if !errors.As(err, &dup) {
		t.Errorf("trimmed duplicate: err = %v", err)
	}
}

// TestEmptyTableTypedError distinguishes no input at all from a header
// with no data rows.
func TestEmptyTableTypedError(t *testing.T) {
	_, err := ReadCSVOptions(strings.NewReader(""), ReadOptions{Header: true})
	var empty *EmptyTableError
	if !errors.As(err, &empty) || empty.HeaderOnly {
		t.Fatalf("empty input: err = %v", err)
	}
	_, err = ReadCSVOptions(strings.NewReader("age,city\n"), ReadOptions{Header: true})
	if !errors.As(err, &empty) || !empty.HeaderOnly {
		t.Fatalf("header-only input: err = %v", err)
	}
	if !strings.Contains(err.Error(), "header") {
		t.Errorf("header-only message %q does not say so", err)
	}
}

// TestMaxRecordsGuard checks the configurable record cap: n records pass
// at limit n, n+1 fail with a *TooManyRecordsError, and the header row
// does not count against the limit.
func TestMaxRecordsGuard(t *testing.T) {
	csv := "age,city\n30,haifa\n31,haifa\n32,haifa\n"
	if _, err := ReadCSVOptions(strings.NewReader(csv), ReadOptions{Header: true, MaxRecords: 3}); err != nil {
		t.Fatalf("3 records at limit 3: %v", err)
	}
	_, err := ReadCSVOptions(strings.NewReader(csv), ReadOptions{Header: true, MaxRecords: 2})
	var tooMany *TooManyRecordsError
	if !errors.As(err, &tooMany) {
		t.Fatalf("err = %v (%T), want *TooManyRecordsError", err, err)
	}
	if tooMany.Limit != 2 || tooMany.Row != 3 {
		t.Errorf("got %+v, want limit 2 exceeded at row 3", tooMany)
	}
	// Limit 0 means no cap.
	if _, err := ReadCSVOptions(strings.NewReader(csv), ReadOptions{Header: true}); err != nil {
		t.Fatalf("no limit: %v", err)
	}
}

// TestBlankRowsSkipped: interior blank lines must not count as ragged
// rows or against MaxRecords.
func TestBlankRowsSkipped(t *testing.T) {
	tbl, err := ReadCSVOptions(strings.NewReader("a,b\n\nx,y\n\nz,w\n"),
		ReadOptions{Header: true, MaxRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d, want 2", tbl.Len())
	}
}

// TestGenValueStringInvalidNode: an out-of-range node renders as a
// placeholder instead of panicking — malformed intermediate state must
// never crash CSV output.
func TestGenValueStringInvalidNode(t *testing.T) {
	attr := table.MustAttribute("x", []string{"a", "b"})
	h := hierarchy.Flat(2)
	for _, node := range []int{-1, h.NumNodes(), h.NumNodes() + 7} {
		got := GenValueString(attr, h, node)
		if !strings.Contains(got, "invalid") {
			t.Errorf("node %d rendered %q, want an <invalid:...> placeholder", node, got)
		}
	}
}
