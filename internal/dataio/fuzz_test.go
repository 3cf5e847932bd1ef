package dataio

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kanon/internal/table"
)

// FuzzReadCSV asserts that arbitrary input gives the one-pass reader the
// result of its two-pass oracle, refReadCSV: the same typed error, or the
// same schema, domains and records. A record limit of 0 to 4, picked from
// the input's length, exercises TooManyRecordsError's precedence. A table
// must also round-trip through WriteCSV.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\nx,y\n", true)
	f.Add("x,y\nz,w\n", false)
	f.Add("", true)
	f.Add("a\n\"unterminated", true)
	f.Add("a,b\nonly-one\n", false)
	f.Add("a,b\nx,y,z\n\"unterminated", true)
	f.Add("a,a\nx\n", true)
	f.Add("a, b\n x ,y\n  ,  \nx,y \nz,y\n", true)
	f.Fuzz(func(t *testing.T, data string, header bool) {
		opt := ReadOptions{Header: header, MaxRecords: len(data) % 5}
		want, wantErr := refReadCSV(strings.NewReader(data), opt)
		tbl, err := ReadCSVOptions(strings.NewReader(data), opt)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("err = %v, oracle err = %v", err, wantErr)
		}
		if err != nil {
			if reflect.TypeOf(err) != reflect.TypeOf(wantErr) || err.Error() != wantErr.Error() {
				t.Fatalf("err = %v (%T), oracle err = %v (%T)", err, err, wantErr, wantErr)
			}
			return
		}
		assertSameTable(t, tbl, want)
		if tbl.Len() == 0 {
			t.Fatal("ReadCSVOptions returned an empty table without error")
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, tbl); err != nil {
			t.Fatalf("WriteCSV on parsed table: %v", err)
		}
		tbl2, err := ReadCSVOptions(bytes.NewReader(buf.Bytes()), ReadOptions{Header: true})
		if err != nil {
			t.Fatalf("re-reading written CSV: %v", err)
		}
		if tbl2.Len() != tbl.Len() {
			t.Fatalf("round trip changed row count: %d vs %d", tbl2.Len(), tbl.Len())
		}
	})
}

// assertSameTable fails unless got and want have the same attribute names,
// the same domains in the same order and the same records.
func assertSameTable(t *testing.T, got, want *table.Table) {
	t.Helper()
	if got.Schema.NumAttrs() != want.Schema.NumAttrs() {
		t.Fatalf("%d attributes, oracle %d", got.Schema.NumAttrs(), want.Schema.NumAttrs())
	}
	for j, a := range got.Schema.Attrs {
		b := want.Schema.Attrs[j]
		if a.Name != b.Name || !slices.Equal(a.Values, b.Values) {
			t.Fatalf("attribute %d: %q with %d values, oracle %q with %d", j, a.Name, a.Size(), b.Name, b.Size())
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("%d records, oracle %d", got.Len(), want.Len())
	}
	for i, rec := range got.Records {
		if !slices.Equal(rec, want.Records[i]) {
			t.Fatalf("record %d = %v, oracle %v", i, rec, want.Records[i])
		}
	}
}

// FuzzLoadHierarchies asserts that arbitrary spec bytes either error
// cleanly or produce valid hierarchies for a fixed schema.
func FuzzLoadHierarchies(f *testing.F) {
	f.Add(`{"attributes": [{"attribute": "age", "subsets": [{"values": ["1","2"]}]}]}`)
	f.Add(`{"attributes": []}`)
	f.Add(`{`)
	f.Add(`{"attributes": [{"attribute": "age", "subsets": [{"values": ["1","1"]}]}]}`)
	f.Fuzz(func(t *testing.T, spec string) {
		tbl, err := ReadCSVOptions(strings.NewReader("age,city\n1,a\n2,b\n3,c\n"), ReadOptions{Header: true})
		if err != nil {
			t.Fatal(err)
		}
		hiers, err := LoadHierarchies(strings.NewReader(spec), tbl.Schema)
		if err != nil {
			return
		}
		for j, h := range hiers {
			if err := h.Validate(); err != nil {
				t.Fatalf("hierarchy %d invalid after successful load: %v", j, err)
			}
			if h.NumValues() != tbl.Schema.Attrs[j].Size() {
				t.Fatalf("hierarchy %d wrong domain size", j)
			}
		}
	})
}
