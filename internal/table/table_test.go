package table

import (
	"slices"
	"strings"
	"testing"
)

func TestNewAttribute(t *testing.T) {
	a, err := NewAttribute("age", []string{"20", "30", "40"})
	if err != nil {
		t.Fatalf("NewAttribute: %v", err)
	}
	if a.Size() != 3 {
		t.Errorf("Size() = %d, want 3", a.Size())
	}
	if got := a.Value(1); got != "30" {
		t.Errorf("Value(1) = %q, want \"30\"", got)
	}
}

func TestNewAttributeEmptyName(t *testing.T) {
	if _, err := NewAttribute("", []string{"x"}); err == nil {
		t.Error("expected error for empty attribute name")
	}
}

func TestNewAttributeEmptyDomain(t *testing.T) {
	if _, err := NewAttribute("a", nil); err == nil {
		t.Error("expected error for empty domain")
	}
}

func TestNewAttributeDuplicateValue(t *testing.T) {
	if _, err := NewAttribute("a", []string{"x", "y", "x"}); err == nil {
		t.Error("expected error for duplicate value")
	}
}

func TestValueID(t *testing.T) {
	a := MustAttribute("a", []string{"x", "y", "z"})
	id, err := a.ValueID("y")
	if err != nil {
		t.Fatalf("ValueID: %v", err)
	}
	if id != 1 {
		t.Errorf("ValueID(y) = %d, want 1", id)
	}
	if _, err := a.ValueID("w"); err == nil {
		t.Error("expected error for unknown value")
	}
}

func TestValueIDLazyIndex(t *testing.T) {
	// An attribute built directly (e.g. decoded from JSON) has no index;
	// ValueID must build it on demand.
	a := &Attribute{Name: "a", Values: []string{"p", "q"}}
	id, err := a.ValueID("q")
	if err != nil || id != 1 {
		t.Errorf("ValueID(q) = %d, %v; want 1, nil", id, err)
	}
}

func TestValueOutOfRange(t *testing.T) {
	a := MustAttribute("a", []string{"x"})
	if got := a.Value(5); !strings.Contains(got, "invalid") {
		t.Errorf("Value(5) = %q, want invalid marker", got)
	}
}

func TestMustAttributePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAttribute did not panic on bad input")
		}
	}()
	MustAttribute("", nil)
}

func TestNewSchema(t *testing.T) {
	a := MustAttribute("a", []string{"x"})
	b := MustAttribute("b", []string{"y"})
	s, err := NewSchema(a, b)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	if s.NumAttrs() != 2 {
		t.Errorf("NumAttrs() = %d, want 2", s.NumAttrs())
	}
	if got := s.AttrIndex("b"); got != 1 {
		t.Errorf("AttrIndex(b) = %d, want 1", got)
	}
	if got := s.AttrIndex("zz"); got != -1 {
		t.Errorf("AttrIndex(zz) = %d, want -1", got)
	}
}

func TestNewSchemaErrors(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("expected error for empty schema")
	}
	a := MustAttribute("a", []string{"x"})
	if _, err := NewSchema(a, nil); err == nil {
		t.Error("expected error for nil attribute")
	}
	if _, err := NewSchema(a, MustAttribute("a", []string{"y"})); err == nil {
		t.Error("expected error for duplicate attribute name")
	}
}

func TestRecordCloneAndEqual(t *testing.T) {
	r := Record{1, 2, 3}
	c := r.Clone()
	if !slices.Equal(r, c) {
		t.Error("clone not equal to original")
	}
	c[0] = 9
	if r[0] == 9 {
		t.Error("clone shares storage with original")
	}
}

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		MustAttribute("a", []string{"x", "y"}),
		MustAttribute("b", []string{"p", "q", "r"}),
	)
}

func TestAppendValidation(t *testing.T) {
	tbl := New(testSchema(t))
	if err := tbl.Append(Record{0, 2}); err != nil {
		t.Fatalf("Append valid: %v", err)
	}
	if err := tbl.Append(Record{0}); err == nil {
		t.Error("expected error for wrong arity")
	}
	if err := tbl.Append(Record{0, 3}); err == nil {
		t.Error("expected error for out-of-range value")
	}
	if err := tbl.Append(Record{-1, 0}); err == nil {
		t.Error("expected error for negative value")
	}
	if tbl.Len() != 1 {
		t.Errorf("Len() = %d, want 1 (failed appends must not modify)", tbl.Len())
	}
}

func TestTableStringsAndString(t *testing.T) {
	tbl := New(testSchema(t))
	tbl.MustAppend(Record{0, 2})
	tbl.MustAppend(Record{1, 0})
	if got := tbl.Strings(0); got[0] != "x" || got[1] != "r" {
		t.Errorf("Strings(0) = %v, want [x r]", got)
	}
	want := "x,r\ny,p\n"
	if tbl.String() != want {
		t.Errorf("String() = %q, want %q", tbl.String(), want)
	}
}

func TestTableClone(t *testing.T) {
	tbl := New(testSchema(t))
	tbl.MustAppend(Record{0, 2})
	c := tbl.Clone()
	c.Records[0][0] = 1
	if tbl.Records[0][0] != 0 {
		t.Error("clone shares record storage")
	}
}

func TestValueCounts(t *testing.T) {
	tbl := New(testSchema(t))
	tbl.MustAppend(Record{0, 0})
	tbl.MustAppend(Record{0, 1})
	tbl.MustAppend(Record{1, 1})
	counts := tbl.ValueCounts(1)
	want := []int{1, 2, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("ValueCounts(1)[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestGenRecordCloneEqual(t *testing.T) {
	g := GenRecord{4, 5}
	c := g.Clone()
	if !slices.Equal(g, c) {
		t.Error("clone not equal")
	}
	c[1] = 6
	if slices.Equal(g, c) {
		t.Error("mutated clone still equal: clone shares storage")
	}
}

func TestNewGen(t *testing.T) {
	g := NewGen(testSchema(t), 3)
	if g.Len() != 3 {
		t.Errorf("Len() = %d, want 3", g.Len())
	}
	for _, r := range g.Records {
		if len(r) != 2 {
			t.Errorf("record arity = %d, want 2", len(r))
		}
	}
}

// TestNewGenRowsIsolated: the rows share one backing array, so each must
// be capped at its own length — an append to one row may not write into
// the next.
func TestNewGenRowsIsolated(t *testing.T) {
	g := NewGen(testSchema(t), 3)
	g.Records[1][0], g.Records[1][1] = 4, 5
	grown := append(g.Records[0], 9)
	grown[0] = 6
	if !slices.Equal(g.Records[1], GenRecord{4, 5}) {
		t.Errorf("append to row 0 overwrote row 1: %v", g.Records[1])
	}
	if !slices.Equal(g.Records[0], GenRecord{0, 0}) {
		t.Errorf("append to row 0 wrote through to it: %v", g.Records[0])
	}
	if !slices.Equal(grown, GenRecord{6, 0, 9}) {
		t.Errorf("grown row = %v", grown)
	}
}

func TestGenTableClone(t *testing.T) {
	g := NewGen(testSchema(t), 1)
	g.Records[0][0] = 7
	c := g.Clone()
	c.Records[0][0] = 8
	if g.Records[0][0] != 7 {
		t.Error("clone shares storage")
	}
}

func TestClasses(t *testing.T) {
	g := NewGen(testSchema(t), 5)
	g.Records[0] = GenRecord{0, 0}
	g.Records[1] = GenRecord{1, 1}
	g.Records[2] = GenRecord{0, 0}
	g.Records[3] = GenRecord{1, 1}
	g.Records[4] = GenRecord{0, 0}
	groups := g.Classes()
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	// First-appearance order: group 0 holds records 0,2,4.
	if len(groups[0]) != 3 || groups[0][0] != 0 || groups[0][1] != 2 || groups[0][2] != 4 {
		t.Errorf("group 0 = %v, want [0 2 4]", groups[0])
	}
	if len(groups[1]) != 2 || groups[1][0] != 1 || groups[1][1] != 3 {
		t.Errorf("group 1 = %v, want [1 3]", groups[1])
	}
}

func TestClassesEmpty(t *testing.T) {
	g := NewGen(testSchema(t), 0)
	if groups := g.Classes(); len(groups) != 0 {
		t.Errorf("classes of empty table = %v", groups)
	}
}

func TestGroupSizes(t *testing.T) {
	g := NewGen(testSchema(t), 5)
	g.Records[0] = GenRecord{1, 1}
	g.Records[1] = GenRecord{1, 1}
	g.Records[2] = GenRecord{2, 2}
	g.Records[3] = GenRecord{1, 1}
	g.Records[4] = GenRecord{2, 2}
	sizes := g.GroupSizes()
	if len(sizes) != 2 || sizes[0] != 2 || sizes[1] != 3 {
		t.Errorf("GroupSizes() = %v, want [2 3]", sizes)
	}
}

func TestGroupSizesKeyInjective(t *testing.T) {
	// Node ids {1, 12} vs {11, 2} must not collide in the group key.
	g := NewGen(testSchema(t), 2)
	g.Records[0] = GenRecord{1, 12}
	g.Records[1] = GenRecord{11, 2}
	if sizes := g.GroupSizes(); len(sizes) != 2 {
		t.Errorf("GroupSizes() = %v, want two singleton groups", sizes)
	}
}

func TestMustAppendPanics(t *testing.T) {
	tbl := New(testSchema(t))
	defer func() {
		if recover() == nil {
			t.Error("MustAppend did not panic on invalid record")
		}
	}()
	tbl.MustAppend(Record{9, 9})
}
