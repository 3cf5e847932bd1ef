// Package table defines the in-memory data model used throughout kanon:
// categorical attributes, schemas, original records (vectors of value
// indices) and tables.
//
// The model matches Section III of "k-Anonymization Revisited" (Gionis,
// Mazza, Tassa; ICDE 2008): a public database D = {R_1, ..., R_n} over r
// public attributes A_1, ..., A_r, where each attribute is a finite set of
// values. Values are interned: a record stores, per attribute, the index of
// its value within the attribute's domain. Generalized records live in
// package-neutral form as vectors of hierarchy node ids (see
// internal/hierarchy and the GenTable type in this package).
package table

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"kanon/internal/redact"
)

// Attribute describes one public attribute (quasi-identifier): a name and a
// finite, ordered domain of values. The order fixes the value indices used
// by records.
type Attribute struct {
	// Name is the attribute's human-readable name, e.g. "age" or "zipcode".
	Name string
	// Values is the attribute's domain A_j. Index into this slice is the
	// interned value id used by Record.
	Values []string

	index map[string]int // lazily built value -> id map
}

// NewAttribute builds an attribute with the given name and domain. The
// domain must be non-empty and free of duplicates.
func NewAttribute(name string, values []string) (*Attribute, error) {
	if name == "" {
		return nil, fmt.Errorf("table: attribute name must be non-empty")
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("table: attribute %q has an empty domain", name)
	}
	idx := make(map[string]int, len(values))
	for i, v := range values {
		if first, dup := idx[v]; dup {
			// The duplicate is a raw cell value: diagnostics carry its
			// digest and both positions, never the content (DESIGN.md §16).
			return nil, fmt.Errorf("table: attribute %q has duplicate value (%s) at domain positions %d and %d",
				name, redact.Value(v), first, i)
		}
		idx[v] = i
	}
	a := &Attribute{Name: name, Values: append([]string(nil), values...), index: idx}
	return a, nil
}

// MustAttribute is like NewAttribute but panics on error. It is intended for
// statically known schemas (tests, generators).
func MustAttribute(name string, values []string) *Attribute {
	a, err := NewAttribute(name, values)
	if err != nil {
		panic(err)
	}
	return a
}

// Size returns the cardinality |A_j| of the attribute's domain.
func (a *Attribute) Size() int { return len(a.Values) }

// ValueID returns the interned id of value v, or an error if v is not in the
// domain.
func (a *Attribute) ValueID(v string) (int, error) {
	if a.index == nil {
		a.index = make(map[string]int, len(a.Values))
		for i, s := range a.Values {
			a.index[s] = i
		}
	}
	id, ok := a.index[v]
	if !ok {
		// v may be a raw cell value from user input: the error names the
		// attribute (schema names are part of the release) but carries only
		// the value's digest (DESIGN.md §16).
		return 0, fmt.Errorf("table: value (%s) not in domain of attribute %q", redact.Value(v), a.Name)
	}
	return id, nil
}

// Value returns the string value with the given id.
func (a *Attribute) Value(id int) string {
	if id < 0 || id >= len(a.Values) {
		return fmt.Sprintf("<invalid:%d>", id)
	}
	return a.Values[id]
}

// Schema is an ordered list of public attributes.
type Schema struct {
	Attrs []*Attribute
}

// NewSchema builds a schema from the given attributes, rejecting duplicate
// attribute names.
func NewSchema(attrs ...*Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("table: schema must have at least one attribute")
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a == nil {
			return nil, fmt.Errorf("table: nil attribute in schema")
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("table: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return &Schema{Attrs: attrs}, nil
}

// MustSchema is like NewSchema but panics on error.
func MustSchema(attrs ...*Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of public attributes r.
func (s *Schema) NumAttrs() int { return len(s.Attrs) }

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Record is an original (non-generalized) record: one interned value id per
// attribute, in schema order.
type Record []int

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	c := make(Record, len(r))
	copy(c, r)
	return c
}

// Table is a public database D: a schema plus n records.
type Table struct {
	Schema  *Schema
	Records []Record
}

// New creates an empty table over the given schema.
func New(s *Schema) *Table {
	return &Table{Schema: s}
}

// Len returns the number of records n.
func (t *Table) Len() int { return len(t.Records) }

// Append validates the record against the schema and appends it.
func (t *Table) Append(r Record) error {
	if len(r) != t.Schema.NumAttrs() {
		return fmt.Errorf("table: record has %d fields, schema has %d attributes", len(r), t.Schema.NumAttrs())
	}
	for j, v := range r {
		if v < 0 || v >= t.Schema.Attrs[j].Size() {
			return fmt.Errorf("table: record field %d: value id %d out of range for attribute %q (size %d)",
				j, v, t.Schema.Attrs[j].Name, t.Schema.Attrs[j].Size())
		}
	}
	t.Records = append(t.Records, r)
	return nil
}

// MustAppend is like Append but panics on error.
func (t *Table) MustAppend(r Record) {
	if err := t.Append(r); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the table (the schema is shared; schemas are
// immutable after construction).
func (t *Table) Clone() *Table {
	c := &Table{Schema: t.Schema, Records: make([]Record, len(t.Records))}
	for i, r := range t.Records {
		c.Records[i] = r.Clone()
	}
	return c
}

// Strings renders record i as its string values, for display and export.
func (t *Table) Strings(i int) []string {
	r := t.Records[i]
	out := make([]string, len(r))
	for j, v := range r {
		out[j] = t.Schema.Attrs[j].Value(v)
	}
	return out
}

// ValueCounts returns, for attribute j, the number of records holding each
// value id: counts[v] = #{i : R_i(j) = v}. This is the empirical
// distribution Pr(X_j = a) of Section IV scaled by n.
func (t *Table) ValueCounts(j int) []int {
	counts := make([]int, t.Schema.Attrs[j].Size())
	for _, r := range t.Records {
		counts[r[j]]++
	}
	return counts
}

// String renders the table for debugging: one record per line, values
// comma-separated.
func (t *Table) String() string {
	var b strings.Builder
	for i := range t.Records {
		b.WriteString(strings.Join(t.Strings(i), ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// GenRecord is a generalized record: one hierarchy node id per attribute, in
// schema order. Node ids are interpreted by the hierarchy set that produced
// the generalization (see internal/hierarchy); this package treats them as
// opaque ints so the data model has no dependency on the hierarchy package.
type GenRecord []int

// Clone returns a deep copy of the generalized record.
func (g GenRecord) Clone() GenRecord {
	c := make(GenRecord, len(g))
	copy(c, g)
	return c
}

// GenTable is a generalization g(D): one generalized record per original
// record, positionally aligned with the original table.
type GenTable struct {
	Schema  *Schema
	Records []GenRecord
}

// NewGen creates a generalized table with n all-zero records (node id 0 per
// attribute); callers fill the records in. The records share one backing
// array, each capped at its own length, so appending to one reallocates it
// rather than overwrite its neighbour.
func NewGen(s *Schema, n int) *GenTable {
	r := s.NumAttrs()
	flat := make([]int, n*r)
	g := &GenTable{Schema: s, Records: make([]GenRecord, n)}
	for i := range g.Records {
		g.Records[i] = flat[i*r : (i+1)*r : (i+1)*r]
	}
	return g
}

// Len returns the number of generalized records.
func (g *GenTable) Len() int { return len(g.Records) }

// Clone returns a deep copy of the generalized table.
func (g *GenTable) Clone() *GenTable {
	c := &GenTable{Schema: g.Schema, Records: make([]GenRecord, len(g.Records))}
	for i, r := range g.Records {
		c.Records[i] = r.Clone()
	}
	return c
}

// Classes partitions the generalized table into equivalence classes of
// identical generalized records and returns the record indices of each
// class. The classes are ordered by first appearance, and indices within a
// class are ascending, so the result is deterministic. The classes share
// one backing array, each capped at its own length.
func (g *GenTable) Classes() [][]int {
	index := make(map[string]int)
	class := make([]int, len(g.Records))
	var sizes []int
	var key []byte
	for i, r := range g.Records {
		// Varints are prefix-free, so the key is injective.
		key = key[:0]
		for _, v := range r {
			key = binary.AppendVarint(key, int64(v))
		}
		c, ok := index[string(key)]
		if !ok {
			c = len(sizes)
			index[string(key)] = c
			sizes = append(sizes, 0)
		}
		class[i] = c
		sizes[c]++
	}
	groups := make([][]int, len(sizes))
	members := make([]int, len(g.Records))
	off := 0
	for c, size := range sizes {
		groups[c] = members[off : off : off+size]
		off += size
	}
	for i, c := range class {
		groups[c] = append(groups[c], i)
	}
	return groups
}

// GroupSizes returns the multiset of equivalence-class sizes of the
// generalized table: records with identical generalized values form one
// class. The result is sorted ascending. k-anonymity of the generalized
// table alone is equivalent to every class having size ≥ k.
func (g *GenTable) GroupSizes() []int {
	classes := g.Classes()
	sizes := make([]int, len(classes))
	for i, c := range classes {
		sizes[i] = len(c)
	}
	sort.Ints(sizes)
	return sizes
}
