// Package dataio reads and writes kanon's data artifacts: CSV tables
// (original and generalized) and JSON generalization-hierarchy
// specifications. It is the bridge for plugging real datasets — e.g. the
// actual UCI Adult file — into the algorithms in place of the synthetic
// generators.
package dataio

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"kanon/internal/hierarchy"
	"kanon/internal/redact"
	"kanon/internal/table"
)

// RaggedRowError reports a data row whose field count disagrees with the
// schema width. Row is 1-based over the kept (non-blank) data rows.
type RaggedRowError struct {
	Row, Fields, Want int
}

// Error implements error.
func (e *RaggedRowError) Error() string {
	return fmt.Sprintf("dataio: row %d has %d fields, expected %d", e.Row, e.Fields, e.Want)
}

// DuplicateColumnError reports a header that names the same column twice.
// Column and First are 1-based column positions of the repeat and of the
// original occurrence. Name holds the raw header value for programmatic
// callers; the rendered message carries only its digest — header cells
// come from the same untrusted stream as data cells, and diagnostics must
// stay content-free (DESIGN.md §16).
type DuplicateColumnError struct {
	Name          string
	Column, First int
}

// Error implements error.
func (e *DuplicateColumnError) Error() string {
	return fmt.Sprintf("dataio: duplicate column name (%s) at columns %d and %d", redact.Value(e.Name), e.First, e.Column)
}

// UnknownValueError reports a hierarchy-spec value that is not in the
// named attribute's domain. Subset is the 0-based subset index within the
// attribute's spec entry; Digest is the FNV-1a digest of the offending
// value — the raw content never enters the message, only its position and
// digest (DESIGN.md §16).
type UnknownValueError struct {
	Attribute string
	Subset    int
	Digest    string
}

// Error implements error.
func (e *UnknownValueError) Error() string {
	return fmt.Sprintf("dataio: attribute %q subset %d names a value (%s) outside the domain", e.Attribute, e.Subset, e.Digest)
}

// EmptyTableError reports CSV input with no data rows. HeaderOnly
// distinguishes a lone header row from a fully empty stream.
type EmptyTableError struct {
	HeaderOnly bool
}

// Error implements error.
func (e *EmptyTableError) Error() string {
	if e.HeaderOnly {
		return "dataio: CSV has a header but no data rows"
	}
	return "dataio: empty CSV input"
}

// TooManyRecordsError reports input exceeding ReadOptions.MaxRecords. Row
// is the 1-based data row that overflowed the limit.
type TooManyRecordsError struct {
	Limit, Row int
}

// Error implements error.
func (e *TooManyRecordsError) Error() string {
	return fmt.Sprintf("dataio: input exceeds the %d-record limit at row %d", e.Limit, e.Row)
}

// ReadOptions configures ReadCSVOptions.
type ReadOptions struct {
	// Header makes the first row supply attribute names; otherwise
	// attributes are named col1..colr.
	Header bool
	// MaxRecords, when > 0, fails the read with a TooManyRecordsError as
	// soon as the data-row count exceeds it — a guard against runaway or
	// mis-pointed inputs (the algorithms downstream are quadratic).
	MaxRecords int
}

// ReadCSVOptions parses a CSV stream into a table. With opt.Header the
// first row supplies attribute names; otherwise attributes are named
// col1..colr. Attribute domains are built from the data, values ordered by
// first appearance. Every row must have the same number of fields.
// Malformed input is reported through typed errors carrying positions:
// *RaggedRowError, *DuplicateColumnError, *EmptyTableError,
// *TooManyRecordsError.
//
// The stream is read in one pass: each field is trimmed once and interned
// with one map lookup into its column's domain, ids in first-appearance
// order, and the records are capped subslices of one flat id array.
// Every row is read before the field counts are checked, so a CSV syntax
// error or the record limit anywhere in the stream wins over a ragged row.
func ReadCSVOptions(r io.Reader, opt ReadOptions) (*table.Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	// Field counts are validated here (with our own row numbering), not by
	// encoding/csv.
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	limit := opt.MaxRecords
	if opt.Header {
		limit++
	}
	var (
		names   []string
		domains [][]string
		ids     []map[string]int
		flat    []int
		kept    int // rows kept so far, the header included
		ragged  *RaggedRowError
		trimmed []string
	)
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataio: reading CSV: %w", err)
		}
		// Drop rows whose every field is blank after trimming: encoding/csv
		// skips truly blank lines itself, and an all-whitespace row could
		// not round-trip through WriteCSV anyway.
		trimmed = trimmed[:0]
		empty := true
		for _, v := range row {
			v = strings.TrimSpace(v)
			trimmed = append(trimmed, v)
			if v != "" {
				empty = false
			}
		}
		if empty {
			continue
		}
		kept++
		if opt.MaxRecords > 0 && kept > limit {
			return nil, &TooManyRecordsError{Limit: opt.MaxRecords, Row: opt.MaxRecords + 1}
		}
		if names == nil {
			if opt.Header {
				names = slices.Clone(trimmed)
			} else {
				names = make([]string, len(trimmed))
				for j := range names {
					names[j] = fmt.Sprintf("col%d", j+1)
				}
			}
			domains = make([][]string, len(names))
			ids = make([]map[string]int, len(names))
			for j := range ids {
				ids[j] = make(map[string]int)
			}
			if opt.Header {
				continue
			}
		}
		if ragged != nil {
			continue
		}
		if len(trimmed) != len(names) {
			ragged = &RaggedRowError{Row: len(flat)/len(names) + 1, Fields: len(trimmed), Want: len(names)}
			continue
		}
		for j, v := range trimmed {
			id, ok := ids[j][v]
			if !ok {
				// The domain keeps its own copy: v shares its bytes with
				// the whole line encoding/csv read.
				v = strings.Clone(v)
				id = len(domains[j])
				ids[j][v] = id
				domains[j] = append(domains[j], v)
			}
			flat = append(flat, id)
		}
	}
	if kept == 0 {
		return nil, &EmptyTableError{}
	}
	if opt.Header {
		if kept == 1 {
			return nil, &EmptyTableError{HeaderOnly: true}
		}
		seenName := make(map[string]int, len(names))
		for j, name := range names {
			if first, dup := seenName[name]; dup {
				return nil, &DuplicateColumnError{Name: name, Column: j + 1, First: first + 1}
			}
			seenName[name] = j
		}
	}
	if ragged != nil {
		return nil, ragged
	}
	nAttrs := len(names)
	attrs := make([]*table.Attribute, nAttrs)
	for j := range attrs {
		//kanon:allow leakcheck -- names[j] is a schema name from the CSV header; attribute names are released in the output header by design (the duplicate-domain error formats the name, never a cell value)
		a, err := table.NewAttribute(names[j], domains[j])
		if err != nil {
			return nil, err
		}
		attrs[j] = a
	}
	schema, err := table.NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	tbl := table.New(schema)
	tbl.Records = make([]table.Record, len(flat)/nAttrs)
	for i := range tbl.Records {
		tbl.Records[i] = flat[i*nAttrs : (i+1)*nAttrs : (i+1)*nAttrs]
	}
	return tbl, nil
}

// WriteCSV writes the table as CSV with a header row.
func WriteCSV(w io.Writer, tbl *table.Table) error {
	cw := csv.NewWriter(w)
	names := make([]string, tbl.Schema.NumAttrs())
	for j, a := range tbl.Schema.Attrs {
		names[j] = a.Name
	}
	if err := cw.Write(names); err != nil {
		return err
	}
	for i := range tbl.Records {
		if err := cw.Write(tbl.Strings(i)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// GenValueString renders a generalized entry: the plain value for a leaf,
// the subset label when one is set, and otherwise a braced value list
// ("{30,31,...,39}" style, abbreviated past eight values).
func GenValueString(a *table.Attribute, h *hierarchy.Hierarchy, node int) string {
	if node < 0 || node >= h.NumNodes() {
		return fmt.Sprintf("<invalid:%d>", node)
	}
	if h.IsLeaf(node) {
		return a.Value(h.ValueOf(node))
	}
	if node == h.Root() {
		if l := h.Label(node); l != "" && !strings.HasPrefix(l, "node") {
			return l
		}
		return "*"
	}
	if l := h.Label(node); l != "" && !strings.HasPrefix(l, "node") {
		return l
	}
	leaves := h.Leaves(node)
	parts := make([]string, 0, len(leaves))
	if len(leaves) > 8 {
		for _, v := range leaves[:3] {
			parts = append(parts, a.Value(v))
		}
		parts = append(parts, "...")
		parts = append(parts, a.Value(leaves[len(leaves)-1]))
	} else {
		for _, v := range leaves {
			parts = append(parts, a.Value(v))
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteGenCSV writes a generalized table as CSV with a header row,
// rendering entries via GenValueString.
func WriteGenCSV(w io.Writer, g *table.GenTable, hiers []*hierarchy.Hierarchy) error {
	if len(hiers) != g.Schema.NumAttrs() {
		return fmt.Errorf("dataio: %d hierarchies for %d attributes", len(hiers), g.Schema.NumAttrs())
	}
	cw := csv.NewWriter(w)
	names := make([]string, g.Schema.NumAttrs())
	for j, a := range g.Schema.Attrs {
		names[j] = a.Name
	}
	if err := cw.Write(names); err != nil {
		return err
	}
	row := make([]string, g.Schema.NumAttrs())
	for _, rec := range g.Records {
		for j, node := range rec {
			row[j] = GenValueString(g.Schema.Attrs[j], hiers[j], node)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SubsetSpec is one permissible subset in a JSON hierarchy specification.
type SubsetSpec struct {
	Label  string   `json:"label,omitempty"`
	Values []string `json:"values"`
}

// AttrSpec is the hierarchy specification of one attribute. Attributes
// missing from a HierarchySpec get the trivial (suppress-only) hierarchy.
type AttrSpec struct {
	Attribute string       `json:"attribute"`
	Subsets   []SubsetSpec `json:"subsets"`
}

// HierarchySpec is the JSON document format: one entry per attribute that
// has non-trivial permissible subsets.
type HierarchySpec struct {
	Attributes []AttrSpec `json:"attributes"`
}

// LoadHierarchies parses a JSON hierarchy specification and builds one
// hierarchy per schema attribute (trivial for unmentioned attributes).
func LoadHierarchies(r io.Reader, schema *table.Schema) ([]*hierarchy.Hierarchy, error) {
	var spec HierarchySpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("dataio: parsing hierarchy spec: %w", err)
	}
	byName := make(map[string]AttrSpec, len(spec.Attributes))
	for _, as := range spec.Attributes {
		if schema.AttrIndex(as.Attribute) < 0 {
			return nil, fmt.Errorf("dataio: hierarchy spec names unknown attribute %q", as.Attribute)
		}
		if _, dup := byName[as.Attribute]; dup {
			return nil, fmt.Errorf("dataio: hierarchy spec repeats attribute %q", as.Attribute)
		}
		byName[as.Attribute] = as
	}
	hiers := make([]*hierarchy.Hierarchy, schema.NumAttrs())
	for j, attr := range schema.Attrs {
		as, ok := byName[attr.Name]
		if !ok {
			hiers[j] = hierarchy.Flat(attr.Size())
			continue
		}
		subsets := make([]hierarchy.Subset, 0, len(as.Subsets))
		for si, ss := range as.Subsets {
			ids := make([]int, 0, len(ss.Values))
			for _, v := range ss.Values {
				id, err := attr.ValueID(v)
				if err != nil {
					return nil, &UnknownValueError{Attribute: attr.Name, Subset: si, Digest: redact.Value(v)}
				}
				ids = append(ids, id)
			}
			subsets = append(subsets, hierarchy.Subset{Values: ids, Label: ss.Label})
		}
		h, err := hierarchy.FromSubsets(attr.Size(), subsets, "*")
		if err != nil {
			return nil, fmt.Errorf("dataio: attribute %q: %w", attr.Name, err)
		}
		hiers[j] = h
	}
	return hiers, nil
}

// SaveHierarchies serializes hierarchies into the JSON specification
// format, listing every non-trivial internal node of each attribute.
func SaveHierarchies(w io.Writer, schema *table.Schema, hiers []*hierarchy.Hierarchy) error {
	if len(hiers) != schema.NumAttrs() {
		return fmt.Errorf("dataio: %d hierarchies for %d attributes", len(hiers), schema.NumAttrs())
	}
	var spec HierarchySpec
	for j, h := range hiers {
		attr := schema.Attrs[j]
		var subsets []SubsetSpec
		for u := h.NumValues(); u < h.NumNodes(); u++ {
			if u == h.Root() {
				continue
			}
			leaves := h.Leaves(u)
			values := make([]string, len(leaves))
			for i, v := range leaves {
				values[i] = attr.Value(v)
			}
			label := h.Label(u)
			if strings.HasPrefix(label, "node") {
				label = ""
			}
			subsets = append(subsets, SubsetSpec{Label: label, Values: values})
		}
		if len(subsets) == 0 {
			continue
		}
		sort.Slice(subsets, func(a, b int) bool {
			if len(subsets[a].Values) != len(subsets[b].Values) {
				return len(subsets[a].Values) > len(subsets[b].Values)
			}
			return subsets[a].Values[0] < subsets[b].Values[0]
		})
		spec.Attributes = append(spec.Attributes, AttrSpec{Attribute: attr.Name, Subsets: subsets})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//kanon:allow leakcheck -- SaveHierarchies writes the hierarchy spec data file, a released artifact like WriteCSV: domain values belong in it by design
	return enc.Encode(spec)
}
