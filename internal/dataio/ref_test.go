package dataio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"kanon/internal/table"
)

// refReadCSV is the two-pass reader ReadCSVOptions replaced, kept verbatim
// as its oracle: it keeps every row's fields, collects the domains in a
// second pass through one set per column, and interns each field through
// Attribute.ValueID (a second map lookup per field, one slice per record).
func refReadCSV(r io.Reader, opt ReadOptions) (*table.Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	// Field counts are validated here (with our own row numbering), not by
	// encoding/csv.
	cr.FieldsPerRecord = -1
	var rows [][]string
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
		empty := true
		for _, v := range row {
			if strings.TrimSpace(v) != "" {
				empty = false
				break
			}
		}
		if empty {
			continue
		}
		rows = append(rows, row)
		if opt.MaxRecords > 0 {
			limit := opt.MaxRecords
			if opt.Header {
				limit++
			}
			if len(rows) > limit {
				return nil, &TooManyRecordsError{Limit: opt.MaxRecords, Row: opt.MaxRecords + 1}
			}
		}
	}
	if len(rows) == 0 {
		return nil, &EmptyTableError{}
	}
	var names []string
	if opt.Header {
		names = rows[0]
		rows = rows[1:]
		if len(rows) == 0 {
			return nil, &EmptyTableError{HeaderOnly: true}
		}
		seenName := make(map[string]int, len(names))
		for j := range names {
			names[j] = strings.TrimSpace(names[j])
			if first, dup := seenName[names[j]]; dup {
				return nil, &DuplicateColumnError{Name: names[j], Column: j + 1, First: first + 1}
			}
			seenName[names[j]] = j
		}
	} else {
		names = make([]string, len(rows[0]))
		for j := range names {
			names[j] = fmt.Sprintf("col%d", j+1)
		}
	}
	nAttrs := len(names)
	// Collect domains in first-appearance order.
	domains := make([][]string, nAttrs)
	seen := make([]map[string]bool, nAttrs)
	for j := range seen {
		seen[j] = make(map[string]bool)
	}
	for ri, row := range rows {
		if len(row) != nAttrs {
			return nil, &RaggedRowError{Row: ri + 1, Fields: len(row), Want: nAttrs}
		}
		for j, v := range row {
			v = strings.TrimSpace(v)
			if !seen[j][v] {
				seen[j][v] = true
				domains[j] = append(domains[j], v)
			}
		}
	}
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
	for _, row := range rows {
		r := make(table.Record, nAttrs)
		for j, v := range row {
			id, err := schema.Attrs[j].ValueID(strings.TrimSpace(v))
			if err != nil {
				return nil, err
			}
			r[j] = id
		}
		tbl.Records = append(tbl.Records, r)
	}
	return tbl, nil
}
