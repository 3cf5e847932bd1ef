package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"kanon"
	"kanon/internal/datagen"
	"kanon/internal/dataio"
)

// workers is the worker-pool size of every release and the GOMAXPROCS of a
// workload's process. It is fixed, not sized to the host, so numbers from
// different hosts describe the same work; the output is identical at any
// worker count. It is 1 because on the 2-vCPU host the benchmark was built
// on, two workers made k-adt10k slower (3.38 s against 3.00 s) and spread
// its release_s over ten seeds by 17% instead of 7%: every parallel step
// waits for the busier of two shared vCPUs.
const workers = 1

// workload is one benchmark input: a generated dataset and the options of
// its release. BENCHMARK.json records why each one is in the set.
type workload struct {
	name string
	gen  func(n int, seed int64) *datagen.Dataset
	n    int
	opt  kanon.Options
	// audit selects the quadratic audit (anonymity.Check plus
	// risk.EvaluateAttacks, the work of Result.Verify and
	// Result.AttackEvaluation); otherwise the release is audited with the
	// linear notion checks.
	audit bool
}

var workloads = []workload{
	{
		name:  "k-adt10k",
		gen:   datagen.Adult,
		n:     10000,
		opt:   kanon.Options{K: 10, Notion: kanon.NotionK, Distance: "d3", Measure: kanon.MeasureEntropy, Workers: workers},
		audit: true,
	},
	{
		name:  "kk-adt2500",
		gen:   datagen.Adult,
		n:     2500,
		opt:   kanon.Options{K: 10, Notion: kanon.NotionKK, Measure: kanon.MeasureEntropy, Workers: workers},
		audit: true,
	},
	{
		name:  "global-art3k",
		gen:   datagen.ART,
		n:     3000,
		opt:   kanon.Options{K: 5, Notion: kanon.NotionGlobal1K, Measure: kanon.MeasureEntropy, Workers: workers},
		audit: true,
	},
	{
		name: "k-sharded-adt100k",
		gen:  datagen.Adult,
		n:    100000,
		opt:  kanon.Options{K: 10, Notion: kanon.NotionK, Distance: "d3", Measure: kanon.MeasureEntropy, MaxChunk: 500, Workers: workers},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are the bytes a user of the kanon CLI would hand it: the records
// as CSV and the hierarchy specification as JSON.
type inputs struct {
	csv, hier []byte
}

func generate(w workload, n int, seed int64) (inputs, error) {
	ds := w.gen(n, seed)
	var csv bytes.Buffer
	if err := dataio.WriteCSV(&csv, ds.Table); err != nil {
		return inputs{}, fmt.Errorf("writing CSV: %w", err)
	}
	hier, err := hierarchySpec(ds)
	if err != nil {
		return inputs{}, fmt.Errorf("writing hierarchies: %w", err)
	}
	return inputs{csv: csv.Bytes(), hier: hier}, nil
}

// hierarchySpec writes the dataset's hierarchies as a JSON spec restricted
// to the values its records use. The CSV reader builds every domain from
// the data, so a rare value that a sample happens to miss must not be named
// in the spec; dropping it can leave a subset empty, a singleton, the whole
// domain or equal to another, and such subsets are dropped too.
func hierarchySpec(ds *datagen.Dataset) ([]byte, error) {
	var full bytes.Buffer
	if err := dataio.SaveHierarchies(&full, ds.Table.Schema, ds.Hiers); err != nil {
		return nil, err
	}
	var spec dataio.HierarchySpec
	if err := json.Unmarshal(full.Bytes(), &spec); err != nil {
		return nil, err
	}
	used := make(map[string]map[string]bool, ds.Table.Schema.NumAttrs())
	for j, a := range ds.Table.Schema.Attrs {
		u := make(map[string]bool)
		for _, rec := range ds.Table.Records {
			u[a.Value(rec[j])] = true
		}
		used[a.Name] = u
	}
	var attrs []dataio.AttrSpec
	for _, as := range spec.Attributes {
		u := used[as.Attribute]
		seen := make(map[string]bool)
		var subsets []dataio.SubsetSpec
		for _, ss := range as.Subsets {
			var vals []string
			for _, v := range ss.Values {
				if u[v] {
					vals = append(vals, v)
				}
			}
			key := strings.Join(vals, "\x00")
			if len(vals) < 2 || len(vals) == len(u) || seen[key] {
				continue
			}
			seen[key] = true
			subsets = append(subsets, dataio.SubsetSpec{Label: ss.Label, Values: vals})
		}
		if len(subsets) > 0 {
			attrs = append(attrs, dataio.AttrSpec{Attribute: as.Attribute, Subsets: subsets})
		}
	}
	spec.Attributes = attrs
	return json.Marshal(spec)
}
