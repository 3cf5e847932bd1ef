package attack

import (
	"fmt"
	"slices"

	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/table"
)

// This file implements the intersection attack over repeated releases of
// overlapping populations (the composition attack the AnonyPyx line of
// work automates). Each release is individually k-type anonymous, but an
// adversary who knows an individual appears in several releases can
// intersect the candidate sets the releases yield for that individual:
// candidates must survive every release, and the intersection routinely
// drops below k even when each release alone honours it.

// Release is one published generalization of a (sub-)population. IDs maps
// record positions to stable individual identifiers, so the adversary can
// recognise the same individual across releases; generalization is
// positional, so IDs also identify the released rows.
type Release struct {
	Space *cluster.Space
	Tbl   *table.Table
	Gen   *table.GenTable
	// IDs[i] is the individual behind record i of this release. IDs must be
	// non-negative and unique within a release.
	IDs []int
}

// IntersectionOutcome is the cross-release candidate set of one individual.
type IntersectionOutcome struct {
	// ID is the individual's stable identifier.
	ID int
	// Releases counts the releases containing the individual.
	Releases int
	// Candidates is the size of the intersected candidate set: individuals
	// that are consistent with the target in every release containing it.
	Candidates int
	// SensitiveExposed reports whether every surviving candidate carries
	// the target's sensitive value (set only when sensitive values were
	// supplied to SimulateIntersection).
	SensitiveExposed bool
}

// SimulateIntersection runs the first adversary against every release and
// intersects, per individual, the candidate sets across the releases that
// contain it. sensitive may be nil; when present, sensitive[id] is the
// sensitive value of individual id and the homogeneity analysis is
// included. Outcomes are returned sorted by ID.
//
// Each release keeps its row classes (anonymity.ClassIndex), the position
// of every individual in it and the individual behind every position, in
// slices indexed by the individuals' ranks among all ids. An individual's
// candidates are the rows of the first release that holds it, expanded
// once; each later release keeps a candidate iff the candidate is in that
// release at a position whose class is set in the individual's mask there.
func SimulateIntersection(releases []Release, sensitive []int) ([]IntersectionOutcome, error) {
	var all []int
	for ri, rel := range releases {
		n := rel.Tbl.Len()
		if rel.Gen.Len() != n || len(rel.IDs) != n {
			return nil, fmt.Errorf("attack: release %d has %d records, %d released rows, %d ids",
				ri, n, rel.Gen.Len(), len(rel.IDs))
		}
		for u, id := range rel.IDs {
			if id < 0 {
				return nil, fmt.Errorf("attack: release %d record %d has negative id %d", ri, u, id)
			}
		}
		ids := slices.Clone(rel.IDs)
		slices.Sort(ids)
		for c := 1; c < len(ids); c++ {
			if ids[c] == ids[c-1] {
				return nil, fmt.Errorf("attack: release %d contains id %d twice", ri, ids[c])
			}
		}
		all = append(all, ids...)
	}
	slices.Sort(all)
	ids := slices.Compact(all)

	// rank[u] is the rank of the individual at position u; pos[d] is the
	// position of the individual of rank d, -1 when the release lacks it.
	type view struct {
		rel       Release
		ix        *anonymity.ClassIndex
		rank, pos []int32
	}
	views := make([]view, len(releases))
	for ri, rel := range releases {
		v := view{rel: rel, ix: anonymity.NewClassIndex(rel.Space.Hiers, rel.Gen),
			rank: make([]int32, len(rel.IDs)), pos: make([]int32, len(ids))}
		for d := range v.pos {
			v.pos[d] = -1
		}
		for u, id := range rel.IDs {
			d, _ := slices.BinarySearch(ids, id)
			v.rank[u], v.pos[d] = int32(d), int32(u)
		}
		views[ri] = v
	}

	out := make([]IntersectionOutcome, len(ids))
	var cand []int32
	var rows, candIDs []int
	for d, id := range ids {
		o := IntersectionOutcome{ID: id}
		for vi := range views {
			v := &views[vi]
			u := v.pos[d]
			if u < 0 {
				continue
			}
			v.ix.Load(v.rel.Tbl.Records[u])
			if o.Releases++; o.Releases == 1 {
				rows = v.ix.AppendRows(rows[:0])
				cand = cand[:0]
				for _, j := range rows {
					cand = append(cand, v.rank[j])
				}
				continue
			}
			kept := cand[:0]
			for _, c := range cand {
				if p := v.pos[c]; p >= 0 && v.ix.Has(int(p)) {
					kept = append(kept, c)
				}
			}
			cand = kept
		}
		o.Candidates = len(cand)
		if sensitive != nil {
			candIDs = candIDs[:0]
			for _, c := range cand {
				candIDs = append(candIDs, ids[c])
			}
			o.SensitiveExposed = homogeneous(candIDs, sensitive)
		}
		out[d] = o
	}
	return out, nil
}

// OverlappingWindows derives the canonical repeated-release scenario from a
// single run: the same anonymized output published as two overlapping
// cohorts, the first two thirds and the last two thirds of the population.
// Individuals in the middle third appear in both releases and are exposed
// to the intersection attack. IDs are the global record indices.
func OverlappingWindows(s *cluster.Space, tbl *table.Table, g *table.GenTable) ([]Release, error) {
	n := tbl.Len()
	if g.Len() != n {
		return nil, fmt.Errorf("attack: generalized table has %d records, original has %d", g.Len(), n)
	}
	if n == 0 {
		return nil, nil
	}
	hi := (2*n + 2) / 3 // first window [0, hi)
	lo := n / 3         // second window [lo, n)
	first, err := subRelease(s, tbl, g, 0, hi)
	if err != nil {
		return nil, err
	}
	second, err := subRelease(s, tbl, g, lo, n)
	if err != nil {
		return nil, err
	}
	return []Release{first, second}, nil
}

// subRelease restricts a release to the record window [lo, hi).
func subRelease(s *cluster.Space, tbl *table.Table, g *table.GenTable, lo, hi int) (Release, error) {
	sub := table.New(tbl.Schema)
	gen := table.NewGen(g.Schema, hi-lo)
	ids := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if err := sub.Append(tbl.Records[i]); err != nil {
			return Release{}, err
		}
		copy(gen.Records[i-lo], g.Records[i])
		ids = append(ids, i)
	}
	return Release{Space: s, Tbl: sub, Gen: gen, IDs: ids}, nil
}
