package attack

import (
	"fmt"
	"sort"

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
func SimulateIntersection(releases []Release, sensitive []int) ([]IntersectionOutcome, error) {
	// candidates[id] is the current intersected candidate set, kept sorted;
	// releaseCount[id] counts the releases seen so far; ids lists every id
	// once, in order of first appearance.
	candidates := make(map[int][]int)
	releaseCount := make(map[int]int)
	var ids []int

	for ri, rel := range releases {
		n := rel.Tbl.Len()
		if rel.Gen.Len() != n || len(rel.IDs) != n {
			return nil, fmt.Errorf("attack: release %d has %d records, %d released rows, %d ids",
				ri, n, rel.Gen.Len(), len(rel.IDs))
		}
		graph := anonymity.BuildGraph(rel.Space, rel.Tbl, rel.Gen)
		seen := make(map[int]bool, n)
		for u := 0; u < n; u++ {
			id := rel.IDs[u]
			if id < 0 {
				return nil, fmt.Errorf("attack: release %d record %d has negative id %d", ri, u, id)
			}
			if seen[id] {
				return nil, fmt.Errorf("attack: release %d contains id %d twice", ri, id)
			}
			seen[id] = true
			// The first adversary's candidate set within this release: the
			// record's neighbours in the consistency graph, mapped to
			// individual ids and sorted.
			neighbors := graph.Neighbors(u)
			cand := make([]int, len(neighbors))
			for c, j := range neighbors {
				cand[c] = rel.IDs[j]
			}
			sort.Ints(cand)
			if releaseCount[id] == 0 {
				candidates[id] = cand
				ids = append(ids, id)
			} else {
				candidates[id] = intersectSorted(candidates[id], cand)
			}
			releaseCount[id]++
		}
	}

	sort.Ints(ids)
	out := make([]IntersectionOutcome, 0, len(ids))
	for _, id := range ids {
		o := IntersectionOutcome{ID: id, Releases: releaseCount[id], Candidates: len(candidates[id])}
		if sensitive != nil {
			o.SensitiveExposed = homogeneousIDs(candidates[id], sensitive)
		}
		out = append(out, o)
	}
	return out, nil
}

// intersectSorted intersects two ascending slices.
func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// homogeneousIDs reports whether all candidate individuals carry the same
// sensitive value (and there is at least one candidate). Ids outside the
// sensitive slice are treated as unknown values and block homogeneity.
func homogeneousIDs(ids []int, sensitive []int) bool {
	if len(ids) == 0 {
		return false
	}
	for _, id := range ids {
		if id >= len(sensitive) {
			return false
		}
	}
	first := sensitive[ids[0]]
	for _, id := range ids[1:] {
		if sensitive[id] != first {
			return false
		}
	}
	return true
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
