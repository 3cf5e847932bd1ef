package risk

import (
	"fmt"

	"kanon/internal/attack"
	"kanon/internal/cluster"
	"kanon/internal/table"
)

// This file aggregates the adversarial evaluation suite: it runs every
// attack in internal/attack against one release and folds the results into
// a single disclosure-risk report, the unit the experiment driver, the CLI
// `-attack` flag and the attack-regression harness all consume.

// AttackVector summarizes one attack's outcome against a release.
type AttackVector struct {
	// Attack names the attack ("matching", "refinement", "intersection").
	Attack string `json:"attack"`
	// Population is the number of individuals the attack evaluated.
	Population int `json:"population"`
	// Vulnerable counts individuals whose candidate set fell below k.
	Vulnerable int `json:"vulnerable"`
	// VulnerablePct is Vulnerable as a percentage of Population.
	VulnerablePct float64 `json:"vulnerable_pct"`
	// MinCandidates is the smallest candidate set observed.
	MinCandidates int `json:"min_candidates"`
	// Exposed counts individuals whose sensitive value is disclosed
	// (homogeneous candidate set); zero when no sensitive values were
	// supplied.
	Exposed int `json:"exposed"`
}

// AttackReport is the combined adversarial evaluation of one release.
type AttackReport struct {
	// K is the anonymity level the release claims.
	K int `json:"k"`
	// Records is the release size.
	Records int `json:"records"`
	// Matching is the second adversary of Section IV-A: candidate sets are
	// the perfect-matching matches of Definition 4.6.
	Matching AttackVector `json:"matching"`
	// Refinement is the no-auxiliary-information combinatorial refinement
	// attack over the release's overlap graph.
	Refinement AttackVector `json:"refinement"`
	// Intersection is the repeated-release intersection attack over the
	// canonical overlapping windows of the population.
	Intersection AttackVector `json:"intersection"`
	// VulnerableUnion counts individuals vulnerable to at least one attack.
	VulnerableUnion int `json:"vulnerable_union"`
	// Score is VulnerableUnion as a percentage of Records — the headline
	// percentage-of-vulnerable-population number.
	Score float64 `json:"score"`
}

// EvaluateAttacks runs the full attack suite against a release. sensitive
// may be nil; when present it must hold one value per record and the
// homogeneity (sensitive-exposure) analysis is included. The evaluation is
// deterministic: it depends only on the inputs, never on scheduling.
func EvaluateAttacks(s *cluster.Space, tbl *table.Table, g *table.GenTable, k int, sensitive []int) (*AttackReport, error) {
	n := tbl.Len()
	if g.Len() != n {
		return nil, fmt.Errorf("risk: generalized table has %d records, original has %d", g.Len(), n)
	}
	if k < 1 {
		return nil, fmt.Errorf("risk: k must be positive, got %d", k)
	}
	if sensitive != nil && len(sensitive) != n {
		return nil, fmt.Errorf("risk: %d sensitive values for %d records", len(sensitive), n)
	}
	rep := &AttackReport{K: k, Records: n}
	if n == 0 {
		return rep, nil
	}
	vuln := make([]bool, n)

	// Matching attack (the paper's second adversary). A release without a
	// perfect matching yields zero-size candidate sets everywhere — total
	// collapse, counted as everyone vulnerable.
	outcomes, err := attack.Simulate(s, tbl, g, sensitive)
	if err != nil {
		return nil, err
	}
	counts := make([]int, n)
	exposed := make([]bool, n)
	for i, o := range outcomes {
		counts[i] = o.Candidates2
		exposed[i] = o.SensitiveExposed2
	}
	rep.Matching = vectorize("matching", counts, exposed, k)
	markVulnerable(vuln, counts, k)

	// Refinement attack: candidate sets from the release and hierarchies
	// alone. Positions coincide with records (generalization is positional),
	// so vulnerability composes with the other attacks per index.
	refined, refinedExposed, err := attack.SimulateRefinement(s.Hiers, g, sensitive)
	if err != nil {
		return nil, err
	}
	rep.Refinement = vectorize("refinement", refined, refinedExposed, k)
	markVulnerable(vuln, refined, k)

	// Intersection attack over the canonical overlapping windows; outcome
	// IDs are global record indices.
	rels, err := attack.OverlappingWindows(s, tbl, g)
	if err != nil {
		return nil, err
	}
	iOut, err := attack.SimulateIntersection(rels, sensitive)
	if err != nil {
		return nil, err
	}
	counts = counts[:0]
	nExposed := 0
	for _, o := range iOut {
		counts = append(counts, o.Candidates)
		if o.SensitiveExposed {
			nExposed++
		}
		if o.Candidates < k && o.ID >= 0 && o.ID < n {
			vuln[o.ID] = true
		}
	}
	rep.Intersection = vectorize("intersection", counts, nil, k)
	rep.Intersection.Exposed = nExposed

	for _, v := range vuln {
		if v {
			rep.VulnerableUnion++
		}
	}
	rep.Score = pct(rep.VulnerableUnion, n)
	return rep, nil
}

// vectorize folds per-individual candidate counts into an AttackVector.
func vectorize(name string, counts []int, exposed []bool, k int) AttackVector {
	v := AttackVector{Attack: name, Population: len(counts)}
	if len(counts) == 0 {
		return v
	}
	v.MinCandidates = counts[0]
	for i, c := range counts {
		if c < k {
			v.Vulnerable++
		}
		if c < v.MinCandidates {
			v.MinCandidates = c
		}
		if exposed != nil && exposed[i] {
			v.Exposed++
		}
	}
	v.VulnerablePct = pct(v.Vulnerable, v.Population)
	return v
}

// markVulnerable sets vuln[i] for every index whose count is below k.
func markVulnerable(vuln []bool, counts []int, k int) {
	for i, c := range counts {
		if c < k {
			vuln[i] = true
		}
	}
}

// pct returns 100*a/b, or 0 when b is 0.
func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// String renders the headline numbers of the report.
func (r *AttackReport) String() string {
	return fmt.Sprintf(
		"attacks k=%d over %d records: matching %d vulnerable (%.1f%%), refinement %d (%.1f%%), intersection %d (%.1f%%); union %d (%.1f%%)",
		r.K, r.Records,
		r.Matching.Vulnerable, r.Matching.VulnerablePct,
		r.Refinement.Vulnerable, r.Refinement.VulnerablePct,
		r.Intersection.Vulnerable, r.Intersection.VulnerablePct,
		r.VulnerableUnion, r.Score)
}
