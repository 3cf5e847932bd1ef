package cluster

import "math"

// Distance is an inter-cluster distance driving the agglomerative
// algorithms. Eval receives the cluster sizes |A|, |B|, the union size
// |A ∪ B| (equal to |A|+|B| for disjoint clusters, but not during the
// shrinking step of the modified algorithm), and the generalization costs
// d(A), d(B), d(A ∪ B). Distances need not be symmetric (the
// Nergiz–Clifton variant is not) nor non-negative (eq. (9) can be
// negative); the engine only compares values.
type Distance interface {
	// Name identifies the distance in reports ("d1".."d4", "nc").
	Name() string
	// Eval returns dist(A, B).
	Eval(sizeA, sizeB, sizeUnion int, dA, dB, dU float64) float64
}

// D1 is distance function (8):
// dist(A,B) = |A∪B|·d(A∪B) − |A|·d(A) − |B|·d(B).
// It measures the increase in the clustering cost Σ|S|·d(S) of eq. (7)
// caused by the merge, and tends to produce balanced cluster growth.
type D1 struct{}

// Name implements Distance.
func (D1) Name() string { return "d1" }

// Eval implements Distance.
func (D1) Eval(sa, sb, su int, dA, dB, dU float64) float64 {
	return d1Eval(sa, sb, su, dA, dB, dU)
}

// D2 is distance function (9): dist(A,B) = d(A∪B) − d(A) − d(B).
// It may be negative; it favours unbalanced cluster growth, which the paper
// found preferable.
type D2 struct{}

// Name implements Distance.
func (D2) Name() string { return "d2" }

// Eval implements Distance.
func (D2) Eval(_, _, _ int, dA, dB, dU float64) float64 {
	return d2Eval(dA, dB, dU)
}

// D3 is distance function (10):
// dist(A,B) = (d(A∪B) − d(A) − d(B)) / log(|A∪B|).
// The division prioritizes adding records to larger clusters; together with
// D4 it was the consistently best performer in the paper's experiments.
// The logarithm's base only rescales all distances uniformly, so the
// natural log is used.
type D3 struct{}

// Name implements Distance.
func (D3) Name() string { return "d3" }

// Eval implements Distance.
func (D3) Eval(_, _, su int, dA, dB, dU float64) float64 {
	return d3Eval(math.Log(float64(su)), dA, dB, dU)
}

// D4 is distance function (11): dist(A,B) = d(A∪B) / (d(A) + d(B) + ε),
// the multiplicative growth factor of the generalization cost, with the
// paper's ε = 0.1 (d4Epsilon), which keeps singleton pairs (zero cost)
// finite.
type D4 struct{}

// d4Epsilon is D4's additive constant ε. Costs are ≥ 0 (NewSpace), so the
// divisor d(A) + d(B) + ε is always positive.
const d4Epsilon = 0.1

// Name implements Distance.
func (D4) Name() string { return "d4" }

// Eval implements Distance.
func (D4) Eval(_, _, _ int, dA, dB, dU float64) float64 {
	return d4Eval(dA, dB, dU)
}

// NC is the asymmetric distance of Nergiz and Clifton (ICDE Workshops'06)
// noted at the end of Section V-A.2: dist(A,B) = d(A∪B) − d(B).
type NC struct{}

// Name implements Distance.
func (NC) Name() string { return "nc" }

// Eval implements Distance.
func (NC) Eval(_, _, _ int, _, dB, dU float64) float64 {
	return ncEval(dB, dU)
}

// The formulas of the built-in distances, each small enough to inline.
// The Eval methods above and the engine's kernel (kernel.go) both call
// them, so the kernel's devirtualized evaluation is the interface's bit for
// bit by construction.

func d1Eval(sa, sb, su int, dA, dB, dU float64) float64 {
	return float64(su)*dU - float64(sa)*dA - float64(sb)*dB
}

func d2Eval(dA, dB, dU float64) float64 { return dU - dA - dB }

// d3Eval takes den = log|A∪B|. |A∪B| = 1 (den = 0) can only occur in
// degenerate shrink evaluations; it falls back to the undivided difference.
func d3Eval(den, dA, dB, dU float64) float64 {
	if den <= 0 {
		return dU - dA - dB
	}
	return (dU - dA - dB) / den
}

func d4Eval(dA, dB, dU float64) float64 { return dU / (dA + dB + d4Epsilon) }

func ncEval(dB, dU float64) float64 { return dU - dB }

// The package-level distance tables backing PaperDistances and
// DistanceByName. The distances are stateless values, so sharing the
// slices is safe as long as callers treat them as read-only; previously
// every call rebuilt them, which showed up in per-record resolution loops.
var (
	paperDistances  = []Distance{D1{}, D2{}, D3{}, D4{}}
	distancesByName = map[string]Distance{
		"d1": D1{}, "d2": D2{}, "d3": D3{}, "d4": D4{}, "nc": NC{},
	}
)

// PaperDistances returns the four distance functions of Section V-A.2 in
// order (8), (9), (10), (11). The returned slice is shared and must not be
// modified.
func PaperDistances() []Distance { return paperDistances }

// DistanceByName resolves a distance by its Name in one table lookup; it
// returns nil for an unknown name.
func DistanceByName(name string) Distance {
	return distancesByName[name]
}
