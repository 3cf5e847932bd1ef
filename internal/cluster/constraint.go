package cluster

import (
	"fmt"
	"math"
	"sort"
)

// This file defines the pluggable privacy-constraint surface of the
// agglomerative engine (DESIGN.md §15). The engine's old hardwired
// `MinDiversity int` knob — distinct ℓ-diversity and nothing else — is
// generalized into a Constraint interface: a declarative cluster-validity
// predicate over the table's sensitive column, bound once per run into an
// incremental evaluator (Bound) that the merge, shrink (Algorithm 2) and
// absorb paths consult without ever re-scanning cluster members from
// scratch.
//
// Four implementations ship with the engine:
//
//   - DistinctLDiversity: at least ℓ distinct sensitive values per cluster
//     (Machanavajjhala et al.; exactly the old MinDiversity semantics, and
//     byte-identical to it by the constraint-equivalence harness);
//   - EntropyLDiversity: Shannon entropy of the cluster's sensitive
//     distribution ≥ log ℓ;
//   - RecursiveCL: recursive (c,ℓ)-diversity, r₁ < c·(r_ℓ + … + r_m) over
//     the descending sensitive-value counts r₁ ≥ r₂ ≥ …;
//   - TCloseness: earth-mover's distance between the cluster's sensitive
//     distribution and the whole table's ≤ t (Li, Li, Venkatasubramanian),
//     with two ground metrics: equal (total variation) and ordered
//     (numeric sensitive values).
//
// All four are functions of the cluster's sensitive-value histogram, so
// they share one accumulator (countBound) that maintains counts, size and
// distinct-value number under Add/Evict in O(1) per record; each predicate
// judges that state. Determinism: the accumulator is slice-indexed by
// value id (no map iteration), every float64 fold runs in ascending value
// order, and predicates are pure functions of the histogram — so constraint
// decisions are identical at any worker count and on either kernel path.

// Constraint is a declarative cluster-validity constraint over a table's
// sensitive attribute. Implementations must be immutable: Bind is called
// once per engine run and returns the run's mutable evaluator.
type Constraint interface {
	// String names the constraint with its parameters, for reports and
	// error messages (e.g. "distinct(l=3)").
	String() string
	// Trivial reports whether the constraint is vacuously satisfied by any
	// cluster (e.g. distinct ℓ-diversity with ℓ ≤ 1). The engine drops
	// trivial constraints before binding, keeping the unconstrained fast
	// paths intact.
	Trivial() bool
	// Bind validates the constraint against one run's sensitive column —
	// one value id per record, ids in [0, domain) — and returns the run's
	// incremental evaluator. Bind fails when the parameters are invalid or
	// the constraint is infeasible for this column (the whole table, the
	// loosest possible cluster, does not satisfy it).
	Bind(sensitive []int) (Bound, error)
}

// Bound is a Constraint bound to one run's sensitive column: an
// incremental accumulator over a candidate cluster's members. The engine
// drives it single-threaded (pool workers never touch constraint state),
// in three patterns:
//
//	merge:  Reset, Add each member (stopping early once Decided), Satisfied
//	shrink: Reset+Add all members once, then CanEvict per candidate and
//	        Evict per committed eviction (Algorithm 2)
//	absorb: SatisfiedWithAdd per candidate cluster, skipped entirely for
//	        AdditionSafe constraints
type Bound interface {
	// Reset clears the accumulator for a new candidate cluster.
	Reset()
	// Add feeds one member record, by its index into the sensitive column.
	Add(ri int)
	// Satisfied reports whether the members added since Reset satisfy the
	// constraint.
	Satisfied() bool
	// Decided reports whether Satisfied can no longer change under further
	// Adds, letting monotone constraints cut member scans short.
	Decided() bool
	// AdditionSafe reports whether a satisfying cluster remains satisfying
	// under any record addition. The absorb pass skips per-candidate
	// feasibility checks for such constraints (distinct ℓ-diversity),
	// preserving the legacy absorption order bit for bit.
	AdditionSafe() bool
	// SatisfiedWithAdd reports whether the accumulated members plus ri
	// would satisfy the constraint, without committing the addition.
	SatisfiedWithAdd(ri int) bool
	// Improves reports whether adding ri strictly improves the constraint's
	// metric; the (k,k) widening pass prefers improving candidates while a
	// constraint is unsatisfied.
	Improves(ri int) bool
	// CanEvict reports whether the accumulated members minus ri still
	// satisfy the constraint, without committing the eviction.
	CanEvict(ri int) bool
	// Evict commits the removal of ri from the accumulator.
	Evict(ri int)
	// Metric returns the constraint's scalar for the accumulated members:
	// the distinct-value count, exp(entropy) (the effective ℓ), the
	// recursive r₁/(r_ℓ+…+r_m) ratio, or the EMD to the table distribution.
	Metric() float64
}

// countState is the shared histogram accumulator: per-value counts (slice
// indexed by value id — never a map, so no iteration-order hazard), the
// member count, and the number of values with count > 0.
type countState struct {
	counts   []int
	size     int
	distinct int
}

// countPredicate judges a cluster from its sensitive-value histogram. All
// built-in constraints are count predicates over one shared accumulator.
type countPredicate interface {
	// judge reports whether the histogram satisfies the constraint.
	judge(st *countState) bool
	// metric returns the constraint's scalar for the histogram.
	metric(st *countState) float64
	// higherBetter reports the metric's direction: true when larger metric
	// values are closer to satisfaction (diversity), false when smaller
	// are (closeness).
	higherBetter() bool
	// monotoneAdd reports that adding records can never falsify a
	// satisfied histogram (so Decided may stop scans early and absorb may
	// skip feasibility checks).
	monotoneAdd() bool
}

// countBound implements Bound for any countPredicate.
type countBound struct {
	sensitive []int
	st        countState
	p         countPredicate
}

func newCountBound(sensitive []int, domain int, p countPredicate) *countBound {
	return &countBound{sensitive: sensitive, st: countState{counts: make([]int, domain)}, p: p}
}

func (b *countBound) Reset() {
	clear(b.st.counts)
	b.st.size, b.st.distinct = 0, 0
}

func (b *countBound) Add(ri int) {
	v := b.sensitive[ri]
	if b.st.counts[v] == 0 {
		b.st.distinct++
	}
	b.st.counts[v]++
	b.st.size++
}

func (b *countBound) remove(v int) {
	b.st.counts[v]--
	if b.st.counts[v] == 0 {
		b.st.distinct--
	}
	b.st.size--
}

func (b *countBound) add(v int) {
	if b.st.counts[v] == 0 {
		b.st.distinct++
	}
	b.st.counts[v]++
	b.st.size++
}

func (b *countBound) Satisfied() bool { return b.p.judge(&b.st) }

func (b *countBound) Decided() bool { return b.p.monotoneAdd() && b.p.judge(&b.st) }

func (b *countBound) AdditionSafe() bool { return b.p.monotoneAdd() }

func (b *countBound) SatisfiedWithAdd(ri int) bool {
	v := b.sensitive[ri]
	b.add(v)
	ok := b.p.judge(&b.st)
	b.remove(v)
	return ok
}

func (b *countBound) Improves(ri int) bool {
	before := b.p.metric(&b.st)
	v := b.sensitive[ri]
	b.add(v)
	after := b.p.metric(&b.st)
	b.remove(v)
	if b.p.higherBetter() {
		return after > before
	}
	return after < before
}

func (b *countBound) CanEvict(ri int) bool {
	v := b.sensitive[ri]
	b.remove(v)
	ok := b.p.judge(&b.st)
	b.add(v)
	return ok
}

func (b *countBound) Evict(ri int) { b.remove(b.sensitive[ri]) }

func (b *countBound) Metric() float64 { return b.p.metric(&b.st) }

// domainOf returns 1 + the largest value id of the column (0 for an empty
// column), validating that ids are non-negative.
func domainOf(sensitive []int) (int, error) {
	domain := 0
	for i, v := range sensitive {
		if v < 0 {
			return 0, fmt.Errorf("cluster: negative sensitive value id %d at record %d", v, i)
		}
		if v+1 > domain {
			domain = v + 1
		}
	}
	return domain, nil
}

// tableState builds the whole-table histogram — the loosest possible
// cluster, used for feasibility checks and as the t-closeness reference
// distribution.
func tableState(sensitive []int, domain int) countState {
	st := countState{counts: make([]int, domain)}
	for _, v := range sensitive {
		if st.counts[v] == 0 {
			st.distinct++
		}
		st.counts[v]++
		st.size++
	}
	return st
}

// ---------------------------------------------------------------------------
// Distinct ℓ-diversity

type distinctLDiversity struct{ l int }

// DistinctLDiversity returns the distinct ℓ-diversity constraint of
// Machanavajjhala et al.: every final cluster carries at least l distinct
// sensitive values. This is exactly the semantics of the engine's retired
// MinDiversity knob; the constraint-equivalence harness pins the outputs
// byte-for-byte.
func DistinctLDiversity(l int) Constraint { return distinctLDiversity{l} }

func (c distinctLDiversity) String() string { return fmt.Sprintf("distinct(l=%d)", c.l) }
func (c distinctLDiversity) Trivial() bool  { return c.l <= 1 }

func (c distinctLDiversity) Bind(sensitive []int) (Bound, error) {
	domain, err := domainOf(sensitive)
	if err != nil {
		return nil, err
	}
	full := tableState(sensitive, domain)
	if full.distinct < c.l {
		return nil, fmt.Errorf("cluster: table has %d distinct sensitive values, %d-diversity unattainable",
			full.distinct, c.l)
	}
	return newCountBound(sensitive, domain, distinctPred{c.l}), nil
}

type distinctPred struct{ l int }

func (p distinctPred) judge(st *countState) bool     { return st.distinct >= p.l }
func (p distinctPred) metric(st *countState) float64 { return float64(st.distinct) }
func (p distinctPred) higherBetter() bool            { return true }
func (p distinctPred) monotoneAdd() bool             { return true }

// ---------------------------------------------------------------------------
// Entropy ℓ-diversity

type entropyLDiversity struct{ l float64 }

// EntropyLDiversity returns the entropy ℓ-diversity constraint: the Shannon
// entropy of every final cluster's sensitive distribution must be at least
// log l. l may be fractional; l ≤ 1 is trivially satisfied.
func EntropyLDiversity(l float64) Constraint { return entropyLDiversity{l} }

func (c entropyLDiversity) String() string { return fmt.Sprintf("entropy(l=%g)", c.l) }
func (c entropyLDiversity) Trivial() bool  { return c.l <= 1 }

func (c entropyLDiversity) Bind(sensitive []int) (Bound, error) {
	if math.IsNaN(c.l) || math.IsInf(c.l, 0) {
		return nil, fmt.Errorf("cluster: entropy ℓ-diversity needs a finite l, got %v", c.l)
	}
	domain, err := domainOf(sensitive)
	if err != nil {
		return nil, err
	}
	p := entropyPred{logL: math.Log(c.l), l: c.l}
	full := tableState(sensitive, domain)
	if !p.judge(&full) {
		return nil, fmt.Errorf("cluster: table sensitive entropy %.4f is below log(l)=%.4f, entropy %g-diversity unattainable",
			entropyOf(&full), p.logL, c.l)
	}
	return newCountBound(sensitive, domain, p), nil
}

type entropyPred struct {
	logL float64
	l    float64
}

// entropyOf returns the Shannon entropy of the histogram, folded in
// ascending value order: H = log n − (1/n)·Σ cᵢ·log cᵢ.
func entropyOf(st *countState) float64 {
	if st.size == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range st.counts {
		if c > 1 {
			sum += float64(c) * math.Log(float64(c))
		}
	}
	return math.Log(float64(st.size)) - sum/float64(st.size)
}

func (p entropyPred) judge(st *countState) bool     { return entropyOf(st) >= p.logL }
func (p entropyPred) metric(st *countState) float64 { return math.Exp(entropyOf(st)) }
func (p entropyPred) higherBetter() bool            { return true }
func (p entropyPred) monotoneAdd() bool             { return false }

// ---------------------------------------------------------------------------
// Recursive (c,ℓ)-diversity

type recursiveCL struct {
	c float64
	l int
}

// RecursiveCL returns the recursive (c,ℓ)-diversity constraint: with the
// cluster's sensitive-value counts sorted descending r₁ ≥ r₂ ≥ … ≥ r_m,
// require r₁ < c·(r_ℓ + r_{ℓ+1} + … + r_m). A cluster with fewer than ℓ
// distinct values fails (the tail sum is empty).
func RecursiveCL(c float64, l int) Constraint { return recursiveCL{c, l} }

func (c recursiveCL) String() string { return fmt.Sprintf("recursive(c=%g,l=%d)", c.c, c.l) }
func (c recursiveCL) Trivial() bool  { return false }

func (c recursiveCL) Bind(sensitive []int) (Bound, error) {
	if c.l < 2 {
		return nil, fmt.Errorf("cluster: recursive (c,ℓ)-diversity needs ℓ ≥ 2, got %d", c.l)
	}
	if !(c.c > 0) || math.IsInf(c.c, 0) {
		return nil, fmt.Errorf("cluster: recursive (c,ℓ)-diversity needs a finite c > 0, got %v", c.c)
	}
	domain, err := domainOf(sensitive)
	if err != nil {
		return nil, err
	}
	p := recursivePred{c: c.c, l: c.l, scratch: make([]int, c.l-1)}
	full := tableState(sensitive, domain)
	if !p.judge(&full) {
		return nil, fmt.Errorf("cluster: table sensitive distribution violates recursive (%g,%d)-diversity (ratio %.4f), constraint unattainable",
			c.c, c.l, p.metric(&full))
	}
	return newCountBound(sensitive, domain, p), nil
}

type recursivePred struct {
	c       float64
	l       int
	scratch []int // the ℓ−1 largest counts, reused across judgements
}

// ratio returns r₁ / (r_ℓ + … + r_m) over the counts sorted descending,
// +Inf when the tail is empty, 0 for an empty histogram. It keeps only the
// ℓ−1 largest counts, descending, by insertion: the tail is the size less
// their sum, an exact integer, so no sort is needed.
func (p recursivePred) ratio(st *countState) float64 {
	top := p.scratch[:0]
	for _, c := range st.counts {
		if c == 0 || (len(top) == cap(top) && c <= top[len(top)-1]) {
			continue
		}
		if len(top) < cap(top) {
			top = append(top, c)
		} else {
			top[len(top)-1] = c
		}
		for i := len(top) - 1; i > 0 && top[i-1] < top[i]; i-- {
			top[i-1], top[i] = top[i], top[i-1]
		}
	}
	if len(top) == 0 {
		return 0
	}
	tail := st.size
	for _, c := range top {
		tail -= c
	}
	if tail == 0 {
		return math.Inf(1)
	}
	return float64(top[0]) / float64(tail)
}

func (p recursivePred) judge(st *countState) bool {
	if st.size == 0 {
		return false
	}
	r := p.ratio(st)
	return !math.IsInf(r, 1) && r < p.c
}
func (p recursivePred) metric(st *countState) float64 { return p.ratio(st) }
func (p recursivePred) higherBetter() bool            { return false }
func (p recursivePred) monotoneAdd() bool             { return false }

// ---------------------------------------------------------------------------
// t-closeness

// tGround enumerates the EMD ground metrics of TCloseness.
type tGround uint8

const (
	groundEqual tGround = iota
	groundOrdered
)

type tCloseness struct {
	t      float64
	ground tGround
	pos    []float64 // groundOrdered: value id → numeric position
}

// TCloseness returns the t-closeness constraint of Li, Li and
// Venkatasubramanian under the equal ground metric: the earth-mover's
// distance between every final cluster's sensitive distribution and the
// whole table's — here the total variation distance ½·Σ|pᵢ−qᵢ| — must not
// exceed t. t ≥ 1 is trivially satisfied (EMD never exceeds 1); t = 0
// requires every cluster to reproduce the table distribution exactly.
func TCloseness(t float64) Constraint { return tCloseness{t: t, ground: groundEqual} }

// TClosenessOrdered is TCloseness under the ordered-distance ground metric
// for numeric sensitive attributes: pos maps each value id to its numeric
// position, and the ground distance between two values is their position
// gap normalized by the domain's range, making the EMD the area between
// the two CDFs over the sorted domain (the Li et al. ordered EMD when
// positions are equally spaced).
func TClosenessOrdered(t float64, pos []float64) Constraint {
	return tCloseness{t: t, ground: groundOrdered, pos: pos}
}

func (c tCloseness) String() string {
	if c.ground == groundOrdered {
		return fmt.Sprintf("tcloseness(t=%g,ordered)", c.t)
	}
	return fmt.Sprintf("tcloseness(t=%g)", c.t)
}

// Trivial: both ground metrics are normalized to distances ≤ 1, so
// EMD ≤ 1 and t ≥ 1 admits every cluster.
func (c tCloseness) Trivial() bool { return c.t >= 1 }

func (c tCloseness) Bind(sensitive []int) (Bound, error) {
	if math.IsNaN(c.t) || c.t < 0 {
		return nil, fmt.Errorf("cluster: t-closeness needs t in [0,1], got %v", c.t)
	}
	domain, err := domainOf(sensitive)
	if err != nil {
		return nil, err
	}
	p := closenessPred{t: c.t, table: tableState(sensitive, domain)}
	if c.ground == groundOrdered {
		if len(c.pos) < domain {
			return nil, fmt.Errorf("cluster: t-closeness ordered ground covers %d values, column has %d", len(c.pos), domain)
		}
		// Sort value ids by position once; the EMD walks this order.
		p.order = make([]int, domain)
		for i := range p.order {
			p.order[i] = i
		}
		sort.SliceStable(p.order, func(a, b int) bool { return c.pos[p.order[a]] < c.pos[p.order[b]] })
		p.pos = c.pos
		if domain > 0 {
			p.span = c.pos[p.order[domain-1]] - c.pos[p.order[0]]
		}
	}
	p.ground = c.ground
	// Feasibility is automatic — the whole table is at EMD 0 from itself —
	// so only parameter validation can fail.
	return newCountBound(sensitive, domain, &p), nil
}

type closenessPred struct {
	t      float64
	ground tGround
	table  countState // the reference distribution q

	// ordered ground
	order []int
	pos   []float64
	span  float64
}

// emd returns the earth-mover's distance between the histogram's
// distribution p and the table distribution q under the bound ground
// metric. Folds run in a fixed order (ascending value id or position
// order), so the result is a pure function of the histogram.
func (p *closenessPred) emd(st *countState) float64 {
	if st.size == 0 {
		return 0
	}
	n, m := float64(st.size), float64(p.table.size)
	if p.ground == groundOrdered {
		if p.span <= 0 {
			return 0
		}
		// Area between the CDFs over the position-sorted domain, scaled by
		// the position span.
		sum, cum := 0.0, 0.0
		for i := 0; i < len(p.order)-1; i++ {
			v := p.order[i]
			cum += float64(st.counts[v])/n - float64(p.table.counts[v])/m
			sum += (p.pos[p.order[i+1]] - p.pos[v]) * math.Abs(cum)
		}
		return sum / p.span
	}
	// Equal ground: total variation ½·Σ|pᵢ−qᵢ|.
	sum := 0.0
	for v, c := range st.counts {
		sum += math.Abs(float64(c)/n - float64(p.table.counts[v])/m)
	}
	return sum / 2
}

func (p *closenessPred) judge(st *countState) bool     { return p.emd(st) <= p.t }
func (p *closenessPred) metric(st *countState) float64 { return p.emd(st) }
func (p *closenessPred) higherBetter() bool            { return false }
func (p *closenessPred) monotoneAdd() bool             { return false }
