package cluster

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"kanon/internal/obs"
	"kanon/internal/par"
	"kanon/internal/table"
)

// Observability phases of the engine (obs.KindPhaseStart/End); the
// partitioned pipeline re-enters them once per chunk.
const (
	// PhaseInit is singleton construction plus the initial
	// nearest-neighbour build (buildNN: trie search or tiled).
	PhaseInit = "cluster.init"
	// PhaseMerge is the main merge loop, including nearest-neighbour repair.
	PhaseMerge = "cluster.merge"
	// PhaseAbsorb is the final leftover-absorption pass.
	PhaseAbsorb = "cluster.absorb"
)

// AggloOptions configures the agglomerative engine.
type AggloOptions struct {
	// K is the minimum final cluster size (the anonymity parameter).
	K int
	// Distance is the inter-cluster distance; one of the Section V-A.2
	// functions, typically D3 or D4.
	Distance Distance
	// Modified enables the Algorithm 2 refinement: ripe clusters are shrunk
	// back to exactly K members, re-seeding the removed records as
	// singletons.
	Modified bool

	// Constraints, when non-empty, additionally requires every final
	// cluster to satisfy each constraint over the Sensitive column —
	// distinct/entropy/recursive ℓ-diversity or t-closeness (constraint.go),
	// which Section II of the paper marks as natural extensions of the
	// framework. Sensitive must then hold one value per record (a
	// non-negative value id). Nil and Trivial() entries are ignored.
	Constraints []Constraint
	Sensitive   []int

	// Workers caps the engine's worker pool: 1 forces the purely sequential
	// path, 0 (the default) sizes the pool to runtime.NumCPU(). Sharding is
	// deterministic and every tie is broken toward the lowest cluster id,
	// so any worker count produces the identical clustering.
	Workers int
}

// AggloStats reports the work an engine run performed. Every counter is
// identical at every worker count; the run's timing is the obs phases
// PhaseInit, PhaseMerge and PhaseAbsorb.
type AggloStats struct {
	// DistEvals counts inter-cluster distance evaluations, the engine's
	// unit of work; it is identical at every worker count.
	DistEvals int64 `json:"dist_evals"`
	// Merges counts cluster merges (iterations of the main loop).
	Merges int64 `json:"merges"`
	// HeapPushes counts candidate entries pushed onto the lazy selection
	// heap (DESIGN.md §17): one per initial row list, two per newborn
	// (row + column), one per pop-time heal. Worker-invariant.
	HeapPushes int64 `json:"heap_pushes"`
	// StalePops counts heap entries discarded at pop because their
	// generation tag no longer matched the owning list's — the lazy path's
	// deferred invalidation work. Worker-invariant.
	StalePops int64 `json:"stale_pops"`
	// DeadNNRescans counts full nearest-neighbour rescans, the engine's
	// rare slow path: a fresh heap entry whose cached neighbour died with
	// the rest of its list dead or undercut by the list's discard bound.
	// Worker-invariant.
	DeadNNRescans int64 `json:"dead_nn_rescans"`
	// TilesScanned counts fixed-size candidate tiles walked by the tiled
	// initial build, the newborn-offer pass and single-cluster rescans.
	// Worker-invariant (tile geometry depends only on sizes, not sharding).
	TilesScanned int64 `json:"tiles_scanned"`
}

// AgglomerateStatsCtx runs the basic agglomerative algorithm
// (Algorithm 1) — or, when opt.Modified is set, the modified agglomerative
// algorithm (Algorithm 2) — and returns the final clustering γ: disjoint
// clusters covering all records, each of size ≥ K (exactly K for all but
// the leftover-absorbing clusters in the modified variant), with the
// engine's work counters. It is one Run of a fresh Engine.
//
// The engine polls ctx at every scan tile, merge, heap repair and absorbed
// record; once ctx is done it stops promptly, drains its worker pool,
// and returns ctx.Err() with a nil clustering — never partial output. A
// nil ctx disables cancellation.
func AgglomerateStatsCtx(ctx context.Context, s *Space, tbl *table.Table, opt AggloOptions) ([]*Cluster, AggloStats, error) {
	e := NewEngine(s, opt, tbl.Len())
	defer e.Close(obs.From(ctx))
	return e.Run(ctx, tbl)
}

// Engine runs Algorithms 1 and 2 over the flat distance kernel
// (kernel.go) with the lazy NN-heap merge selection of lazynn.go
// (DESIGN.md §12, §17). Cluster closures live in the kernel's arena and
// are immutable once formed, so distances between untouched clusters never
// change: every cluster carries fixed-depth nearest-neighbour caches built
// once at birth, selection pops a (d, row, wit)-keyed min-heap with
// generation-tagged staleness checks and pop-time healing, and a merge
// touches no cluster beyond its newborns — whose caches are built by one
// pass over the clusters born before them, tiled over the dense live list
// or, above the trie crossover, tiled over the live merged clusters and
// searched over the live singletons. Every step merges the lexicographic
// (d, i, j) minimum over ordered live pairs, the order Algorithm 1 scans
// in.
//
// Parallel execution shards the initial build, the newborn passes' tiles
// and the rare single-list rescans over the worker pool; a newborn's
// singleton search runs on the driving goroutine. Workers write only
// span-local scratch or lists they own, and the driving goroutine folds
// span results in a fixed order into lists whose contents are fold-order
// independent, so any worker count reproduces the sequential clustering
// exactly.
//
// An Engine keeps its state between runs: the worker pool, the kernel with
// its closure arena and log table, the neighbour lists, generations, live
// lists, heap and member chains, and the span strips and sums. The first
// run makes them, sized for the larger of its table and the records hint
// of NewEngine; later runs empty them and grow them only for a larger
// table. Only a run that takes the trie search builds its singleton index
// (record trie, frontier, live counts), and drops it when it ends. The
// partitioned pipeline runs all its shards on one Engine, so a shard
// allocates little beyond its output. An Engine is not safe for
// concurrent use; engines share nothing, so separate engines may run
// concurrently.
type Engine struct {
	s   *Space
	opt AggloOptions
	// records is the table size the state is first sized for, and depth
	// the neighbour-cache depth it selects (nnDepth).
	records int
	depth   int32

	tbl *table.Table

	// ctx, when non-nil, is polled at scan/merge/absorb boundaries; a done
	// context makes run return ctx.Err() with no partial output.
	ctx context.Context

	// o is the run's observability handle, extracted once at entry; nil
	// (the common case) disables every emission at the cost of one branch.
	o *obs.Run

	pool *par.Pool

	// kern is the flat distance kernel (kernel.go): live cluster closures
	// live in its arena, and a cluster is materialized as a *Cluster only
	// when it becomes final.
	kern *kernel

	alive []bool
	nLive int

	// Member chains: cluster id's members are the record indices
	// mHead[id], mNext[mHead[id]], … through mTail[id]. Merging
	// concatenates chains in O(1) with no allocation, keeping the members
	// of a merge in a-then-b order.
	mHead, mTail []int32
	mNext        []int32

	// Lazy NN-heap selection state (DESIGN.md §17). rowNN[i]/colNN[i] are
	// cluster i's birth-time nearest-neighbour caches (lazynn.go);
	// rowGen/colGen are their generation tags, bumped on every
	// heal-and-repush and on kill so stale heap entries discard O(1) at
	// pop. nnHeap holds at most one fresh entry per list under the total
	// key (d, row, wit, kind, gen). liveList is the dense list of live ids
	// (livePos its inverse, swap-remove on kill): the tiled passes iterate
	// it instead of scanning the whole arena past dead slots.
	nnHeap   []heapEnt
	rowNN    []nnList
	colNN    []nnList
	rowGen   []uint32
	colGen   []uint32
	liveList []int32
	livePos  []int32

	// tc groups the run's records by tuple (tupleClasses, lazynn.go), and
	// cls[id] is the tuple class of cluster id when its closure is that
	// class's tuple — a singleton, or a merge of records of one class — and
	// −1 otherwise.
	tc  tupleClasses
	cls []int32

	// Per-span scratch of the sharded list builds (one pool call in flight
	// at a time): the initial build's cross-span partial class lists and
	// its span bounds (tiledBounds), one row/column partial list per span
	// for newborn passes and rescans, per-span distance-evaluation counts
	// and class-row reads, per-span strip slabs of the initial build
	// (initBlock anchor strips each), per-span price sums and the initial
	// build's per-span distances of both orientations (nnTile each).
	spanInitPart [][]nnList
	spanBounds   []int
	spanRowList  []nnList
	spanColList  []nnList
	spanEvals    []int64
	spanServed   []int64
	spanStrips   [][]float64
	spanSums     [][]float64
	spanDists    [][]float64

	// The anchor of the current newborn pass or rescan, its list kind (a
	// rescan's), its cost strip and a newborn pass's candidates, set on the
	// driving goroutine before the pool call and read-only in the workers.
	// The span functions are bound once per engine, so a pass allocates
	// nothing.
	anchor       int
	anchorKind   uint8
	anchorStrip  []float64
	anchorSums   []float64
	cands        []int32
	repairSpanFn func(lo, hi, sp int)
	rescanSpanFn func(lo, hi, sp int)

	// Scratch reused across merges: the newborn-id list of each merge and
	// the shrink prefix/suffix closure slabs.
	addedScratch []int
	shrinkPre    []int32
	shrinkSuf    []int32

	// cons holds the run's bound privacy constraints (empty when
	// unconstrained). Constraint state is mutated only on the driving
	// goroutine — merge validity checks, shrink eviction gates and absorb
	// admissibility all run between pool calls — so pool workers never see
	// it. guardAbsorb is set when any bound is not addition-safe, arming
	// the constraint-aware absorb path.
	cons        []Bound
	guardAbsorb bool

	// idx is the run's singleton index when its initial lists came from
	// the trie search (buildNNTrie), nil otherwise; it splits the newborn
	// passes (newbornSplit).
	idx *singletonIndex

	distEvals atomic.Int64
	// priced counts the pair sums computed from the fused tables, each
	// reading one cost per tabled attribute (obs.CounterKernelTableHits):
	// those priced against an anchor's cost strip by the pair passes and
	// the trie searches, and the absorb path's. Added to by pool spans.
	priced atomic.Int64
	stats  AggloStats

	// The run's tallies behind its obs counters (report). Only initScans
	// is added to by pool spans.
	initScans                    atomic.Int64
	initScanEvals, initBoundSums int64
	mergeScans, mergeScanEvals   int64
	mergeBoundSums               int64
	absorbed, livePeak           int64
	// classSums counts the pair sums served from a tuple class instead of
	// priced (obs.CounterKernelClassSums). Driving goroutine only.
	classSums int64

	final []*Cluster
}

// NewEngine returns an engine for Algorithms 1 and 2 over s with the
// options opt, made for tables of up to records records: its state is
// first sized for them, and its neighbour caches are nnDepth(records)
// deep. Nothing is allocated until the first Run.
func NewEngine(s *Space, opt AggloOptions, records int) *Engine {
	return &Engine{s: s, opt: opt, records: records, depth: nnDepth(records)}
}

// Run clusters tbl as AgglomerateStatsCtx does, on the engine's state.
func (e *Engine) Run(ctx context.Context, tbl *table.Table) ([]*Cluster, AggloStats, error) {
	opt := e.opt
	n := tbl.Len()
	if opt.Distance == nil {
		return nil, AggloStats{}, fmt.Errorf("cluster: nil distance")
	}
	if opt.K > n {
		return nil, AggloStats{}, fmt.Errorf("cluster: k=%d exceeds table size n=%d", opt.K, n)
	}
	active := opt.Constraints[:0:0]
	for _, c := range opt.Constraints {
		if c != nil && !c.Trivial() {
			active = append(active, c)
		}
	}
	var bound []Bound
	if len(active) > 0 {
		if len(opt.Sensitive) != n {
			return nil, AggloStats{}, fmt.Errorf("cluster: %d sensitive values for %d records", len(opt.Sensitive), n)
		}
		bound = make([]Bound, len(active))
		for i, c := range active {
			b, err := c.Bind(opt.Sensitive)
			if err != nil {
				return nil, AggloStats{}, err
			}
			bound[i] = b
		}
	}
	if n == 0 {
		return nil, AggloStats{}, nil
	}
	if opt.K <= 1 && len(bound) == 0 {
		// Every singleton already satisfies the size constraint; the optimal
		// clustering is the identity.
		out := make([]*Cluster, n)
		for i := 0; i < n; i++ {
			out[i] = e.s.NewSingleton(tbl, i)
		}
		return out, AggloStats{}, nil
	}

	if par.Done(ctx) {
		return nil, AggloStats{}, ctx.Err()
	}
	e.tbl, e.ctx, e.o, e.cons, e.guardAbsorb = tbl, ctx, obs.From(ctx), bound, false
	for _, b := range bound {
		if !b.AdditionSafe() {
			e.guardAbsorb = true
		}
	}
	err := e.run()
	final := e.final
	// The output is the caller's; nothing else of the run stays reachable.
	e.tbl, e.ctx, e.o, e.cons, e.final, e.idx = nil, nil, nil, nil, nil, nil
	if err != nil {
		return nil, e.stats, err
	}
	return final, e.stats, nil
}

// Close releases the engine's worker pool and reports the pool's
// scheduler gauges, summed over every run, to o. An engine that never ran
// reports nothing.
func (e *Engine) Close(o *obs.Run) {
	if e.pool == nil {
		return
	}
	if o.Enabled() {
		ps := e.pool.Stats()
		o.Sched("pool.size", int64(e.pool.Size()))
		o.Sched("pool.spans", ps.Spans)
		o.Sched("pool.helper_tasks", ps.HelperTasks)
		o.Sched("pool.inline_tasks", ps.InlineTasks)
	}
	e.pool.Close()
	e.pool = nil
}

// cancelled reports whether the engine's context is done.
func (e *Engine) cancelled() bool {
	return par.Done(e.ctx)
}

// prepare readies the engine's state for a run over n records. The first
// run makes the pool, the kernel and the span scratch; every run empties
// the per-cluster arrays, growing them only past what earlier runs needed.
// They start with room for 2n ids, n singletons plus at most n−1 merged
// clusters; Algorithm 2's re-seeded singletons take ids past that, and the
// arrays keep what they grew to.
func (e *Engine) prepare(n int) {
	if e.pool == nil {
		e.pool = par.New(e.opt.Workers)
		e.kern = newKernel(e.s, e.opt.Distance)
		w := e.pool.Size()
		e.spanEvals = make([]int64, w)
		e.spanServed = make([]int64, w)
		e.spanInitPart = make([][]nnList, w)
		e.spanBounds = make([]int, w+1)
		e.spanRowList = make([]nnList, w)
		e.spanColList = make([]nnList, w)
		sl := e.kern.stripLen()
		e.spanStrips = make([][]float64, w)
		e.spanSums = make([][]float64, w)
		e.spanDists = make([][]float64, w)
		for sp := range w {
			e.spanStrips[sp] = make([]float64, initBlock*sl)
			e.spanSums[sp] = make([]float64, nnTile)
			e.spanDists[sp] = make([]float64, 2*nnTile)
		}
		e.anchorStrip = make([]float64, sl)
		e.repairSpanFn = e.repairSpan
		e.rescanSpanFn = e.rescanSpan
	}
	m := max(n, e.records)
	e.alive = slices.Grow(e.alive[:0], 2*m)
	e.rowNN = slices.Grow(e.rowNN[:0], 2*m)
	e.colNN = slices.Grow(e.colNN[:0], 2*m)
	e.rowGen = slices.Grow(e.rowGen[:0], 2*m)
	e.colGen = slices.Grow(e.colGen[:0], 2*m)
	e.livePos = slices.Grow(e.livePos[:0], 2*m)
	e.cls = slices.Grow(e.cls[:0], 2*m)
	e.liveList = slices.Grow(e.liveList[:0], m)
	e.nnHeap = slices.Grow(e.nnHeap[:0], 2*m)
	e.mHead = slices.Grow(e.mHead[:0], 2*m)
	e.mTail = slices.Grow(e.mTail[:0], 2*m)
	e.mNext = slices.Grow(e.mNext[:0], m)[:n]
	e.kern.reset(2*m, m)
	e.nLive = 0
	e.distEvals.Store(0)
	e.priced.Store(0)
	e.stats = AggloStats{}
	e.initScans.Store(0)
	e.initScanEvals, e.initBoundSums = 0, 0
	e.mergeScans, e.mergeScanEvals, e.mergeBoundSums = 0, 0, 0
	e.absorbed, e.livePeak = 0, 0
	e.classSums = 0
	e.idx = nil
	e.tc.classify(e.tbl, m)
	// Final clusters hold ≥ max(K, 1) records each.
	e.final = make([]*Cluster, 0, n/max(e.opt.K, 1))
}

func (e *Engine) run() error {
	n := e.tbl.Len()
	e.prepare(n)
	defer e.report()

	endInit := e.o.Phase(PhaseInit)
	for i := 0; i < n; i++ {
		e.pushSingleton(i)
	}
	// Initial nearest-neighbour build (buildNN: trie search or tiled);
	// it seeds the selection heap. Every record is a cancellation
	// checkpoint, bounding the engine's reaction latency to one block per
	// worker.
	err := e.buildNN(n)
	endInit()
	if err != nil {
		return err
	}

	endMerge := e.o.Phase(PhaseMerge)
	e.livePeak = int64(e.nLive)
	for e.nLive > 1 {
		if e.cancelled() {
			endMerge()
			return e.ctx.Err()
		}
		a, b := e.selectPairHeap()
		if e.cancelled() {
			endMerge()
			return e.ctx.Err()
		}
		if a < 0 {
			break // defensive: cannot happen with nLive > 1
		}
		added := e.merge(a, b, e.addedScratch[:0])
		e.addedScratch = added[:0]
		e.repairHeap(added)
		e.stats.Merges++
		e.livePeak = max(e.livePeak, int64(e.nLive))
	}
	endMerge()

	// At most one undersized cluster remains; distribute its records to the
	// nearest final clusters (Algorithm 1, line 10).
	endAbsorb := e.o.Phase(PhaseAbsorb)
	for i, ok := range e.alive {
		if !ok {
			continue
		}
		for ri := e.mHead[i]; ri >= 0; ri = e.mNext[ri] {
			if e.cancelled() {
				endAbsorb()
				return e.ctx.Err()
			}
			e.absorb(int(ri))
			e.absorbed++
		}
	}
	endAbsorb()
	if e.cancelled() {
		return e.ctx.Err()
	}
	return nil
}

// report sets the run's DistEvals and emits its counters and peaks once,
// whichever way the run ended. Every value is worker-invariant: fixed by
// the clustering trajectory, never by the sharding.
func (e *Engine) report() {
	e.stats.DistEvals = e.distEvals.Load()
	if !e.o.Enabled() {
		return
	}
	o := e.o
	if scans := e.initScans.Load(); scans > 0 {
		o.Counter(PhaseInit+".scans", scans)
		o.Counter(PhaseInit+".scan_evals", e.initScanEvals)
	}
	if e.initBoundSums > 0 {
		o.Counter(obs.CounterInitBoundSums, e.initBoundSums)
	}
	if e.mergeScans > 0 {
		o.Counter(PhaseMerge+".scans", e.mergeScans)
		o.Counter(PhaseMerge+".scan_evals", e.mergeScanEvals)
	}
	if e.mergeBoundSums > 0 {
		o.Counter(obs.CounterMergeBoundSums, e.mergeBoundSums)
	}
	if e.livePeak > 0 {
		o.Peak("cluster.live_peak", e.livePeak)
	}
	o.Counter("cluster.dist_evals", e.stats.DistEvals)
	o.Counter("cluster.merges", e.stats.Merges)
	o.Counter("cluster.absorbs", e.absorbed)
	// Lazy-heap work counters (DESIGN.md §17).
	o.Counter(obs.CounterHeapPushes, e.stats.HeapPushes)
	o.Counter(obs.CounterStalePops, e.stats.StalePops)
	o.Counter(obs.CounterDeadNNRescans, e.stats.DeadNNRescans)
	o.Counter(obs.CounterTilesScanned, e.stats.TilesScanned)
	// Every priced pair sum reads one cost per attribute, the tabled ones
	// from a fused table row (through a strip in the pair passes); the
	// priced sums are fixed by the trajectory, not the sharding. Walk-ups
	// are counted where they happen: a fixed number per strip fill, and
	// strips are filled once per anchor.
	k := e.kern
	o.Counter(obs.CounterKernelTableHits, e.priced.Load()*int64(k.tabled))
	o.Counter(obs.CounterKernelFallbackWalks, k.walks.Load())
	o.Counter(obs.CounterKernelArenaReuses, k.reuses)
	o.Counter(obs.CounterKernelClassSums, e.classSums)
}

// push appends a live cluster id with empty neighbour lists and returns
// it; the caller fills its arena row and member chain.
func (e *Engine) push() int {
	id := len(e.alive)
	e.alive = append(e.alive, true)
	e.nLive++
	e.rowNN = append(e.rowNN, nnList{})
	e.colNN = append(e.colNN, nnList{})
	e.rowNN[id].reset(e.depth)
	e.colNN[id].reset(e.depth)
	e.rowGen = append(e.rowGen, 0)
	e.colGen = append(e.colGen, 0)
	e.cls = append(e.cls, -1)
	e.livePos = append(e.livePos, int32(len(e.liveList)))
	e.liveList = append(e.liveList, int32(id))
	return id
}

func (e *Engine) kill(id int) {
	if !e.alive[id] {
		return
	}
	e.alive[id] = false
	e.nLive--
	// The gen bumps stale both of id's heap entries in O(1); the dense
	// live list drops it by swap-remove (order is irrelevant — every fold
	// over the list uses explicit lexicographic comparisons).
	e.rowGen[id]++
	e.colGen[id]++
	p := e.livePos[id]
	last := int32(len(e.liveList) - 1)
	moved := e.liveList[last]
	e.liveList[p] = moved
	e.livePos[moved] = p
	e.liveList = e.liveList[:last]
	e.livePos[id] = -1
	if e.idx != nil {
		e.idx.died(int32(id), int(e.mHead[id]))
	}
	e.kern.kill(id)
}

// pushSingleton pushes record i as a singleton cluster: its closure row
// (the record's leaves) and cost go straight into the arena with no
// per-cluster heap allocation, and its member chain is the single record.
func (e *Engine) pushSingleton(i int) int {
	id := e.push()
	e.cls[id] = e.tc.of[i]
	e.kern.addSingleton(id, e.tbl.Records[i])
	e.mHead = append(e.mHead, int32(i))
	e.mTail = append(e.mTail, int32(i))
	e.mNext[i] = -1
	if e.idx != nil {
		e.idx.born(int32(id), i)
	}
	return id
}

// merge is one step of Algorithms 1 and 2: it stages the merged closure in
// the kernel's scratch row, concatenates the member chains in O(1), kills
// a and b, and then either finalizes the merged cluster (materializing the
// one *Cluster the output needs, with the Algorithm 2 shrink when enabled)
// or pushes it as a new live id — reusing a freed arena slot. It returns
// the newborn ids appended to added.
func (e *Engine) merge(a, b int, added []int) []int {
	row, cost, size := e.kern.mergeScratch(a, b)
	cls := e.cls[a]
	if cls != e.cls[b] {
		cls = -1
	}
	head, tail := e.mHead[a], e.mTail[b]
	e.mNext[e.mTail[a]] = e.mHead[b]
	e.kill(a)
	e.kill(b)
	if size >= e.opt.K && e.constraintsOK(head) {
		c := e.materialize(row, cost, head, size)
		if e.opt.Modified && size > e.opt.K {
			removed := e.shrink(c)
			for _, ri := range removed {
				added = append(added, e.pushSingleton(ri))
			}
		}
		e.final = append(e.final, c)
	} else {
		id := e.push()
		e.cls[id] = cls
		e.kern.addMerged(id, row, cost, size)
		e.mHead = append(e.mHead, head)
		e.mTail = append(e.mTail, tail)
		if e.idx != nil {
			e.idx.born(int32(id), -1)
		}
		added = append(added, id)
	}
	return added
}

// materialize builds the one heap *Cluster a final cluster needs from a
// staged closure row and a member chain.
func (e *Engine) materialize(row []int32, cost float64, head int32, size int) *Cluster {
	members := make([]int, 0, size)
	for ri := head; ri >= 0; ri = e.mNext[ri] {
		members = append(members, int(ri))
	}
	cl := make(table.GenRecord, e.kern.r)
	for j, node := range row {
		cl[j] = int(node)
	}
	return &Cluster{Closure: cl, Members: members, Cost: cost}
}

// constraintsOK reports whether the cluster with the member chain at head
// satisfies every bound constraint. Each bound accumulates the members in
// order, stopping early once the constraint is Decided (monotone
// constraints only). Driving goroutine only.
func (e *Engine) constraintsOK(head int32) bool {
	for _, b := range e.cons {
		b.Reset()
		sat := false
		for ri := head; ri >= 0; ri = e.mNext[ri] {
			b.Add(int(ri))
			if b.Decided() {
				sat = true
				break
			}
		}
		if !sat && !b.Satisfied() {
			return false
		}
	}
	return true
}

// beginShrink loads the ripe cluster's members into every bound, arming
// the canEvict/commitEvict gates of the Algorithm 2 shrink. The bounds
// then track the shrinking member set incrementally across rounds.
func (e *Engine) beginShrink(members []int) {
	for _, b := range e.cons {
		b.Reset()
		for _, ri := range members {
			b.Add(ri)
		}
	}
}

// canEvict reports whether evicting ri keeps every constraint satisfied.
func (e *Engine) canEvict(ri int) bool {
	for _, b := range e.cons {
		if !b.CanEvict(ri) {
			return false
		}
	}
	return true
}

// commitEvict records ri's eviction in every bound.
func (e *Engine) commitEvict(ri int) {
	for _, b := range e.cons {
		b.Evict(ri)
	}
}

// absorbAllowed reports whether adding record ri to final cluster f keeps
// every non-addition-safe constraint satisfied. Addition-safe constraints
// (distinct ℓ-diversity) need no check — a satisfying cluster stays
// satisfying under any addition.
func (e *Engine) absorbAllowed(f *Cluster, ri int) bool {
	for _, b := range e.cons {
		if b.AdditionSafe() {
			continue
		}
		b.Reset()
		for _, mi := range f.Members {
			b.Add(mi)
		}
		if !b.SatisfiedWithAdd(ri) {
			return false
		}
	}
	return true
}

// shrink implements Algorithm 2: repeatedly evict from the ripe cluster c
// the member R̂_i maximizing dist(Ŝ, Ŝ\{R̂_i}) until |c| = K, ties going
// to the earliest member. Evictions that would violate a privacy
// constraint are skipped; if none is admissible the cluster is left larger
// than K, which remains valid. c is mutated in place and the evicted
// record indices returned.
//
// Each round precomputes prefix and suffix closures over the member list
// into two reusable scratch slabs (closure is a semilattice join, so
// prefix[i] ∨ suffix[i+1] is exactly the closure of the rest set), making
// a round O(|c|·r) with zero allocations. The Bound accumulators are
// loaded once and updated incrementally across rounds.
func (e *Engine) shrink(c *Cluster) []int {
	k := e.kern
	r := k.r
	var removed []int
	e.beginShrink(c.Members)
	// Constrained runs admit K ≤ 1 (the constraint carries the privacy
	// guarantee); a cluster still needs one member, so the shrink target is
	// floored at a singleton.
	for len(c.Members) > max(e.opt.K, 1) {
		m := len(c.Members)
		need := (m + 1) * r
		if cap(e.shrinkPre) < need {
			e.shrinkPre = make([]int32, need)
			e.shrinkSuf = make([]int32, need)
		}
		pre := e.shrinkPre[:need]
		suf := e.shrinkSuf[:need]
		// pre[i·r..] is the closure of members[0..i) (defined for i ≥ 1),
		// suf[i·r..] the closure of members[i..m) (defined for i ≤ m−1);
		// the join has no identity element, so the boundaries are explicit.
		rec := e.tbl.Records[c.Members[0]]
		for j := 0; j < r; j++ {
			pre[r+j] = int32(rec[j])
		}
		for i := 2; i <= m; i++ {
			rec := e.tbl.Records[c.Members[i-1]]
			prev, cur := pre[(i-1)*r:i*r], pre[i*r:(i+1)*r]
			for j := 0; j < r; j++ {
				cur[j] = int32(k.lcaNode(j, int(prev[j]), rec[j]))
			}
		}
		rec = e.tbl.Records[c.Members[m-1]]
		for j := 0; j < r; j++ {
			suf[(m-1)*r+j] = int32(rec[j])
		}
		for i := m - 2; i >= 0; i-- {
			rec := e.tbl.Records[c.Members[i]]
			next, cur := suf[(i+1)*r:(i+2)*r], suf[i*r:(i+1)*r]
			for j := 0; j < r; j++ {
				cur[j] = int32(k.lcaNode(j, rec[j], int(next[j])))
			}
		}

		bestIdx, bestD := -1, math.Inf(-1)
		evals := int64(0)
		for mi := 0; mi < m; mi++ {
			if len(e.cons) > 0 && !e.canEvict(c.Members[mi]) {
				continue
			}
			sum := 0.0
			switch {
			case mi == 0:
				for j := 0; j < r; j++ {
					sum += k.costAt(j, int(suf[r+j]))
				}
			case mi == m-1:
				for j := 0; j < r; j++ {
					sum += k.costAt(j, int(pre[(m-1)*r+j]))
				}
			default:
				for j := 0; j < r; j++ {
					sum += k.lcaCost(j, int(pre[mi*r+j]), int(suf[(mi+1)*r+j]))
				}
			}
			restCost := sum / float64(r)
			// dist(Ŝ, Ŝ\{R̂_i}): the union of the two sets is Ŝ itself.
			d := k.eval(m, m-1, m, c.Cost, restCost, c.Cost)
			evals++
			if d > bestD {
				bestIdx, bestD = mi, d
			}
		}
		e.distEvals.Add(evals)
		if bestIdx < 0 {
			break // every eviction would break a constraint
		}
		evicted := c.Members[bestIdx]
		removed = append(removed, evicted)
		e.commitEvict(evicted)
		// Commit the winning rest set: its closure replaces c's, its cost
		// is the same ascending-attribute sum s.Cost computes.
		switch {
		case bestIdx == 0:
			for j := 0; j < r; j++ {
				c.Closure[j] = int(suf[r+j])
			}
		case bestIdx == m-1:
			for j := 0; j < r; j++ {
				c.Closure[j] = int(pre[(m-1)*r+j])
			}
		default:
			for j := 0; j < r; j++ {
				c.Closure[j] = k.lcaNode(j, int(pre[bestIdx*r+j]), int(suf[(bestIdx+1)*r+j]))
			}
		}
		sum := 0.0
		for j := 0; j < r; j++ {
			sum += k.costAt(j, c.Closure[j])
		}
		c.Cost = sum / float64(r)
		c.Members = append(c.Members[:bestIdx], c.Members[bestIdx+1:]...)
	}
	return removed
}

// absorb adds record ri to the final cluster minimizing dist({R_ri}, S),
// updating that cluster's closure and cost; the candidate sweep runs
// through the fused tables and the devirtualized eval, with no singleton
// construction. Absorption order matters (each absorption widens a final
// closure), so this stays sequential. Under a non-addition-safe
// constraint the nearest cluster that stays satisfying wins instead; if
// none does, the unconstrained nearest takes the record — absorption is
// best-effort (ConstraintReport on the facade audits the final release).
func (e *Engine) absorb(ri int) {
	k := e.kern
	r := k.r
	rec := e.tbl.Records[ri]
	sum := 0.0
	for j := 0; j < r; j++ {
		sum += k.costAt(j, rec[j])
	}
	sCost := sum / float64(r)
	bestIdx, bestD := -1, math.Inf(1)
	okIdx, okD := -1, math.Inf(1)
	for fi, f := range e.final {
		sum := 0.0
		for j := 0; j < r; j++ {
			sum += k.lcaCost(j, rec[j], f.Closure[j])
		}
		dU := sum / float64(r)
		d := k.eval(1, f.Size(), 1+f.Size(), sCost, f.Cost, dU)
		if d < bestD {
			bestIdx, bestD = fi, d
		}
		if e.guardAbsorb && d < okD && e.absorbAllowed(f, ri) {
			okIdx, okD = fi, d
		}
	}
	e.distEvals.Add(int64(len(e.final)))
	e.priced.Add(int64(len(e.final)))
	if okIdx >= 0 {
		bestIdx = okIdx
	}
	if bestIdx < 0 {
		// No final cluster exists (excluded by the k ≤ n guard, but stay
		// safe): promote the singleton.
		cl := make(table.GenRecord, r)
		copy(cl, rec)
		e.final = append(e.final, &Cluster{Closure: cl, Members: []int{ri}, Cost: sCost})
		return
	}
	f := e.final[bestIdx]
	f.Members = append(f.Members, ri)
	for j := 0; j < r; j++ {
		f.Closure[j] = k.lcaNode(j, f.Closure[j], rec[j])
	}
	sum = 0.0
	for j := 0; j < r; j++ {
		sum += k.costAt(j, f.Closure[j])
	}
	f.Cost = sum / float64(r)
}
