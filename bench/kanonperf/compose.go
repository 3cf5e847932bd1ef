package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"kanon"
	"kanon/internal/anonymity"
	"kanon/internal/cluster"
	"kanon/internal/core"
	"kanon/internal/dataio"
	"kanon/internal/hierarchy"
	"kanon/internal/loss"
	"kanon/internal/obs"
	"kanon/internal/risk"
	"kanon/internal/table"
)

// span is one traced interval. Parent indexes the tracer's span list (-1
// for a root); Release groups the spans of one release or audit.
type span struct {
	Name    string `json:"name"`
	Release int    `json:"release"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps spans in memory. The benchmark opens a span around every
// layer call it makes; as an obs.Recorder it also turns the phases the
// engines report (cluster.init, cluster.merge, ...) into child spans.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	release int
	spans   []span
	// stack holds the open spans; -1 marks an engine phase named like the
	// benchmark span around it, which is folded into that span.
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root starts a new release (or audit) and opens its root span.
func (tr *tracer) root(name string) (id int, end func()) {
	tr.mu.Lock()
	tr.release++
	id = len(tr.spans)
	tr.mu.Unlock()
	return id, tr.begin(name)
}

func (tr *tracer) begin(name string) func() {
	tr.open(name)
	return tr.close
}

func (tr *tracer) do(name string, fn func() error) error {
	defer tr.begin(name)()
	return fn()
}

func (tr *tracer) open(name string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	parent := -1
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
		if parent >= 0 && tr.spans[parent].Name == name {
			tr.stack = append(tr.stack, -1)
			return
		}
	}
	tr.stack = append(tr.stack, len(tr.spans))
	tr.spans = append(tr.spans, span{Name: name, Release: tr.release, Parent: parent, StartNs: time.Since(tr.epoch).Nanoseconds()})
}

func (tr *tracer) close() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := len(tr.stack)
	id := tr.stack[n-1]
	tr.stack = tr.stack[:n-1]
	if id < 0 {
		return
	}
	s := &tr.spans[id]
	s.EndNs = time.Since(tr.epoch).Nanoseconds()
	s.SelfNs += s.EndNs - s.StartNs
	if s.Parent >= 0 {
		tr.spans[s.Parent].SelfNs -= s.EndNs - s.StartNs
	}
}

// Record implements obs.Recorder.
func (tr *tracer) Record(e obs.Event) {
	switch e.Kind {
	case obs.KindPhaseStart:
		tr.open(e.Phase)
	case obs.KindPhaseEnd:
		tr.close()
	}
}

// tree is the spans of one root: per-name total and self seconds, and the
// share of the root that its direct children cover.
type tree struct {
	wall     float64
	total    map[string]float64
	self     map[string]float64
	coverage float64
}

func (tr *tracer) tree(rootID int) tree {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	root := tr.spans[rootID]
	t := tree{wall: root.seconds(), total: map[string]float64{}, self: map[string]float64{}}
	covered := 0.0
	for id := rootID + 1; id < len(tr.spans) && tr.spans[id].Release == root.Release; id++ {
		s := tr.spans[id]
		t.total[s.Name] += s.seconds()
		t.self[s.Name] += float64(s.SelfNs) / 1e9
		if s.Parent == rootID {
			covered += s.seconds()
		}
	}
	t.coverage = covered / t.wall
	return t
}

// composed is one release made layer by layer.
type composed struct {
	out   []byte
	loss  float64
	dm    int
	s     *cluster.Space
	tbl   *table.Table
	g     *table.GenTable
	stats obs.RunStats
}

// compose makes the release kanon.AnonymizeContext and Result.WriteCSV make,
// calling each layer's public function directly under its own span.
func compose(ctx context.Context, tr *tracer, w workload, in inputs) (c composed, rootID int, err error) {
	rootID, end := tr.root("release")
	defer end()
	var hiers []*hierarchy.Hierarchy
	var m loss.Measure
	opt := w.opt
	steps := []struct {
		name string
		fn   func() error
	}{
		{"dataio.read", func() (err error) {
			c.tbl, err = dataio.ReadCSVOptions(bytes.NewReader(in.csv), dataio.ReadOptions{Header: true})
			return err
		}},
		{"dataio.hier", func() (err error) {
			hiers, err = dataio.LoadHierarchies(bytes.NewReader(in.hier), c.tbl.Schema)
			return err
		}},
		{"loss.measure", func() (err error) {
			m, err = loss.NewEntropy(c.tbl, hiers)
			return err
		}},
		{"cluster.space", func() (err error) {
			c.s, err = cluster.NewSpace(hiers, m)
			return err
		}},
	}
	for _, st := range steps {
		if err := tr.do(st.name, st.fn); err != nil {
			return c, rootID, fmt.Errorf("%s: %w", st.name, err)
		}
	}

	met := obs.NewMetrics()
	ectx := obs.With(ctx, obs.Tee(met, tr))
	switch {
	case opt.Notion == kanon.NotionK && opt.MaxChunk > 0:
		err = tr.do("core.partition", func() (err error) {
			c.g, _, _, err = core.KAnonymizePartitionedReportCtx(ectx, c.s, c.tbl, core.PartitionedOptions{
				K: opt.K, Distance: cluster.DistanceByName(opt.Distance), MaxChunk: opt.MaxChunk, Workers: opt.Workers,
			})
			return err
		})
	case opt.Notion == kanon.NotionK:
		err = tr.do("cluster.engine", func() error {
			cs, _, err := cluster.AgglomerateStatsCtx(ectx, c.s, c.tbl, cluster.AggloOptions{
				K: opt.K, Distance: cluster.DistanceByName(opt.Distance), Workers: opt.Workers,
			})
			if err == nil {
				c.g = cluster.ToGenTable(c.tbl.Schema, c.tbl.Len(), cs)
			}
			return err
		})
	default:
		err = tr.do("core.k1", func() (err error) {
			c.g, err = core.K1ExpandCtx(ectx, c.s, c.tbl, opt.K, opt.Workers)
			return err
		})
		if err == nil {
			err = tr.do("core.make1k", func() (err error) {
				c.g, err = core.Make1KCtx(ectx, c.s, c.tbl, c.g, opt.K)
				return err
			})
		}
		if err == nil && opt.Notion == kanon.NotionGlobal1K {
			err = tr.do("core.global", func() (err error) {
				c.g, _, err = core.MakeGlobal1KCtx(ectx, c.s, c.tbl, c.g, opt.K)
				return err
			})
		}
	}
	if err != nil {
		return c, rootID, fmt.Errorf("anonymizing: %w", err)
	}
	c.stats = met.Snapshot()

	var out bytes.Buffer
	if err := tr.do("dataio.write", func() error { return dataio.WriteGenCSV(&out, c.g, hiers) }); err != nil {
		return c, rootID, fmt.Errorf("dataio.write: %w", err)
	}
	c.out = out.Bytes()
	_ = tr.do("loss.table_loss", func() error {
		c.loss = loss.TableLoss(m, c.g)
		c.dm = loss.Discernibility(c.g)
		return nil
	})
	return c, rootID, nil
}

// audit checks the release against the workload's notion under an "audit"
// root span. Audit workloads run the full verifier and the attack suite;
// the others only the checks that stay cheap at their size.
func audit(tr *tracer, w workload, c composed) (rootID int, err error) {
	rootID, end := tr.root("audit")
	defer end()
	k := w.opt.K
	var ok bool
	if w.audit {
		var rep anonymity.Report
		_ = tr.do("anonymity.check", func() error {
			rep = anonymity.Check(c.s, c.tbl, c.g, k)
			return nil
		})
		if err := tr.do("risk.attacks", func() error {
			_, err := risk.EvaluateAttacks(c.s, c.tbl, c.g, k, nil)
			return err
		}); err != nil {
			return rootID, fmt.Errorf("attack evaluation: %w", err)
		}
		switch w.opt.Notion {
		case kanon.NotionK:
			ok = rep.Generalization && rep.KAnonymous
		case kanon.NotionKK:
			ok = rep.Generalization && rep.KK
		case kanon.NotionGlobal1K:
			ok = rep.Generalization && rep.KK && rep.Global1K
		}
	} else {
		_ = tr.do("anonymity.check", func() error {
			ok = anonymity.IsGeneralizationOf(c.s, c.tbl, c.g)
			switch w.opt.Notion {
			case kanon.NotionK:
				ok = ok && anonymity.IsKAnonymous(c.g, k)
			case kanon.NotionKK:
				ok = ok && anonymity.IsKK(c.s, c.tbl, c.g, k)
			case kanon.NotionGlobal1K:
				ok = ok && anonymity.IsKK(c.s, c.tbl, c.g, k) && anonymity.IsGlobal1K(c.s, c.tbl, c.g, k)
			}
			return nil
		})
	}
	if !ok {
		return rootID, fmt.Errorf("release is not a %s-anonymization for k=%d", w.opt.Notion, k)
	}
	return rootID, nil
}
