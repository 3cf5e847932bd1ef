package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"kanon/internal/datagen"
	"kanon/internal/loss"
	"kanon/internal/obs"
)

func benchSpace(b *testing.B, n int) (*Space, *datagen.Dataset) {
	b.Helper()
	ds := datagen.Adult(n, 1)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSpace(ds.Hiers, em)
	if err != nil {
		b.Fatal(err)
	}
	return s, ds
}

func BenchmarkAgglomerate500(b *testing.B) {
	s, ds := benchSpace(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := AgglomerateStatsCtx(nil, s, ds.Table, AggloOptions{K: 10, Distance: D3{}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAgglomerate2000(b *testing.B) {
	s, ds := benchSpace(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := AgglomerateStatsCtx(nil, s, ds.Table, AggloOptions{K: 10, Distance: D3{}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAgglomerateModified500(b *testing.B) {
	s, ds := benchSpace(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := AgglomerateStatsCtx(nil, s, ds.Table, AggloOptions{K: 10, Distance: D3{}, Modified: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAgglomerateWorkers compares the sequential engine against the
// parallel one at NumCPU workers across table sizes (the BENCH_cluster.json
// numbers). On a single-CPU machine both run the same sequential schedule,
// so parity — not speedup — is the expected reading there.
func BenchmarkAgglomerateWorkers(b *testing.B) {
	for _, n := range []int{1000, 2000, 5000, 10000} {
		s, ds := benchSpace(b, n)
		workerCounts := []int{1}
		if cpus := runtime.NumCPU(); cpus > 1 {
			workerCounts = append(workerCounts, cpus)
		} else {
			workerCounts = append(workerCounts, 4)
		}
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := AgglomerateStatsCtx(nil, s, ds.Table, AggloOptions{K: 10, Distance: D3{}, Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAgglomerateLarge is the scaling sweep of the lazy NN-heap path
// (DESIGN.md §17): n=20000..100000 single-node, with the engine's obs
// phases PhaseInit and PhaseMerge reported as init_ns and merge_ns (the
// last iteration's). Deliberately excluded from CI's bench-smoke regex —
// one n=100000 iteration is minutes, these rows are refreshed manually
// into BENCH_cluster.json.
func BenchmarkAgglomerateLarge(b *testing.B) {
	for _, n := range []int{20000, 50000, 100000} {
		b.Run(fmt.Sprintf("n=%d/workers=1", n), func(b *testing.B) {
			s, ds := benchSpace(b, n)
			b.ResetTimer()
			var st AggloStats
			var run obs.RunStats
			for i := 0; i < b.N; i++ {
				met := obs.NewMetrics()
				var err error
				_, st, err = AgglomerateStatsCtx(obs.With(context.Background(), met), s, ds.Table, AggloOptions{K: 10, Distance: D3{}, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				run = met.Snapshot()
			}
			b.ReportMetric(float64(run.Phase(PhaseInit).WallNanos), "init_ns")
			b.ReportMetric(float64(run.Phase(PhaseMerge).WallNanos), "merge_ns")
			b.ReportMetric(float64(st.StalePops), "stale_pops")
		})
	}
}

// BenchmarkNNInit times the two initial neighbour builds alone on ADT
// (entropy, d3, one worker): the trie search (buildNNTrie) and the tiled
// all-pairs build (buildNNTiled), each called directly whatever the
// crossover picks. The state before the build (singletons pushed) is set
// up outside the timer.
func BenchmarkNNInit(b *testing.B) {
	for _, n := range []int{5000, 10000} {
		s, ds := benchSpace(b, n)
		for _, path := range []string{"trie", "tiled"} {
			b.Run(fmt.Sprintf("%s/n=%d", path, n), func(b *testing.B) {
				e := NewEngine(s, AggloOptions{K: 10, Distance: D3{}, Workers: 1}, n)
				defer e.Close(nil)
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					e.tbl = ds.Table
					e.prepare(n)
					for r := 0; r < n; r++ {
						e.pushSingleton(r)
					}
					cmax, _ := e.kern.trieBound(n)
					b.StartTimer()
					var err error
					if path == "trie" {
						err = e.buildNNTrie(n, cmax)
					} else {
						err = e.buildNNTiled(n)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDistKernel is the inner-loop microbenchmark: one dist(A, B)
// evaluation through the flat kernel (one candidate priced against A's
// loaded cost strip, then evaluated and offered to a neighbour list by the
// pair passes' offer helper; the strip load is per pass, not per pair, and
// stays outside the loop) versus the naive
// evaluation (LCA pointer walks over heap GenRecords plus interface
// dispatch). The reference leg is cmd/benchgate's denominator: a pure,
// machine-speed measure of the LCA walk, immune to engine changes.
func BenchmarkDistKernel(b *testing.B) {
	s, ds := benchSpace(b, 200)
	ca := s.NewCluster(ds.Table, []int{0, 1, 2, 3, 4, 5, 6, 7})
	cb := s.NewCluster(ds.Table, []int{100, 101, 102, 103})
	d := Distance(D3{})
	r := s.NumAttrs()

	k := newKernel(s, d)
	k.reserve(2, 200)
	row := make([]int32, r)
	for j, node := range ca.Closure {
		row[j] = int32(node)
	}
	k.addMerged(0, row, ca.Cost, ca.Size())
	for j, node := range cb.Closure {
		row[j] = int32(node)
	}
	k.addMerged(1, row, cb.Cost, cb.Size())

	strip := make([]float64, k.stripLen())
	k.loadStrip(strip, 0)
	cands, sums := []int32{1}, make([]float64, 1)
	var l nnList
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.reset(nnListCap)
			k.price(strip, cands, sums)
			k.offerRescan(0, cands, sums, &l, false)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sum := 0.0
			for j := 0; j < r; j++ {
				node := s.Hiers[j].LCA(ca.Closure[j], cb.Closure[j])
				sum += s.CostAt(j, node)
			}
			dU := sum / float64(r)
			_ = d.Eval(ca.Size(), cb.Size(), ca.Size()+cb.Size(), ca.Cost, cb.Cost, dU)
		}
	})
}

func BenchmarkClusterMerge(b *testing.B) {
	s, ds := benchSpace(b, 100)
	rng := rand.New(rand.NewSource(2))
	clusters := make([]*Cluster, 64)
	for i := range clusters {
		clusters[i] = s.NewCluster(ds.Table, []int{rng.Intn(100), rng.Intn(100)})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Merge(clusters[i&63], clusters[(i+7)&63])
	}
}

func BenchmarkSpaceCost(b *testing.B) {
	s, ds := benchSpace(b, 100)
	cl := s.ClosureOf(ds.Table, []int{0, 1, 2, 3, 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Cost(cl)
	}
}

func BenchmarkConsistent(b *testing.B) {
	s, ds := benchSpace(b, 100)
	cl := s.ClosureOf(ds.Table, []int{0, 1, 2, 3, 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Consistent(ds.Table.Records[i%100], cl)
	}
}
