package core

import (
	"testing"

	"kanon/internal/cluster"
	"kanon/internal/datagen"
	"kanon/internal/loss"
	"kanon/internal/table"
)

func benchSpace(b *testing.B, n int) (*cluster.Space, *datagen.Dataset) {
	b.Helper()
	ds := datagen.Adult(n, 1)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		b.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		b.Fatal(err)
	}
	return s, ds
}

// BenchmarkPartitioned20000 is the sharded Algorithm 1 on ADT n=20000,
// k=10, MaxChunk 500, one worker: the k-sharded-adt100k pipeline on a
// fifth of its records, ~70 shards. Its allocs/op (-benchmem) counts what
// the shards allocate besides their output; they all run on one engine
// state.
func BenchmarkPartitioned20000(b *testing.B) {
	s, ds := benchSpace(b, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := KAnonymizePartitionedReportCtx(nil, s, ds.Table, PartitionedOptions{K: 10, MaxChunk: 500, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForest500(b *testing.B) {
	s, ds := benchSpace(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ForestCtx(nil, s, ds.Table, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkK1Nearest500(b *testing.B) {
	s, ds := benchSpace(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := K1NearestCtx(nil, s, ds.Table, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkK1Expand500(b *testing.B) {
	s, ds := benchSpace(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := K1ExpandCtx(nil, s, ds.Table, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkK1Expand2500 is Algorithm 4 on ADT n=2500, k=10, one worker:
// the (k,1) stage of the kk-adt2500 workload of bench/. Its reference,
// BenchmarkK1Expand2500Ref, runs the LCA-walk oracle of ref_test.go on the
// same input, so the in-run ratio is the speedup of the fused cost rows.
func BenchmarkK1Expand2500(b *testing.B) {
	s, ds := benchSpace(b, 2500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := K1ExpandCtx(nil, s, ds.Table, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkK1Expand2500Ref(b *testing.B) {
	s, ds := benchSpace(b, 2500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refK1Expand(nil, s, ds.Table, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkK1ExpandART3000 is Algorithm 4 on ART n=3000, k=5 under the
// entropy measure, one worker: the (k,1) stage of the global-art3k
// workload of bench/. BenchmarkK1ExpandART3000Ref runs the LCA-walk oracle
// of ref_test.go on the same input.
func BenchmarkK1ExpandART3000(b *testing.B) {
	benchK1ExpandART3000(b, func(s *cluster.Space, tbl *table.Table) error {
		_, err := K1ExpandCtx(nil, s, tbl, 5, 1)
		return err
	})
}

func BenchmarkK1ExpandART3000Ref(b *testing.B) {
	benchK1ExpandART3000(b, func(s *cluster.Space, tbl *table.Table) error {
		_, err := refK1Expand(nil, s, tbl, 5)
		return err
	})
}

func benchK1ExpandART3000(b *testing.B, run func(*cluster.Space, *table.Table) error) {
	s, ds := artSpace(b, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(s, ds.Table); err != nil {
			b.Fatal(err)
		}
	}
}

// artSpace is benchSpace over ART (seed 42), the global-art3k input.
func artSpace(b *testing.B, n int) (*cluster.Space, *datagen.Dataset) {
	b.Helper()
	ds := datagen.ART(n, 42)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		b.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		b.Fatal(err)
	}
	return s, ds
}

func BenchmarkMake1K500(b *testing.B) {
	s, ds := benchSpace(b, 500)
	seed, err := K1ExpandCtx(nil, s, ds.Table, 10, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := seed.Clone()
		b.StartTimer()
		if _, err := Make1KCtx(nil, s, ds.Table, g, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMake1KART3000 is Algorithm 5 on the (k,1) release of ART
// n=3000, k=5 under the entropy measure: the (1,k) stage of the
// global-art3k workload of bench/. Its reference, BenchmarkMake1KART3000Ref,
// runs the oracle of ref_test.go, which prices every candidate row by LCA
// walks, on the same input.
func BenchmarkMake1KART3000(b *testing.B) {
	benchMake1KART3000(b, func(s *cluster.Space, tbl *table.Table, g *table.GenTable) error {
		_, err := Make1KCtx(nil, s, tbl, g, 5)
		return err
	})
}

func BenchmarkMake1KART3000Ref(b *testing.B) {
	benchMake1KART3000(b, func(s *cluster.Space, tbl *table.Table, g *table.GenTable) error {
		_, err := refMake1K(nil, s, tbl, g, 5)
		return err
	})
}

func benchMake1KART3000(b *testing.B, run func(*cluster.Space, *table.Table, *table.GenTable) error) {
	s, ds := artSpace(b, 3000)
	seed, err := K1ExpandCtx(nil, s, ds.Table, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := seed.Clone()
		b.StartTimer()
		if err := run(s, ds.Table, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMakeGlobal1K500(b *testing.B) {
	s, ds := benchSpace(b, 500)
	gkk, err := KKAnonymizeCtx(nil, s, ds.Table, 10, K1ByExpansion, nil, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := gkk.Clone()
		b.StartTimer()
		if _, _, err := MakeGlobal1KCtx(nil, s, ds.Table, g, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMakeGlobal1KART3000 is Algorithm 6 on the (k,k) release of ART
// n=3000, k=5 under the entropy measure: the upgrade stage of the
// global-art3k workload of bench/. Its reference,
// BenchmarkMakeGlobal1KART3000Ref, runs the oracle of ref_test.go, which
// recomputes every match after each widening step, on the same input, so
// the in-run ratio is the speedup of the growing consistency graph.
func BenchmarkMakeGlobal1KART3000(b *testing.B) {
	benchGlobal1KART3000(b, func(s *cluster.Space, tbl *table.Table, g *table.GenTable) error {
		_, _, err := MakeGlobal1KCtx(nil, s, tbl, g, 5)
		return err
	})
}

func BenchmarkMakeGlobal1KART3000Ref(b *testing.B) {
	benchGlobal1KART3000(b, func(s *cluster.Space, tbl *table.Table, g *table.GenTable) error {
		_, _, err := refMakeGlobal1K(nil, s, tbl, g, 5)
		return err
	})
}

func benchGlobal1KART3000(b *testing.B, run func(*cluster.Space, *table.Table, *table.GenTable) error) {
	s, ds := artSpace(b, 3000)
	gkk, err := KKAnonymizeCtx(nil, s, ds.Table, 5, K1ByExpansion, nil, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := gkk.Clone()
		b.StartTimer()
		if err := run(s, ds.Table, g); err != nil {
			b.Fatal(err)
		}
	}
}
