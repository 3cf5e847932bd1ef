package loss

import (
	"testing"

	"kanon/internal/datagen"
	"kanon/internal/table"
)

func BenchmarkNewEntropy(b *testing.B) {
	ds := datagen.Adult(5000, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewEntropy(ds.Table, ds.Hiers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableLoss(b *testing.B) {
	ds := datagen.Adult(2000, 1)
	em, err := NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		b.Fatal(err)
	}
	g := table.NewGen(ds.Table.Schema, ds.Table.Len())
	for i, r := range ds.Table.Records {
		for j, v := range r {
			g.Records[i][j] = ds.Hiers[j].LeafOf(v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TableLoss(em, g)
	}
}

func BenchmarkDiscernibility(b *testing.B) {
	ds := datagen.CMC(1473, 1)
	g := table.NewGen(ds.Table.Schema, ds.Table.Len())
	for i, r := range ds.Table.Records {
		for j, v := range r {
			g.Records[i][j] = ds.Hiers[j].Parent(ds.Hiers[j].LeafOf(v))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Discernibility(g)
	}
}
