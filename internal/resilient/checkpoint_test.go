package resilient

import (
	"encoding/json"
	"testing"
)

func TestSignature(t *testing.T) {
	base := Signature("k=5|dist=d3", []int{0, 1, 2})
	if base == 0 {
		t.Fatal("zero signature")
	}
	if got := Signature("k=5|dist=d3", []int{0, 1, 2}); got != base {
		t.Error("signature not deterministic")
	}
	if got := Signature("k=6|dist=d3", []int{0, 1, 2}); got == base {
		t.Error("parameter change not reflected")
	}
	if got := Signature("k=5|dist=d3", []int{0, 1, 3}); got == base {
		t.Error("record change not reflected")
	}
	if got := Signature("k=5|dist=d3", []int{0, 2, 1}); got == base {
		t.Error("record order not reflected")
	}
}

func TestLoadLog(t *testing.T) {
	line := func(ck ShardCheckpoint) string { return string(mustJSON(t, ck)) }
	a := ShardCheckpoint{Shard: 0, Sig: 7, Clusters: [][]int{{0, 1}, {2, 3}}}
	b := ShardCheckpoint{Shard: 1, Sig: 8, Clusters: [][]int{{4, 5}}}
	a2 := ShardCheckpoint{Shard: 0, Sig: 9, Clusters: [][]int{{0, 1, 2, 3}}}

	t.Run("later-line-wins", func(t *testing.T) {
		log := line(a) + "\n" + line(b) + "\n" + line(a2) + "\n"
		got, valid, err := ParseLog([]byte(log))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0].Sig != 9 || got[1].Sig != 8 {
			t.Fatalf("loaded %+v", got)
		}
		if valid != int64(len(log)) {
			t.Errorf("valid prefix %d, want the whole log (%d)", valid, len(log))
		}
	})
	t.Run("torn-tail-dropped", func(t *testing.T) {
		full := line(a) + "\n" + line(b)
		torn := full[:len(full)-4] // cut mid-object, no trailing newline
		got, valid, err := ParseLog([]byte(torn))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Sig != 7 {
			t.Fatalf("loaded %+v, want only shard 0", got)
		}
		if want := int64(len(line(a)) + 1); valid != want {
			t.Errorf("valid prefix %d, want %d (up to the torn line)", valid, want)
		}
	})
	t.Run("torn-middle-errors", func(t *testing.T) {
		log := line(a) + "\n{garbage\n" + line(b) + "\n"
		if _, valid, err := ParseLog([]byte(log)); err == nil || valid != 0 {
			t.Fatalf("corruption before valid data: valid=%d err=%v, want 0 and an error", valid, err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		got, valid, err := ParseLog(nil)
		if err != nil || len(got) != 0 || valid != 0 {
			t.Fatalf("got %v, %d, %v", got, valid, err)
		}
	})
	t.Run("blank-lines-skipped", func(t *testing.T) {
		log := "\n" + line(a) + "\n\n"
		got, valid, err := ParseLog([]byte(log))
		if err != nil || len(got) != 1 || valid != int64(len(log)) {
			t.Fatalf("got %v, %d, %v", got, valid, err)
		}
	})
}

func mustJSON(t *testing.T, ck ShardCheckpoint) []byte {
	t.Helper()
	b, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
