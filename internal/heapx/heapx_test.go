package heapx

import (
	"math/rand"
	"sort"
	"testing"
)

func intLess(a, b int) bool { return a < b }

func TestPushPopSorted(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h []int
	var ref []int
	for i := 0; i < 2000; i++ {
		x := r.Intn(500)
		Push(&h, x, intLess)
		ref = append(ref, x)
	}
	sort.Ints(ref)
	for i, want := range ref {
		if got := Pop(&h, intLess); got != want {
			t.Fatalf("pop %d = %d, want %d", i, got, want)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not empty: %d", len(h))
	}
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	h := make([]int, 0, 64)
	for i := 0; i < 64; i++ {
		Push(&h, i*7%64, intLess)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		x := Pop(&h, intLess)
		Push(&h, (x+i)%97, intLess)
		i++
	})
	if allocs != 0 {
		t.Fatalf("pop+push allocates %.1f/op, want 0", allocs)
	}
}
