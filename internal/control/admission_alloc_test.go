package control

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/stream"
)

// Admission maps into buffers it owns, so on a warm shard an accepted
// guaranteed admit allocates only the stream it retains, a rejection
// only its BestSpec, and a release nothing.
func TestAllocBudgetAdmission(t *testing.T) {
	skipIfRace(t)
	adm := warmShard(t)

	names := make([]string, 51)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
		if d := adm.Admit(probSpec(names[i], 0.1, 0.9)); !d.Admitted {
			t.Fatalf("%s rejected: %s", names[i], d.Reason)
		}
	}
	next := 0
	release := testing.AllocsPerRun(50, func() {
		if !adm.Release(names[next]) {
			t.Fatalf("release %s: not admitted", names[next])
		}
		next++
	})
	if release != 0 {
		t.Errorf("Release allocates %v per call, want 0", release)
	}

	cand := probSpec("cand", 2, 0.9)
	cycle := testing.AllocsPerRun(100, func() {
		if d := adm.Admit(cand); !d.Admitted {
			t.Fatalf("candidate rejected: %s", d.Reason)
		}
		adm.Release(cand.Name)
	})
	if cycle > 1 {
		t.Errorf("accepted Admit + Release allocates %v per cycle, want ≤ 1 (the retained stream)", cycle)
	}

	// Feasible only at a lowered rate and a lowered probability, so the
	// rejection runs both binary searches and carries a BestSpec.
	big := probSpec("big", 400, 0.99)
	var last Decision
	reject := testing.AllocsPerRun(20, func() { last = adm.Admit(big) })
	if last.Admitted || last.BestSpec == nil || last.BestProbability <= 0 {
		t.Fatalf("want a rejection with a best spec and probability, got %+v", last)
	}
	if reject > 1 {
		t.Errorf("rejected Admit allocates %v per call, want ≤ 1 (BestSpec)", reject)
	}
}

// CommittedLoad hands back a vector of the caller's own: admits and
// releases on other goroutines never write it. Run with -race.
func TestCommittedLoadIsACopy(t *testing.T) {
	adm := warmShard(t)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("g%d-%d", g, i%5)
				if i%2 == 0 {
					adm.Admit(probSpec(name, 0.5+float64(i%7), 0.9))
				} else {
					adm.Release(name)
				}
			}
		}(g)
	}
	for i := 0; i < 100; i++ {
		load := adm.CommittedLoad()
		want := slices.Clone(load)
		adm.Admit(probSpec("mine", 3, 0.95))
		adm.Release("mine")
		adm.CommittedLoad()
		if !slices.Equal(load, want) {
			t.Fatalf("CommittedLoad result changed after later calls: %v, was %v", load, want)
		}
	}
	wg.Wait()
}

// A probabilistic spec with a window constraint and no rate, which fits
// no single path and finds no headroom to split over, is rejected rather
// than crashing the mapping.
func TestAdmitRejectsRatelessSpecWithoutHeadroom(t *testing.T) {
	adm := NewAdmission(AdmissionOptions{}, []*monitor.PathMonitor{warmMon("A", 10)})
	adm.SetRemoteCommitted([]float64{20})
	spec := stream.Spec{Name: "wc", Kind: stream.Probabilistic, Probability: 0.95, WindowX: 1000}
	d := adm.Admit(spec)
	if d.Admitted || d.Reason == "" {
		t.Fatalf("want a rejection, got %+v", d)
	}
}
