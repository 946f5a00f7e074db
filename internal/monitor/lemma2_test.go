package monitor_test

import (
	"math/rand"
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/pgos"
)

// Lemma 2's bound over a monitor's bandwidth window, as PGOS's mapper
// evaluates it.

func TestExpectedViolationsZeroWhenAmple(t *testing.T) {
	m := monitor.New("p", 100, 10)
	for i := 0; i < 100; i++ {
		m.ObserveBandwidth(100) // far above any need
	}
	// 10 packets × 12 kbit over 1 s → 0.12 Mbps requirement.
	if ez := pgos.ExpectedViolations(m.Dist(), 10, 12000, 1, 0); ez != 0 {
		t.Fatalf("E[Z] = %v, want 0 for ample bandwidth", ez)
	}
}

func TestExpectedViolationsPositiveWhenStarved(t *testing.T) {
	m := monitor.New("p", 100, 10)
	for i := 0; i < 100; i++ {
		m.ObserveBandwidth(1) // 1 Mbps available
	}
	// Need 10 Mbps: 834 packets of 12 kbit in 1 s.
	ez := pgos.ExpectedViolations(m.Dist(), 834, 12000, 1, 0)
	if ez <= 0 {
		t.Fatal("E[Z] should be positive when starved")
	}
	// Bandwidth is deterministic 1 Mbps → ~750 of 834 packets miss.
	if ez < 700 || ez > 800 {
		t.Fatalf("E[Z] = %v, want ~750", ez)
	}
}

func TestExpectedViolationsMonotoneInDemand(t *testing.T) {
	m := monitor.New("p", 200, 10)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		m.ObserveBandwidth(20 + rng.Float64()*20)
	}
	prev := -1.0
	for _, x := range []int{100, 500, 1000, 2000, 4000} {
		ez := pgos.ExpectedViolations(m.Dist(), x, 12000, 1, 0)
		if ez < prev {
			t.Fatalf("E[Z] not monotone in demand: %v after %v", ez, prev)
		}
		prev = ez
	}
}
