package control

import (
	"fmt"
	"math/rand"
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/stream"
)

// TestAdmissionMonotone: more committed load never makes a rejected ask
// feasible. Over seeded overlays of 2–4 warm paths with random committed
// load, an ask that admission rejects stays rejected after one more
// guaranteed stream is admitted.
func TestAdmissionMonotone(t *testing.T) {
	probs := []float64{0.8, 0.9, 0.95, 0.99}
	checked := 0
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mons := make([]*monitor.PathMonitor, 2+rng.Intn(3))
		for j := range mons {
			base, spread := 20+60*rng.Float64(), 1+15*rng.Float64()
			vals := make([]float64, 120)
			for i := range vals {
				vals[i] = base + spread*(2*rng.Float64()-1)
			}
			mons[j] = warmMon(fmt.Sprintf("P%d", j), vals...)
		}
		spec := func(name string, loMbps, hiMbps float64) stream.Spec {
			return probSpec(name, loMbps+(hiMbps-loMbps)*rng.Float64(), probs[rng.Intn(len(probs))])
		}
		adm := NewAdmission(AdmissionOptions{}, mons)
		for i, n := 0, rng.Intn(4); i < n; i++ {
			adm.Admit(spec(fmt.Sprintf("L%d", i), 2, 40))
		}
		ask := spec("ask", 10, 120)
		if adm.Admit(ask).Admitted {
			continue
		}
		var more stream.Spec
		for i := 0; i < 20 && more.Name == ""; i++ {
			if s := spec(fmt.Sprintf("G%d", i), 1, 20); adm.Admit(s).Admitted {
				more = s
			}
		}
		if more.Name == "" {
			continue
		}
		checked++
		if d := adm.Admit(ask); d.Admitted {
			t.Fatalf("seed %d: ask %+v rejected, then admitted after admitting %+v (admitted: %+v)",
				seed, ask, more, adm.Admitted())
		}
	}
	if checked < 100 {
		t.Fatalf("only %d of 400 seeds reached the check; the property is barely exercised", checked)
	}
	t.Logf("%d seeds checked", checked)
}
