package control

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/stream"
)

var updateAdmissionGolden = flag.Bool("update-admission", false, "rewrite testdata/admission_decisions.golden")

// bits renders a float64 by its exact bit pattern, so the golden pins
// decisions bit for bit rather than to a printed precision.
func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// fixedHeadroom is a HeadroomSource with a fixed credible floor per
// path; NaN marks a path the source knows nothing about.
type fixedHeadroom []float64

func (h fixedHeadroom) PosteriorHeadroom(j int) (float64, bool) {
	if j >= len(h) || math.IsNaN(h[j]) {
		return 0, false
	}
	return h[j], true
}

// admissionScript drives one Admission through a seeded sequence of
// admits (probabilistic, violation-bound, best-effort), releases, monitor
// samples and remote-load updates, with best-effort preemption enabled,
// and renders every decision and committed-load vector it produces. With
// headroom set, a posterior floor vetoes some admits before the window
// test.
func admissionScript(seed int64, headroom HeadroomSource) string {
	rng := rand.New(rand.NewSource(seed))
	mons := []*monitor.PathMonitor{
		warmMon("A", 45, 50, 55),
		warmMon("B", 20, 30, 40),
		warmMon("C", 12, 15, 18, 21),
	}
	adm := NewAdmission(AdmissionOptions{PreemptBestEffort: true, TwSec: 0.5}, mons)
	if headroom != nil {
		adm.SetHeadroomSource(headroom)
	}
	var out strings.Builder
	var live []string
	next := 0
	for step := 0; step < 120; step++ {
		switch r := rng.Float64(); {
		case r < 0.15 && len(live) > 0:
			k := rng.Intn(len(live))
			ok := adm.Release(live[k])
			fmt.Fprintf(&out, "%d release %s %v\n", step, live[k], ok)
			live = append(live[:k], live[k+1:]...)
		case r < 0.25:
			j := rng.Intn(len(mons))
			for i := 0; i < 1+rng.Intn(20); i++ {
				mons[j].ObserveBandwidth(5 + rng.Float64()*60)
			}
			fmt.Fprintf(&out, "%d observe %d\n", step, j)
		case r < 0.30:
			remote := make([]float64, len(mons))
			for j := range remote {
				remote[j] = rng.Float64() * 8
			}
			adm.SetRemoteCommitted(remote)
			fmt.Fprintf(&out, "%d remote\n", step)
		default:
			next++
			spec := stream.Spec{Name: fmt.Sprintf("s%d", next), PacketBits: 12000}
			switch k := rng.Intn(10); {
			case k < 5:
				spec.Kind = stream.Probabilistic
				spec.RequiredMbps = 2 + rng.Float64()*30
				spec.Probability = 0.5 + rng.Float64()*0.49
			case k < 8:
				spec.Kind = stream.ViolationBound
				spec.RequiredMbps = 2 + rng.Float64()*20
				spec.MaxViolations = rng.Float64() * 4
			default:
				spec.Kind = stream.BestEffort
				if rng.Intn(2) == 0 {
					spec.RequiredMbps = rng.Float64() * 10
				}
			}
			d := adm.Admit(spec)
			if d.Admitted {
				live = append(live, spec.Name)
			}
			for _, p := range d.Preempted {
				for k, n := range live {
					if n == p {
						live = append(live[:k], live[k+1:]...)
						break
					}
				}
			}
			best := "-"
			if d.BestSpec != nil {
				best = bits(d.BestSpec.RequiredMbps)
			}
			fmt.Fprintf(&out, "%d admit %s admitted=%v warming=%v reason=%q rate=%s prob=%s best=%s preempted=%v\n",
				step, spec.Name, d.Admitted, d.Warming, d.Reason,
				bits(d.BestRateMbps), bits(d.BestProbability), best, d.Preempted)
		}
		fmt.Fprintf(&out, "%d load", step)
		for _, c := range adm.CommittedLoad() {
			fmt.Fprintf(&out, " %s", bits(c))
		}
		fmt.Fprintln(&out)
	}
	return out.String()
}

// TestAdmissionDecisionsGolden is the admission differential: every
// Decision field (BestRateMbps and BestProbability included) and every
// committed-load vector of a seeded admit/release/reject sequence must
// match, bit for bit, the sequence recorded before admission learned to
// share one committed mapping across a test's probes. Regenerate with
// -update-admission only for a deliberate change of admission semantics.
func TestAdmissionDecisionsGolden(t *testing.T) {
	var got strings.Builder
	for _, seed := range []int64{1, 2, 3} {
		fmt.Fprintf(&got, "seed %d\n", seed)
		got.WriteString(admissionScript(seed, nil))
	}
	got.WriteString("seed 4 with posterior headroom\n")
	got.WriteString(admissionScript(4, fixedHeadroom{40, math.NaN(), 12}))
	path := filepath.Join("testdata", "admission_decisions.golden")
	if *updateAdmissionGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range g {
			if i >= len(w) || g[i] != w[i] {
				wl := "<eof>"
				if i < len(w) {
					wl = w[i]
				}
				t.Fatalf("line %d diverged:\n got  %s\n want %s", i+1, g[i], wl)
			}
		}
		t.Fatalf("output truncated: %d lines, want %d", len(g), len(w))
	}
}
