package control

import (
	"io"
	"reflect"
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// warmMon returns a monitor warmed with 120 samples cycling over vals.
func warmMon(name string, vals ...float64) *monitor.PathMonitor {
	m := monitor.New(name, 256, 10)
	for i := 0; i < 120; i++ {
		m.ObserveBandwidth(vals[i%len(vals)])
	}
	return m
}

func probSpec(name string, mbps, p float64) stream.Spec {
	return stream.Spec{Name: name, Kind: stream.Probabilistic, RequiredMbps: mbps, Probability: p}
}

func TestBestEffortAlwaysAdmitted(t *testing.T) {
	adm := NewAdmission(AdmissionOptions{}, nil)
	d := adm.Admit(stream.Spec{Name: "bulk", Kind: stream.BestEffort})
	if !d.Admitted {
		t.Fatal("best-effort stream rejected")
	}
	if got := adm.Admitted(); len(got) != 1 || got[0].Name != "bulk" {
		t.Fatalf("Admitted() = %v", got)
	}
}

func TestGuaranteedRejectedWithoutPaths(t *testing.T) {
	adm := NewAdmission(AdmissionOptions{}, nil)
	d := adm.Admit(probSpec("gold", 10, 0.9))
	if d.Admitted {
		t.Fatal("guaranteed stream admitted with no paths")
	}
	if d.Reason == "" || d.BestSpec != nil {
		t.Fatalf("want reason and nil BestSpec, got %+v", d)
	}
}

func TestAdmissionHonorsExistingCommitments(t *testing.T) {
	mons := []*monitor.PathMonitor{
		warmMon("A", 49, 50, 51),
		warmMon("B", 29, 30, 31),
	}
	adm := NewAdmission(AdmissionOptions{}, mons)

	if d := adm.Admit(probSpec("Gold", 45, 0.9)); !d.Admitted {
		t.Fatalf("Gold should fit on path A alone: %+v", d)
	}
	// Headroom left at p=0.9: ~4 on A (49−45), ~29 on B — 60 cannot fit.
	d := adm.Admit(probSpec("Jumbo", 60, 0.9))
	if d.Admitted {
		t.Fatal("Jumbo admitted past committed headroom")
	}
	if d.BestRateMbps < 25 || d.BestRateMbps > 40 {
		t.Fatalf("BestRateMbps = %v, want ~33", d.BestRateMbps)
	}
	if d.BestSpec == nil || d.BestSpec.RequiredMbps > d.BestRateMbps || d.BestSpec.RequiredMbps < 25 {
		t.Fatalf("BestSpec = %+v, want rate just under %v", d.BestSpec, d.BestRateMbps)
	}
	if d.BestProbability != 0 {
		t.Fatalf("BestProbability = %v; 60 Mbps is infeasible at any probability", d.BestProbability)
	}
	// A spec inside the remaining split headroom is still admitted.
	if d := adm.Admit(probSpec("Fits", 30, 0.9)); !d.Admitted {
		t.Fatalf("30 Mbps should fit in the remaining split headroom: %+v", d)
	}
}

func TestBestFeasibleSpecOnLoweredProbability(t *testing.T) {
	// One path, bandwidth uniform over {40, 42, ..., 60}: 55 Mbps is only
	// available ~27 % of the time.
	vals := make([]float64, 0, 11)
	for v := 40.0; v <= 60; v += 2 {
		vals = append(vals, v)
	}
	adm := NewAdmission(AdmissionOptions{}, []*monitor.PathMonitor{warmMon("U", vals...)})
	d := adm.Admit(probSpec("hopeful", 55, 0.95))
	if d.Admitted {
		t.Fatal("55 Mbps @ 95% admitted on a path that dips to 40")
	}
	if d.BestRateMbps < 35 || d.BestRateMbps > 48 {
		t.Fatalf("BestRateMbps = %v, want near the 5th percentile (~40)", d.BestRateMbps)
	}
	if d.BestProbability < 0.1 || d.BestProbability > 0.45 {
		t.Fatalf("BestProbability = %v, want ~0.27 (fraction of samples ≥ 55)", d.BestProbability)
	}
}

func TestReleaseFreesHeadroom(t *testing.T) {
	adm := NewAdmission(AdmissionOptions{}, []*monitor.PathMonitor{warmMon("A", 49, 50, 51)})
	if d := adm.Admit(probSpec("first", 40, 0.9)); !d.Admitted {
		t.Fatalf("first: %+v", d)
	}
	if d := adm.Admit(probSpec("second", 40, 0.9)); d.Admitted {
		t.Fatal("second 40 Mbps admitted onto a ~50 Mbps path")
	}
	if !adm.Release("first") {
		t.Fatal("Release(first) = false")
	}
	if adm.Release("first") {
		t.Fatal("double release succeeded")
	}
	if d := adm.Admit(probSpec("second", 40, 0.9)); !d.Admitted {
		t.Fatalf("second should fit after release: %+v", d)
	}
}

func TestPreemptionEvictsBestEffort(t *testing.T) {
	adm := NewAdmission(AdmissionOptions{
		PreemptBestEffort: true,
		BestEffortMbps:    20,
	}, []*monitor.PathMonitor{warmMon("A", 49, 50, 51)})

	if d := adm.Admit(stream.Spec{Name: "bulk", Kind: stream.BestEffort}); !d.Admitted {
		t.Fatalf("bulk: %+v", d)
	}
	// 45 needs ~45 of the ~49 guaranteed headroom; the 20 Mbps best-effort
	// load makes it infeasible until bulk is evicted.
	d := adm.Admit(probSpec("Gold", 45, 0.9))
	if !d.Admitted {
		t.Fatalf("Gold should be admitted via preemption: %+v", d)
	}
	if len(d.Preempted) != 1 || d.Preempted[0] != "bulk" {
		t.Fatalf("Preempted = %v, want [bulk]", d.Preempted)
	}
	for _, s := range adm.Admitted() {
		if s.Name == "bulk" {
			t.Fatal("bulk still admitted after preemption")
		}
	}

	// When eviction cannot help, nothing is evicted.
	if d := adm.Admit(stream.Spec{Name: "bulk2", Kind: stream.BestEffort}); !d.Admitted {
		t.Fatalf("bulk2: %+v", d)
	}
	d = adm.Admit(probSpec("Plat", 45, 0.9))
	if d.Admitted {
		t.Fatal("Plat admitted though Gold holds the path")
	}
	found := false
	for _, s := range adm.Admitted() {
		if s.Name == "bulk2" {
			found = true
		}
	}
	if !found {
		t.Fatal("bulk2 was evicted although eviction could not make Plat feasible")
	}
}

func TestAdmissionTelemetryAndUpcall(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(nil, 64)
	var rejected []Decision
	adm := NewAdmission(AdmissionOptions{
		OnReject: func(d Decision) { rejected = append(rejected, d) },
	}, []*monitor.PathMonitor{warmMon("A", 49, 50, 51)})
	adm.SetTelemetry(reg, tracer)

	adm.Admit(probSpec("ok", 30, 0.9))
	adm.Admit(probSpec("big", 90, 0.9))
	adm.Release("ok")

	if len(rejected) != 1 || rejected[0].Spec.Name != "big" {
		t.Fatalf("OnReject upcalls = %+v", rejected)
	}
	if v := reg.Counter("iqpaths_control_admitted_total", "").Value(); v != 1 {
		t.Fatalf("admitted_total = %d", v)
	}
	if v := reg.Counter("iqpaths_control_rejected_total", "").Value(); v != 1 {
		t.Fatalf("rejected_total = %d", v)
	}
	if v := reg.Counter("iqpaths_control_released_total", "").Value(); v != 1 {
		t.Fatalf("released_total = %d", v)
	}
	if v := reg.Gauge("iqpaths_control_streams_admitted", "").Value(); v != 0 {
		t.Fatalf("streams_admitted = %v, want 0 after release", v)
	}
	events, _ := tracer.Events()
	seen := map[string]bool{}
	for _, e := range events {
		seen[e.Name] = true
	}
	if !seen["control:admit"] || !seen["control:reject"] {
		t.Fatalf("trace missing admission events: %v", seen)
	}
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionDeterministic(t *testing.T) {
	run := func() Decision {
		adm := NewAdmission(AdmissionOptions{}, []*monitor.PathMonitor{
			warmMon("A", 45, 50, 55), warmMon("B", 20, 30, 40),
		})
		adm.Admit(probSpec("base", 35, 0.9))
		return adm.Admit(probSpec("cand", 70, 0.9))
	}
	d1, d2 := run(), run()
	if d1.Admitted != d2.Admitted || d1.BestRateMbps != d2.BestRateMbps ||
		d1.BestProbability != d2.BestProbability {
		t.Fatalf("admission diverged: %+v vs %+v", d1, d2)
	}
}

// TestAdmissionSnapshotFollowsMonitors pins the CDF snapshot cache: a
// monitor fed directly (not through Observe) between two Admits, and a
// SetPaths to other monitors at the same sample counts, must each give
// the decision a fresh Admission over the same monitors gives.
func TestAdmissionSnapshotFollowsMonitors(t *testing.T) {
	mons := []*monitor.PathMonitor{warmMon("A", 10, 11, 12), warmMon("B", 8, 9, 10)}
	adm := NewAdmission(AdmissionOptions{}, mons)
	cand := probSpec("cand", 30, 0.9)
	same := func(step string, got Decision, over []*monitor.PathMonitor) {
		t.Helper()
		if want := NewAdmission(AdmissionOptions{}, over).Admit(cand); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decision %+v, fresh admission %+v", step, got, want)
		}
	}
	first := adm.Admit(cand)
	if first.Admitted {
		t.Fatalf("candidate admitted over ~20 Mbps of paths: %+v", first)
	}
	same("first", first, mons)

	mons[0].ObserveBandwidth(40)
	same("one direct sample", adm.Admit(cand), mons)

	for i := 0; i < 256; i++ {
		mons[0].ObserveBandwidth(60)
	}
	d := adm.Admit(cand)
	if !d.Admitted {
		t.Fatalf("candidate rejected after path A rose to 60 Mbps: %+v", d)
	}
	same("window refilled", d, mons)
	adm.Release(cand.Name)

	// Narrow paths fed as many samples as the cached ones, so at the same
	// generations: only the monitor identity tells them apart.
	narrow := func(name string, n uint64) *monitor.PathMonitor {
		m := monitor.New(name, 256, 10)
		for i := uint64(0); i < n; i++ {
			m.ObserveBandwidth(10 + float64(i%3))
		}
		return m
	}
	other := []*monitor.PathMonitor{narrow("C", mons[0].BandwidthGen()), narrow("D", mons[1].BandwidthGen())}
	adm.SetPaths(other)
	d = adm.Admit(cand)
	if d.Admitted {
		t.Fatalf("candidate admitted on the new, narrow paths: %+v", d)
	}
	same("SetPaths", d, other)
}
