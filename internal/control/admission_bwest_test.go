package control

import (
	"testing"

	"iqpaths/internal/monitor"
	"iqpaths/internal/stream"
)

func TestAdmitRejectsWarmingNotBad(t *testing.T) {
	cold := monitor.New("cold", 256, 10)
	for i := 0; i < 5; i++ { // below the warm floor
		cold.ObserveBandwidth(50)
	}
	adm := NewAdmission(AdmissionOptions{}, []*monitor.PathMonitor{cold})
	d := adm.Admit(probSpec("gold", 10, 0.9))
	if d.Admitted {
		t.Fatal("admitted on a cold overlay")
	}
	if !d.Warming {
		t.Fatalf("cold overlay must reject with Warming=true: %+v", d)
	}
	// Warm the path: the same spec now admits — the earlier rejection was
	// "unknown", not "no".
	for i := 0; i < 20; i++ {
		cold.ObserveBandwidth(50)
	}
	d = adm.Admit(probSpec("gold", 10, 0.9))
	if !d.Admitted || d.Warming {
		t.Fatalf("warm overlay should admit: %+v", d)
	}
	// A genuinely saturated overlay rejects with Warming=false.
	d = adm.Admit(probSpec("jumbo", 500, 0.9))
	if d.Admitted || d.Warming {
		t.Fatalf("saturated overlay must reject with Warming=false: %+v", d)
	}
}

func TestBestEffortAdmittedWhileWarming(t *testing.T) {
	cold := monitor.New("cold", 256, 10)
	adm := NewAdmission(AdmissionOptions{}, []*monitor.PathMonitor{cold})
	if d := adm.Admit(stream.Spec{Name: "bulk", Kind: stream.BestEffort}); !d.Admitted {
		t.Fatal("best-effort must not wait for warm monitors")
	}
}
