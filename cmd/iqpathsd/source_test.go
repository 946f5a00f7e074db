package main

import (
	"context"
	"strings"
	"testing"

	"iqpaths/internal/live"
	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/telemetry"
)

// TestSourceRejectsUnknownPlanner checks that an unknown -probe-planner
// fails before any path is dialed, whatever the shard count. The path
// addresses are never contacted.
func TestSourceRejectsUnknownPlanner(t *testing.T) {
	for _, shards := range []int{1, 2} {
		err := runSource(context.Background(), sourceConfig{
			paths:   "a=127.0.0.1:1,b=127.0.0.1:2",
			planner: "bogus",
			shards:  shards,
		})
		if err == nil || !strings.Contains(err.Error(), "-probe-planner") {
			t.Fatalf("-shards %d: err = %v, want unknown -probe-planner", shards, err)
		}
	}
}

// nullPath accepts and retires every packet.
type nullPath struct{ id int }

func (p nullPath) ID() int            { return p.id }
func (p nullPath) Name() string       { return "p" }
func (p nullPath) QueuedPackets() int { return 0 }
func (p nullPath) Send(pkt *simnet.Packet) bool {
	simnet.ReleasePacket(pkt)
	return true
}

// TestSourcePlaneExportsMetrics checks that the default one-shard source
// driver reports into the registry it was given, as -shards N does.
func TestSourcePlaneExportsMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	sp := newSourcePlane(sourceConfig{rateMbps: 5, windowSec: 0.5, tickSec: 0.005, shards: 1},
		live.NewFakeClock(), reg,
		[]sched.PathService{nullPath{0}, nullPath{1}},
		[]*monitor.PathMonitor{monitor.New("a", 64, 8), monitor.New("b", 64, 8)})
	defer sp.d.Stop()
	sp.d.Step()
	if got := reg.Counter("iqpaths_live_ticks_total", "").Value(); got != 1 {
		t.Fatalf("iqpaths_live_ticks_total = %d after one Step, want 1", got)
	}
	if got := reg.WithLabels("shard", "0").Counter("iqpaths_shard_ticks_total", "").Value(); got != 1 {
		t.Fatalf(`iqpaths_shard_ticks_total{shard="0"} = %d after one Step, want 1`, got)
	}
}
