// Package e2e is the live smoke test: the Fig. 8 asymmetry reproduced as
// shaped UDP relay subprocesses on 127.0.0.1, with a PGOS-scheduled
// stream and its best-effort twin racing across them. It exercises every
// live component together — driver pacing, probe-train monitoring, RUDP
// transport through the shaped relays, and wire deadline accounting at
// the sink.
//
// The test sleeps and uses real sockets, so it only runs when
// IQPATHS_E2E=1 (`make e2e`); plain `go test ./...` skips it.
package e2e

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync/atomic"
	"testing"
	"time"

	"iqpaths/internal/bwest"
	"iqpaths/internal/live"
	"iqpaths/internal/live/testbed"
	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/stream"
	"iqpaths/internal/transport"
)

// TestMain re-execs as a relay when the helper env vars are set: each
// emulated link runs as its own OS process, as it would in a deployment.
func TestMain(m *testing.M) {
	if target := os.Getenv("IQPATHS_E2E_RELAY_TARGET"); target != "" {
		runRelayHelper(target)
		return
	}
	os.Exit(m.Run())
}

func runRelayHelper(target string) {
	var shape testbed.LinkShape
	if err := json.Unmarshal([]byte(os.Getenv("IQPATHS_E2E_RELAY_SHAPE")), &shape); err != nil {
		fmt.Fprintln(os.Stderr, "relay helper: bad shape:", err)
		os.Exit(1)
	}
	r, err := testbed.NewRelay("127.0.0.1:0", target, shape, 42)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relay helper:", err)
		os.Exit(1)
	}
	fmt.Println(r.Addr()) // the parent reads our address from stdout
	io.Copy(io.Discard, os.Stdin)
	r.Close()
}

// startRelay spawns one relay subprocess forwarding to target through
// shape and returns its client-facing address.
func startRelay(t *testing.T, target string, shape testbed.LinkShape) string {
	t.Helper()
	shapeJSON, err := json.Marshal(shape)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"IQPATHS_E2E_RELAY_TARGET="+target,
		"IQPATHS_E2E_RELAY_SHAPE="+string(shapeJSON),
	)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stdin.Close() // the helper exits when its stdin closes
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("relay helper produced no address: %v", err)
	}
	addr := line[:len(line)-1]
	t.Logf("relay %+v at %s", shape, addr)
	return addr
}

// sinkServe accounts one accepted connection: Hello frames register
// contracts, data arrivals are judged against their wire deadlines, and a
// Responder answers probe trains.
func sinkServe(conn *transport.RUDPConn, clock live.Clock, acct *live.Account) {
	resp := live.NewResponder(clock, conn)
	live.Bind(conn, nil, resp)
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		switch m.Kind {
		case transport.KindControl:
			if v, perr := live.ParseFrame(m.Payload); perr == nil {
				if h, ok := v.(*live.Hello); ok {
					acct.Register(live.Contract{
						Stream:       h.Stream,
						Name:         h.Name,
						QuotaPackets: int(h.QuotaPackets),
						WindowNanos:  h.WindowNanos,
						GraceNanos:   h.GraceNanos,
						SkipWindows:  int(h.SkipWindows),
					})
				}
			}
		case transport.KindData:
			acct.Observe(m.Stream, int64(m.Frame), clock.Stamp())
		}
	}
}

// Experiment parameters: a 12 Mbps stream over a 0.5 s scheduling window,
// judged with loose tolerances (150 ms grace, 3 warmup windows skipped).
const (
	tickSec      = 0.005
	twSec        = 0.5
	streamMbps   = 12.0
	packetBits   = 12000
	quotaPackets = int(streamMbps * 1e6 * twSec / packetBits) // 500
	graceNanos   = int64(150 * time.Millisecond)
	skipWindows  = 3
	runWindows   = 12
	probeSec     = 0.15
)

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// runPhase drives the 12 Mbps stream for runWindows scheduling windows
// under the given guarantee kind and returns the sink's report.
func runPhase(t *testing.T, kind stream.GuaranteeKind, name string, relayA, relayB string, clock live.Clock, acct *live.Account) live.Report {
	t.Helper()
	connA, err := transport.DialRUDP(relayA, 5*time.Second)
	if err != nil {
		t.Fatalf("dial path A: %v", err)
	}
	connB, err := transport.DialRUDP(relayB, 5*time.Second)
	if err != nil {
		t.Fatalf("dial path B: %v", err)
	}
	pathA := transport.NewPath(0, "live-A", connA, 0)
	pathB := transport.NewPath(1, "live-B", connB, 0)
	defer pathA.Close()
	defer pathB.Close()

	mons := []*monitor.PathMonitor{monitor.New("live-A", 64, 8), monitor.New("live-B", 64, 8)}

	spec := stream.Spec{Name: name, Kind: kind, PacketBits: packetBits}
	if kind != stream.BestEffort {
		spec.RequiredMbps = streamMbps
		spec.Probability = 0.9
	}

	var warm atomic.Bool
	cbr := &live.CBR{Mbps: streamMbps, PacketBits: packetBits}
	var d *live.ShardedDriver
	var id int
	cfg := live.Config{
		TickSeconds: tickSec,
		TwSec:       twSec,
		Clock:       clock,
		OnTick: func(int64) {
			if !warm.Load() {
				return
			}
			n := cbr.Packets(tickSec)
			for i := 0; i < n; i++ {
				d.Offer(id, packetBits)
			}
		},
	}
	d = live.NewShardedDriver(live.ShardedConfig{Config: cfg},
		[]live.ShardDomain{{Paths: []sched.PathService{pathA, pathB}, Mons: mons}})
	defer d.Stop()
	id, _ = d.AddStream(spec)

	// Both phases are judged against the same contract.
	hello := live.MarshalHello(live.Hello{
		Stream:       uint32(id),
		Name:         name,
		QuotaPackets: uint32(quotaPackets),
		WindowNanos:  int64(twSec * 1e9),
		GraceNanos:   graceNanos,
		SkipWindows:  skipWindows,
	})
	if err := connA.Send(&transport.Message{Kind: transport.KindControl, Seq: 1, Payload: hello}); err != nil {
		t.Fatalf("send hello: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Probe trains go out as iqpathsd's default planner sends them: one
	// round-robin ProberSet training every path every interval.
	conns := []*transport.RUDPConn{connA, connB}
	probers := make([]*live.Prober, len(conns))
	for j, conn := range conns {
		p := live.NewProber(live.ProbeConfig{IntervalSec: probeSec}, clock, conn)
		j := j
		p.OnBandwidth = func(mbps float64) { d.ObserveBandwidth(0, j, mbps) }
		live.Bind(conn, p, nil)
		probers[j] = p
	}
	est := bwest.NewEstimator(bwest.Config{Paths: len(conns), Budget: len(conns), Planner: bwest.NewRoundRobinPlanner()})
	go live.NewProberSet(live.ProberSetConfig{Budget: len(conns)}, clock, probers, est).Run(ctx)
	runDone := make(chan struct{})
	go func() {
		d.Run(ctx)
		close(runDone)
	}()

	// The CDF predictors must warm from real probe measurements (8
	// bandwidth samples per monitor) before the stream starts; PGOS then
	// maps it from live CDFs at the first window.
	waitUntil(t, 20*time.Second, "live CDF warmup", d.Warm)
	t.Logf("%s: warm after real measurements: A≈%.1f Mbps, B≈%.1f Mbps",
		name, d.MeanBandwidth(0, 0), d.MeanBandwidth(0, 1))
	warm.Store(true)
	startTick := d.Tick()
	waitUntil(t, 45*time.Second, "scheduling windows", func() bool {
		return d.Tick() >= startTick+int64(runWindows*(twSec/tickSec))
	})
	cancel()
	<-runDone
	// Run has returned, so the plane is quiescent and its scheduler state
	// is safe to read from this goroutine.
	if kind != stream.BestEffort {
		m := d.Plane().Shard(0).Scheduler().Mapping()
		if len(m.Rejected) > 0 && m.Rejected[0] {
			t.Fatal("admission rejected the guaranteed stream")
		}
		t.Logf("%s: mapping quotas %v", name, m.Packets)
	}

	// Let the tail drain and the final window deadlines pass.
	time.Sleep(2 * time.Second)
	reports := acct.Reports(clock.Stamp())
	if len(reports) != 1 {
		t.Fatalf("%s: sink has %d reports, want 1", name, len(reports))
	}
	r := reports[0]
	t.Logf("%s: windows=%d violated=%d frac=%.3f on_time=%d late=%d",
		name, r.Windows, r.Violated, r.ViolatedFraction, r.OnTime, r.Late)
	if r.Windows < runWindows/2 {
		t.Fatalf("%s: only %d windows closed, want >= %d", name, r.Windows, runWindows/2)
	}
	if r.Total == 0 {
		t.Fatalf("%s: sink received no data packets", name)
	}
	return r
}

// TestLiveFig8GuaranteedVsBestEffort runs the paper's core claim end to
// end on localhost: over the same asymmetric shaped overlay, the
// PGOS-guaranteed stream misses its per-window quota in strictly fewer
// windows than the identical stream run best-effort.
func TestLiveFig8GuaranteedVsBestEffort(t *testing.T) {
	if os.Getenv("IQPATHS_E2E") == "" {
		t.Skip("live e2e disabled; set IQPATHS_E2E=1 (or run `make e2e`)")
	}

	clock := live.NewWallClock()
	acct := live.NewAccount(nil)

	ln, err := transport.ListenRUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go sinkServe(conn, clock, acct)
		}
	}()

	shapeA, shapeB := testbed.Fig8Shapes()
	relayA := startRelay(t, ln.Addr(), shapeA)
	relayB := startRelay(t, ln.Addr(), shapeB)

	guaranteed := runPhase(t, stream.Probabilistic, "guaranteed", relayA, relayB, clock, acct)
	bestEffort := runPhase(t, stream.BestEffort, "best-effort", relayA, relayB, clock, acct)

	if guaranteed.ViolatedFraction >= bestEffort.ViolatedFraction {
		t.Fatalf("guaranteed violated fraction %.3f not strictly below best-effort %.3f",
			guaranteed.ViolatedFraction, bestEffort.ViolatedFraction)
	}
}
