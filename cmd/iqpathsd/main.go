// Command iqpathsd is an IQ-Paths overlay node daemon running on real
// sockets. It plays one of two roles:
//
//	iqpathsd -role sink -rudp :9001 -tcp :9002
//	    terminate overlay paths: receive data messages, count per-stream
//	    throughput, and print a rate report every second;
//
//	iqpathsd -role router -rudp :9001 -next host:9001
//	    an overlay router: forward every data message to the next hop
//	    over RUDP (the in-network daemon of Fig. 1).
//
// Every daemon serves its telemetry registry on -http: GET /metrics is
// Prometheus text exposition (transport counters, RTT histograms,
// per-stream receive totals) and /debug/pprof the standard profiles.
// Sink daemons additionally expose CDF-based admission control under
// /admission/ (admit, release, streams): the sink samples its ingress
// headroom (-capacity minus the observed aggregate rate) once per second
// and admits a stream only when the PGOS feasibility test over that
// distribution can meet its specification, answering rejections with the
// best currently feasible spec. With -cluster N the sink runs N regional
// admission shards whose committed load replicates via the gossip codec,
// served to peer daemons under /gossip/ (digest exchange + delta push).
// On SIGINT/SIGTERM the daemon shuts down gracefully, and with
// -snapshot it writes a final JSON telemetry snapshot before exiting.
//
// The experiments run on the deterministic emulator; this daemon is the
// live counterpart used by cmd/iqftp and the examples to demonstrate the
// same middleware moving real bytes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"iqpaths/internal/telemetry"
	"iqpaths/internal/transport"
)

func main() {
	var (
		role     = flag.String("role", "sink", "sink | router | relay | source")
		rudpAddr = flag.String("rudp", "127.0.0.1:9001", "RUDP listen address")
		tcpAddr  = flag.String("tcp", "", "TCP listen address (optional)")
		next     = flag.String("next", "", "next hop (router role, RUDP)")
		quiet    = flag.Bool("quiet", false, "suppress periodic reports")
		httpAddr = flag.String("http", "127.0.0.1:9090", "HTTP address for /metrics and /debug/pprof (empty disables)")
		snapPath = flag.String("snapshot", "", "write a final JSON telemetry snapshot to this file on shutdown")
		capacity = flag.Float64("capacity", 100, "sink ingress capacity in Mbps, the ceiling of the admission test")
		cluster  = flag.Int("cluster", 1, "sink: regional admission shard count; committed load replicates between shards (and peer daemons) over /gossip/")

		// relay role: one shaped testbed link as its own process.
		udpAddr = flag.String("udp", "127.0.0.1:0", "relay: UDP listen address")
		target  = flag.String("target", "", "relay: forward datagrams to this host:port")
		shape   = flag.String("shape", "", `relay: link shape JSON, e.g. {"CapacityMbps":40,"CrossMbps":8}`)
		seed    = flag.Int64("seed", 1, "relay: loss-process seed")

		// source role: live PGOS driver over overlay paths.
		node      = flag.String("node", "source", "source: node name in link-state advertisements")
		pathsFlag = flag.String("paths", "", "source: comma-separated name=addr overlay paths")
		rate      = flag.Float64("rate", 12, "source: stream offered load in Mbps")
		prob      = flag.Float64("prob", 0.9, "source: guarantee probability (0 runs best-effort)")
		window    = flag.Float64("window", 0.5, "source: scheduling window in seconds")
		tick      = flag.Float64("tick", 0.005, "source: scheduling tick in seconds")
		probe     = flag.Float64("probe", 0.25, "source: probe-train interval in seconds")
		probePlan = flag.String("probe-planner", "timer", "source: probe scheduling — timer (per-path cadence), rr (budgeted round-robin sweep), active (bwest information-gain planner)")
		probeBudg = flag.Int("probe-budget", 0, "source: probe trains per round for rr/active planners (0 = max(1, paths/2))")
		report    = flag.String("report", "", "source: sink HTTP base URL for link-state reports (optional)")
		duration  = flag.Duration("duration", 0, "source: stop after this long (0 runs until signal)")
		shardsN   = flag.Int("shards", 1, "source: scheduling domains of the live PGOS plane, one stream each (paths split round-robin)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var adm *daemonAdmission
	var ls *liveSink
	if *role == "sink" {
		adm = newDaemonAdmission(*capacity, *cluster)
		ls = newLiveSink()
	}
	var httpSrv *http.Server
	if *httpAddr != "" {
		httpSrv = startHTTP(*httpAddr, adm, ls)
	}

	var err error
	switch *role {
	case "sink":
		err = runSink(ctx, *rudpAddr, *tcpAddr, *quiet, adm, ls)
	case "router":
		if *next == "" {
			fmt.Fprintln(os.Stderr, "router role requires -next")
			os.Exit(2)
		}
		err = runRouter(ctx, *rudpAddr, *next)
	case "relay":
		if *target == "" {
			fmt.Fprintln(os.Stderr, "relay role requires -target")
			os.Exit(2)
		}
		err = runRelay(ctx, *udpAddr, *target, *shape, *seed)
	case "source":
		err = runSource(ctx, sourceConfig{
			node:      *node,
			paths:     *pathsFlag,
			rateMbps:  *rate,
			prob:      *prob,
			windowSec: *window,
			tickSec:   *tick,
			probeSec:  *probe,
			planner:   *probePlan,
			budget:    *probeBudg,
			report:    *report,
			duration:  *duration,
			shards:    *shardsN,
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown role %q\n", *role)
		os.Exit(2)
	}

	if httpSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		httpSrv.Shutdown(sctx)
		cancel()
	}
	if *snapPath != "" {
		if werr := writeSnapshot(*snapPath); werr != nil {
			log.Printf("snapshot: %v", werr)
		} else {
			log.Printf("wrote telemetry snapshot to %s", *snapPath)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// startHTTP serves the process-global telemetry registry and the pprof
// profiles on their own mux (never http.DefaultServeMux, so nothing else
// leaks onto the port). Sink daemons additionally serve the admission
// API under /admission/ plus the live accounting and link-state
// endpoints (/live/accounts, /control/linkstate).
func startHTTP(addr string, adm *daemonAdmission, ls *liveSink) *http.Server {
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.Handler(telemetry.Default()))
	if adm != nil {
		adm.register(mux)
		(&daemonGossip{adm: adm}).register(mux)
	}
	if ls != nil {
		ls.register(mux)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("http: %v", err)
		}
	}()
	log.Printf("telemetry: /metrics and /debug/pprof on http://%s", addr)
	return srv
}

// writeSnapshot dumps the global registry as indented JSON.
func writeSnapshot(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	snap := telemetry.BuildSnapshot(telemetry.WallClock{}, telemetry.Default(), nil, nil)
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rateTable accumulates per-stream byte counts for the periodic report
// and mirrors them into per-stream registry counters for /metrics.
type rateTable struct {
	mu    sync.Mutex
	bytes map[uint32]uint64
	ctrs  map[uint32]*telemetry.Counter
	total uint64
}

func newRateTable() *rateTable {
	return &rateTable{bytes: map[uint32]uint64{}, ctrs: map[uint32]*telemetry.Counter{}}
}

func (r *rateTable) add(stream uint32, n int) {
	r.mu.Lock()
	r.bytes[stream] += uint64(n)
	c := r.ctrs[stream]
	if c == nil {
		c = telemetry.Default().Counter("iqpaths_daemon_stream_rx_bytes_total",
			"Data payload bytes received per stream.",
			"stream", strconv.FormatUint(uint64(stream), 10))
		r.ctrs[stream] = c
	}
	r.mu.Unlock()
	c.Add(uint64(n))
	atomic.AddUint64(&r.total, uint64(n))
}

func (r *rateTable) snapshotAndReset() map[uint32]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.bytes
	r.bytes = map[uint32]uint64{}
	return out
}

func runSink(ctx context.Context, rudpAddr, tcpAddr string, quiet bool, adm *daemonAdmission, ls *liveSink) error {
	rates := newRateTable()
	var closers []interface{ Close() error }
	if rudpAddr != "" {
		l, err := transport.ListenRUDP(rudpAddr)
		if err != nil {
			return err
		}
		log.Printf("sink: RUDP on %s", l.Addr())
		closers = append(closers, l)
		go acceptLoop(func() (transport.Conn, error) { return l.Accept() }, rates, ls)
	}
	if tcpAddr != "" {
		l, err := transport.ListenTCP(tcpAddr)
		if err != nil {
			return err
		}
		log.Printf("sink: TCP on %s", l.Addr())
		closers = append(closers, l)
		go acceptLoop(func() (transport.Conn, error) { return l.Accept() }, rates, ls)
	}
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			log.Print("sink: shutting down")
			for _, c := range closers {
				c.Close()
			}
			return nil
		case <-ticker.C:
			snap := rates.snapshotAndReset()
			if adm != nil {
				var total uint64
				for _, b := range snap {
					total += b
				}
				adm.observe(float64(total) * 8 / 1e6)
				adm.publish()
			}
			if quiet || len(snap) == 0 {
				continue
			}
			ids := make([]uint32, 0, len(snap))
			for id := range snap {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			line := "rates:"
			for _, id := range ids {
				line += fmt.Sprintf(" stream%d=%.2fMbps", id, float64(snap[id])*8/1e6)
			}
			log.Print(line)
		}
	}
}

func acceptLoop(accept func() (transport.Conn, error), rates *rateTable, ls *liveSink) {
	for {
		conn, err := accept()
		if err != nil {
			return
		}
		if ls != nil {
			ls.bindConn(conn)
		}
		go func() {
			defer conn.Close()
			for {
				m, err := conn.Recv()
				if err != nil {
					return
				}
				switch m.Kind {
				case transport.KindData:
					rates.add(m.Stream, len(m.Payload))
					if ls != nil {
						ls.observeData(m)
					}
				case transport.KindControl:
					if ls != nil {
						ls.handleControl(m)
					}
				}
			}
		}()
	}
}

func runRouter(ctx context.Context, rudpAddr, next string) error {
	out, err := transport.DialRUDP(next, 5*time.Second)
	if err != nil {
		return fmt.Errorf("dial next hop: %w", err)
	}
	defer out.Close()
	l, err := transport.ListenRUDP(rudpAddr)
	if err != nil {
		return err
	}
	log.Printf("router: RUDP on %s → %s", l.Addr(), next)
	forwarded := telemetry.Default().Counter("iqpaths_daemon_forwarded_messages_total",
		"Data messages forwarded to the next hop.")
	go func() {
		<-ctx.Done()
		log.Print("router: shutting down")
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		go func() {
			defer conn.Close()
			for {
				m, err := conn.Recv()
				if err != nil {
					return
				}
				if m.Kind != transport.KindData {
					continue
				}
				if err := out.Send(m); err != nil {
					log.Printf("router: forward failed: %v", err)
					return
				}
				forwarded.Inc()
			}
		}()
	}
}
