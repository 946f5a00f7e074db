package sched

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"iqpaths/internal/monitor"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// Canonical scheduler arm names. Every runner, example, and figure selects
// schedulers through these names and Build — the construction switch lives
// here, nowhere else.
const (
	NameWFQ          = "WFQ"
	NameMSFQ         = "MSFQ"
	NamePGOS         = "PGOS"
	NameOptSched     = "OptSched"
	NameBackpressure = "Backpressure"
	// NameBlocked is stock GridFTP's blocked layout (round-robin).
	NameBlocked = "Blocked"
	// NameRoundRobin is an alias for the same round-robin scheduler under
	// its algorithmic name.
	NameRoundRobin  = "RoundRobin"
	NamePartitioned = "Partitioned"
)

// BuildConfig carries everything any registered arm may need. Arms read
// the fields that apply to them and ignore the rest: WFQ uses Paths[0]
// only, OptSched requires Avail, PGOS uses Monitors/TwSec/Telemetry and
// the callbacks. Builders validate the fields they require and return an
// error on a misconfigured cell instead of panicking mid-experiment.
type BuildConfig struct {
	// Streams are the application streams to schedule.
	Streams []*stream.Stream
	// Paths are the overlay paths available to the arm. WFQ pins itself to
	// Paths[0]; every other arm uses all of them.
	Paths []PathService
	// PaceLimit bounds per-path queued packets (0 = DefaultPaceLimit).
	PaceLimit int
	// TickSeconds is the scheduling clock tick (required by PGOS and
	// OptSched).
	TickSeconds float64
	// TwSec is the scheduling-window length in seconds (PGOS; 0 = 1 s).
	TwSec float64
	// Monitors are the per-path bandwidth monitors, parallel to Paths
	// (required by PGOS).
	Monitors []*monitor.PathMonitor
	// MeanPrediction switches PGOS to mean-bandwidth predictions (the
	// predictor ablation).
	MeanPrediction bool
	// Telemetry receives scheduler metrics (nil = private registry).
	Telemetry *telemetry.Registry
	// OnReject is PGOS's admission upcall. May be nil.
	OnReject func(s *stream.Stream)
	// OnRemap is invoked after each PGOS resource-mapping rebuild with the
	// rebuild's wall-clock latency and whether any stream was committed.
	// May be nil.
	OnRemap func(latencySec float64, committed bool)
	// Avail returns the true available bandwidth of a path by ID — the
	// oracle OptSched schedules against (required by OptSched).
	Avail func(pathID int) float64
}

// Builder constructs one scheduler arm from a BuildConfig.
type Builder func(BuildConfig) (Scheduler, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Builder{}
)

// Register installs a scheduler builder under name. It panics on an empty
// name or a duplicate registration — both are wiring bugs, caught at init.
func Register(name string, b Builder) {
	if name == "" {
		panic("sched: Register with empty name")
	}
	if b == nil {
		panic("sched: Register with nil builder for " + name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("sched: duplicate Register of " + name)
	}
	registry[name] = b
}

// Registered returns the sorted names of every registered arm.
func Registered() []string {
	registryMu.RLock()
	names := make([]string, 0, len(registry))
	// maporder: the names are collected, then sorted.
	for n := range registry {
		names = append(names, n)
	}
	registryMu.RUnlock()
	sort.Strings(names)
	return names
}

// Build constructs the named arm. An unknown name errors with the full
// registered list so a typo in a config or flag is self-diagnosing.
func Build(name string, cfg BuildConfig) (Scheduler, error) {
	registryMu.RLock()
	b := registry[name]
	registryMu.RUnlock()
	if b == nil {
		return nil, fmt.Errorf("sched: unknown algorithm %q (registered: %s)",
			name, strings.Join(Registered(), ", "))
	}
	s, err := b(cfg)
	if err != nil {
		return nil, fmt.Errorf("sched: build %s: %w", name, err)
	}
	return s, nil
}

// needPaths validates the path slice shared by every baseline builder.
func needPaths(cfg BuildConfig) error {
	if len(cfg.Paths) == 0 {
		return fmt.Errorf("no paths")
	}
	return nil
}

func init() {
	Register(NameWFQ, func(cfg BuildConfig) (Scheduler, error) {
		if err := needPaths(cfg); err != nil {
			return nil, err
		}
		return NewWFQ(cfg.Streams, cfg.Paths[0], cfg.PaceLimit), nil
	})
	Register(NameMSFQ, func(cfg BuildConfig) (Scheduler, error) {
		if err := needPaths(cfg); err != nil {
			return nil, err
		}
		return NewMSFQ(cfg.Streams, cfg.Paths, cfg.PaceLimit), nil
	})
	Register(NameOptSched, func(cfg BuildConfig) (Scheduler, error) {
		if err := needPaths(cfg); err != nil {
			return nil, err
		}
		if cfg.Avail == nil {
			return nil, fmt.Errorf("OptSched requires BuildConfig.Avail (the bandwidth oracle)")
		}
		if cfg.TickSeconds <= 0 {
			return nil, fmt.Errorf("OptSched requires BuildConfig.TickSeconds")
		}
		return NewOptSched(cfg.Streams, cfg.Paths, cfg.Avail, cfg.TickSeconds, cfg.PaceLimit), nil
	})
	Register(NameBackpressure, func(cfg BuildConfig) (Scheduler, error) {
		if err := needPaths(cfg); err != nil {
			return nil, err
		}
		return NewBackpressure(cfg.Streams, cfg.Paths, cfg.PaceLimit), nil
	})
	rr := func(cfg BuildConfig) (Scheduler, error) {
		if err := needPaths(cfg); err != nil {
			return nil, err
		}
		return NewRoundRobin(cfg.Streams, cfg.Paths, cfg.PaceLimit), nil
	}
	Register(NameBlocked, rr)
	Register(NameRoundRobin, rr)
	Register(NamePartitioned, func(cfg BuildConfig) (Scheduler, error) {
		if err := needPaths(cfg); err != nil {
			return nil, err
		}
		return NewPartitioned(cfg.Streams, cfg.Paths, cfg.PaceLimit), nil
	})
}
