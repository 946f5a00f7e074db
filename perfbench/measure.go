package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter samples the process-wide cost counters the benchmark reports:
// CPU time from getrusage, heap allocations from runtime/metrics, and
// wall time. Cost is always read this way — never as the rate of a
// saturated loop, which drifts with the host's other load.
type meter struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs returns the cumulative count of heap objects allocated by
// the process.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func startMeter() meter {
	return meter{wall: time.Now(), cpu: processCPU(), allocs: heapAllocs()}
}

// cost is what the process spent between startMeter and stop.
type cost struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
}

func (m meter) stop() cost {
	return cost{
		wall:   time.Since(m.wall),
		cpu:    processCPU() - m.cpu,
		allocs: heapAllocs() - m.allocs,
	}
}

// cpuFrac is the measured phase's CPU time over its wall time: the share
// of one core the open-loop generator drove the process to.
func (c cost) cpuFrac() float64 {
	if c.wall <= 0 {
		return 0
	}
	return c.cpu.Seconds() / c.wall.Seconds()
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median of a small sample (mean of the middle pair for even lengths).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pauseGC turns the collector off until the returned function is
// called. Set-ups are timed with it off, and collected explicitly between
// them: a collection cycle lands at a different point of a set-up from
// run to run, and moved set-up times by ±15 %, against ±5 % without it.
func pauseGC() (resume func()) {
	gc := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(gc) }
}

// timeSetup returns how long build takes, in seconds, after collecting
// the previous set-up's garbage so every set-up starts from the same
// heap. Call it with the collector paused.
func timeSetup(build func()) float64 {
	runtime.GC()
	t0 := time.Now()
	build()
	return time.Since(t0).Seconds()
}

// setupReps is how many times sim_plane and control_plane, whose
// set-ups take a few milliseconds, set themselves up in a run; setup_s
// is the median.
const setupReps = 45

// quartiles matches Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so the steadiness report reads the same
// spread a Python check of the same values would.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func frac(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// sliceMark is the process's cost counters, the operations completed so
// far, and the host's steal counter at one instant of the measured phase.
type sliceMark struct {
	cpu    time.Duration
	allocs uint64
	ops    float64
	steal  uint64
}

func markNow(ops float64) sliceMark {
	return sliceMark{cpu: processCPU(), allocs: heapAllocs(), ops: ops, steal: stealTicks()}
}

// stealTicks returns the CPU time the hypervisor has stolen from this
// virtual machine, in clock ticks (the steal column of /proc/stat); 0
// where the kernel does not report it.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return v
}

// stealShare is the share of the host's CPUs the hypervisor stole from
// this VM between the first and last mark, over wall seconds (steal is
// counted in USER_HZ = 100 ticks per second per CPU).
func stealShare(marks []sliceMark, wall time.Duration) float64 {
	if len(marks) < 2 || wall <= 0 {
		return 0
	}
	ticks := float64(marks[len(marks)-1].steal - marks[0].steal)
	return ticks / 100 / (wall.Seconds() * float64(runtime.NumCPU()))
}

// quiet marks the slices between consecutive marks in which the
// hypervisor stole at most one clock tick more than in the run's
// quietest slice: every slice when steal is flat or not reported. On a
// shared host a neighbour steals whole milliseconds from this VM in most
// seconds of some runs; a slice with steal reads a tail several times the
// quiet one's, so the figures are read over the quiet slices to measure
// the system, not its neighbours.
func quiet(marks []sliceMark) []bool {
	n := len(marks) - 1
	if n < 1 {
		return nil
	}
	steal := make([]uint64, n)
	least := uint64(math.MaxUint64)
	for i := range steal {
		steal[i] = marks[i+1].steal - marks[i].steal
		least = min(least, steal[i])
	}
	q := make([]bool, n)
	for i, s := range steal {
		q[i] = s <= least+1
	}
	return q
}

// perOp returns CPU µs per operation as the median over the quiet slices,
// and heap objects per operation over the whole phase: allocation counts
// do not depend on the host, so the whole-phase ratio is the steadier one.
func perOp(marks []sliceMark) (cpuUs, allocs float64) {
	var cs []float64
	q := quiet(marks)
	for i := 1; i < len(marks); i++ {
		if ops := marks[i].ops - marks[i-1].ops; ops > 0 && q[i-1] {
			cs = append(cs, (marks[i].cpu-marks[i-1].cpu).Seconds()*1e6/ops)
		}
	}
	first, last := marks[0], marks[len(marks)-1]
	return median(cs), frac(float64(last.allocs-first.allocs), last.ops-first.ops)
}

// sliceQuantile returns the median over slices of each slice's
// q-quantile, skipping empty slices and, when keep is non-nil, the
// slices it does not keep.
func sliceQuantile(slices [][]float64, q float64, keep []bool) float64 {
	var qs []float64
	for i, s := range slices {
		if len(s) > 0 && (keep == nil || (i < len(keep) && keep[i])) {
			qs = append(qs, quantile(s, q))
		}
	}
	return median(qs)
}

// samples returns how many values the slices hold.
func samples(slices [][]float64) int {
	n := 0
	for _, s := range slices {
		n += len(s)
	}
	return n
}
