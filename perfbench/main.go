// Command perfbench is IQ-Paths' open-loop benchmark. Each workload
// offers the system a fixed, seeded schedule well below saturation — one
// generator process, at most two connections — and reports what a user
// of the overlay sees (guarantee hit rate, goodput, delay, loss) and
// what the source host pays for it (process CPU and heap allocations per
// operation, peak RSS, set-up time). A traced run (--trace 1) records
// spans around the calls into each layer and reports per-layer figures
// instead. See README.md for the workloads and the metric map.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload live_overlay --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --steady 10 --seed 1 --seconds 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// heldOutSeed is never used while developing or tuning the benchmark:
// a claimed gain must also hold when re-run with --seed heldOutSeed.
const heldOutSeed = 90001

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// outcome is what one workload run produced. e2e and layer hold every
// metric the workload measured; main emits the declared set.
type outcome struct {
	attempted int
	failed    int
	checks    []string // failed correctness checks, for stderr
	e2e       map[string]float64
	layer     map[string]float64
	// stealFrac is the share of the host's CPUs stolen from this VM
	// during the measured phase, for the environment line.
	stealFrac float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records one correctness check; a failing check counts as one
// failed operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failed++
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

type runConfig struct {
	seed    int64
	seconds int
	trace   bool
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"live_overlay":  runLiveOverlay,
	"sim_plane":     runSimPlane,
	"control_plane": runControlPlane,
}

func main() {
	workload := flag.String("workload", "", "workload to run: live_overlay, sim_plane, control_plane")
	seed := flag.Int64("seed", 1, "workload seed; the schedule and scenario derive only from it")
	seconds := flag.Int("seconds", 10, "measured-phase length in seconds")
	trace := flag.Int("trace", 0, "1 records per-layer spans and reports per_layer metrics")
	steady := flag.Int("steady", 0, "repeat every workload this many times (seeds seed, seed+1, ...) and print the steadiness report")
	flag.Parse()

	bf, err := readBenchFile()
	if err != nil {
		fatal(err)
	}
	if *steady > 0 {
		if err := steadiness(bf, *steady, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown --workload %q", *workload))
	}
	if *seconds < 1 {
		fatal(errors.New("--seconds must be at least 1"))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	out.e2e["rss_mb"] = peakRSSMB()
	for _, c := range out.checks {
		fmt.Fprintln(os.Stderr, "check failed:", c)
	}
	printEnv(*workload, cfg, out)
	if err := printResult(bf, cfg, out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func readBenchFile() (benchFile, error) {
	var bf benchFile
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return bf, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// printEnv writes the run's environment line: where and how it ran, and
// gen.cpu_frac, so a run that slipped toward saturation is visible.
func printEnv(workload string, cfg runConfig, out *outcome) {
	env := map[string]any{
		"workload":     workload,
		"seed":         cfg.seed,
		"heldout_seed": heldOutSeed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"commit":       commit(),
		"gen.cpu_frac": out.layer["gen.cpu_frac"],
		"steal_frac":   out.stealFrac,
	}
	b, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision: run.sh passes it from git when the
// checkout is a repository, else the build's VCS stamp, else "unknown".
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// printResult emits exactly the declared metric set for the run's mode;
// a declared metric the workload did not measure is a benchmark bug.
func printResult(bf benchFile, cfg runConfig, out *outcome) error {
	defs, have := bf.EndToEnd, out.e2e
	if cfg.trace {
		defs, have = bf.PerLayer, out.layer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	declared := map[string]bool{}
	var missing []string
	for _, d := range defs {
		declared[d.Name] = true
		v, ok := have[d.Name]
		if !ok && cfg.trace {
			// A layer the workload does not exercise did no work.
			v, ok = 0, true
		}
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range have {
		if !declared[name] {
			missing = append(missing, name+" (undeclared)")
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not in BENCHMARK.json's set: %s", strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
