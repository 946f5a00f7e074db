package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// steadiness repeats each workload n times, seeds seed..seed+n-1, each in
// its own process, then runs it once traced. For every end-to-end metric
// it prints the median, the quartiles (Python statistics.quantiles,
// n=4) and the spread (Q3−Q1)/median, flagging any spread beyond the
// metric's bound, and the runs' median and largest steal_frac and
// gen.cpu_frac, so a set run on a busy host, or one that left the
// open-loop regime, shows; for the traced run it prints the tracing
// overhead on cpu_us_per_op and allocs_per_op. It exits non-zero when a
// spread exceeds its bound or a run fails a correctness check.
func steadiness(bf benchFile, n int, seed int64, seconds int) error {
	bad := 0
	for _, wl := range bf.Workloads {
		w := wl.Name
		vals := map[string][]float64{}
		var steal, cpu []float64
		failed := 0
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			res, env, err := runChild(w, s, seconds, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			failed += res.Failed
			steal = append(steal, env.Steal)
			cpu = append(cpu, env.CPU)
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w, s)
		}
		fmt.Printf("\n%s: %d runs, %d failed operations\n", w, n, failed)
		fmt.Printf("  steal_frac median %.3f max %.3f, gen.cpu_frac median %.3f max %.3f\n",
			median(steal), quantile(steal, 1), median(cpu), quantile(cpu, 1))
		fmt.Printf("  %-16s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range bf.EndToEnd {
			q1, q2, q3 := quartiles(vals[d.Name])
			spread := math.Abs(q3-q1) / math.Abs(q2)
			flag := ""
			switch {
			case spread > d.Bound:
				flag = "EXCEEDS BOUND"
				bad++
			case spread > d.Bound/3:
				flag = "above bound/3"
			}
			fmt.Printf("  %-16s %12.6g %12.6g %12.6g %8.4f %6.3f %s\n", d.Name, q1, q2, q3, spread, d.Bound, flag)
		}
		tr, _, err := runChild(w, seed, seconds, true)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w, err)
		}
		failed += tr.Failed
		for _, m := range []string{"cpu_us_per_op", "allocs_per_op"} {
			traced := tr.Metrics["trace."+m].Value
			base := median(vals[m])
			fmt.Printf("  tracing overhead %-14s traced %.6g vs untraced median %.6g (%+.1f%%)\n",
				m, traced, base, 100*(traced-base)/base)
		}
		if deterministic[w] {
			// Outcomes decided in schedule time must not depend on tracing.
			for _, m := range []string{"hit_frac", "goodput_mbps", "delay_p50_ms", "delay_p99_ms"} {
				if a, b := tr.Metrics["trace."+m].Value, vals[m][0]; a != b {
					fmt.Printf("  traced %s %v differs from untraced %v on seed %d\n", m, a, b, seed)
					failed++
				}
			}
		}
		if failed > 0 {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric spreads beyond bound or runs with failed checks", bad)
	}
	return nil
}

// deterministic names the workloads whose hit_frac, goodput_mbps and
// delays are decided in schedule time (sim_plane's virtual network,
// control_plane's single-goroutine schedule and seeded gossip), so a
// seed's traced run must reproduce them exactly.
var deterministic = map[string]bool{"sim_plane": true, "control_plane": true}

// runEnv is the part of a run's environment line the report reads.
type runEnv struct {
	Steal float64 `json:"steal_frac"`
	CPU   float64 `json:"gen.cpu_frac"`
}

// runChild runs one workload in a fresh process of this binary and
// parses its environment and result lines.
func runChild(workload string, seed int64, seconds int, trace bool) (result, runEnv, error) {
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, runEnv{}, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	var env struct{ Env runEnv }
	if len(lines) < 2 {
		return result{}, runEnv{}, errors.New("no environment and result lines")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &env); err != nil {
		return result{}, runEnv{}, fmt.Errorf("environment line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, runEnv{}, fmt.Errorf("result line: %w", err)
	}
	return res, env.Env, nil
}
