package main

import "iqpaths/internal/pgos"

// pgosLayer derives the scheduler's per-layer figures from its counters:
// remaps per scheduling window, the share of sends under each Table 1
// precedence rule, forfeited scheduled slots, and refused sends.
func pgosLayer(L map[string]float64, st pgos.Stats, windows float64) {
	sent := float64(st.ScheduledSent + st.OtherPathSent + st.UnscheduledSent)
	L["pgos.remaps_per_window"] = frac(float64(st.Remaps), windows)
	L["pgos.rule1_frac"] = frac(float64(st.ScheduledSent), sent)
	L["pgos.rule2_frac"] = frac(float64(st.OtherPathSent), sent)
	L["pgos.rule3_frac"] = frac(float64(st.UnscheduledSent), sent)
	L["pgos.slot_miss_frac"] = frac(float64(st.SlotMisses), float64(st.ScheduledSent+st.SlotMisses))
	L["pgos.send_failures"] = float64(st.SendFailures)
}

// traceLayer records the traced run's own end-to-end figures; their
// difference from the untraced runs' medians is the tracing overhead.
func traceLayer(L map[string]float64, out *outcome, ls layerStats) {
	for _, k := range []string{"cpu_us_per_op", "allocs_per_op", "hit_frac", "goodput_mbps", "delay_p50_ms", "delay_p99_ms"} {
		L["trace."+k] = out.e2e[k]
	}
	L["trace.spans"] = float64(ls.count)
}
