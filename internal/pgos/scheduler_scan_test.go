package pgos

import (
	"fmt"
	"math"
)

// This file holds the original O(S·P)-per-consult dispatch scans as pure
// selection functions. They are the behavioral specification the
// incremental structures in scheduler_heaps.go must match decision for
// decision: scanOracle, installed as Scheduler.oracle, runs them beside
// every dispatch consult and panics on divergence (see
// scheduler_diff_test.go). They mutate nothing, and they read the mapped
// packet counts from the Mapping itself, not from the quota cells'
// cached copy.

// scanOracle is the differential tests' dispatch oracle.
type scanOracle struct{ s *Scheduler }

// armOracle installs the reference-scan oracle on s.
func armOracle(s *Scheduler) { s.oracle = scanOracle{s} }

func (o scanOracle) freePath(j, nextCur int) {
	if js, ncs := o.s.selectFreePathScan(); js != j || ncs != nextCur {
		panic(fmt.Sprintf("pgos: V^P divergence: index got (%d,%d), scan (%d,%d)", j, nextCur, js, ncs))
	}
}

func (o scanOracle) otherPath(j int, now int64, i, j2 int) {
	if si, sj := o.s.selectOtherPathScan(j, now); si != i || sj != j2 {
		panic(fmt.Sprintf("pgos: rule-2 divergence at t=%d path %d: heap (%d,%d), scan (%d,%d)",
			now, j, i, j2, si, sj))
	}
}

func (o scanOracle) unscheduled(j, i int) {
	if si := o.s.selectUnscheduledScan(j); si != i {
		panic(fmt.Sprintf("pgos: rule-3 divergence at t=%d path %d: heap %d, scan %d", o.s.now, j, i, si))
	}
}

// scanLeft returns stream i's scheduled slots left on path j this window.
func (s *Scheduler) scanLeft(i, j int) int {
	if (i+1)*len(s.paths) > len(s.cells) {
		return 0
	}
	return int(s.cells[i*len(s.paths)+j].left)
}

// scanDeadline is slotDeadline computed from the Mapping's packet count.
func (s *Scheduler) scanDeadline(i, j int) int64 {
	total := s.mapping.Packets[i][j]
	k := total - s.scanLeft(i, j) + 1
	return int64(float64(k) / float64(total) * float64(s.windowTick))
}

// selectFreePathScan is the original V^P walk: from the cursor, the
// first position whose path is unblocked and has pace room. Returns the
// path and the cursor position that would follow, or (-1, -1).
func (s *Scheduler) selectFreePathScan() (int, int) {
	for k := 0; k < len(s.vp); k++ {
		idx := (s.vpCur + k) % len(s.vp)
		j := s.vp[idx]
		if s.blockedUntil[j] > s.now {
			continue
		}
		if s.paths[j].QueuedPackets() < s.cfg.PaceLimit {
			return j, (idx + 1) % len(s.vp)
		}
	}
	return -1, -1
}

// selectOtherPathScan is the original rule-2 scan: among due scheduled
// slots on paths other than j whose stream has data, the earliest
// virtual deadline; equal deadlines go to the higher window constraint,
// then first-encountered (stream, path) order.
func (s *Scheduler) selectOtherPathScan(j int, now int64) (int, int) {
	elapsed := now - s.windowStart
	bestI, bestJ := -1, -1
	bestDL := int64(math.MaxInt64)
	bestC := -1.0
	for i, st := range s.streams {
		if st.Len() == 0 || i >= len(s.mapping.Packets) {
			continue
		}
		for j2 := range s.paths {
			if j2 == j || s.scanLeft(i, j2) <= 0 {
				continue
			}
			dl := s.scanDeadline(i, j2)
			if dl > elapsed+s.lookahead {
				continue
			}
			c := st.WindowConstraintRatio()
			if dl < bestDL || (dl == bestDL && c > bestC) {
				bestI, bestJ, bestDL, bestC = i, j2, dl, c
			}
		}
	}
	return bestI, bestJ
}

// selectUnscheduledScan is the original rule-3 scan over all streams for
// a visit to path j: packets with no scheduled slot this window —
// best-effort streams, or guaranteed streams with a clear surplus beyond
// their quota (or expired heads) — earliest packet deadline first,
// window constraint breaking ties.
func (s *Scheduler) selectUnscheduledScan(j int) int {
	best := -1
	bestDL := int64(math.MaxInt64)
	bestC := -1.0
	for i, st := range s.streams {
		pkt := st.Peek()
		if pkt == nil {
			continue
		}
		if s.cells != nil {
			// Packets with scheduled slots waiting belong to rules 1–2.
			// Only a clear surplus beyond the window quota (a VBR burst or
			// a backlogged guaranteed stream) — or expired packets — rides
			// rule 3; small transient excesses from frame-burst arrival
			// phasing stay slot-paced, and non-expired surplus of a mapped
			// stream stays on its own paths (no uninvited reordering).
			rem, quota := 0, 0
			for j2 := range s.paths {
				rem += s.scanLeft(i, j2)
				if i < len(s.mapping.Packets) {
					quota += s.mapping.Packets[i][j2]
				}
			}
			surplus := st.Len() - rem
			if surplus <= 0 {
				continue
			}
			if rem > 0 {
				expired := pkt.Deadline != 0 && pkt.Deadline <= s.now
				if !expired {
					if surplus <= quota/10 {
						continue
					}
					if i < len(s.mapping.Packets) && s.mapping.Packets[i][j] == 0 {
						continue
					}
				}
			}
		}
		dl := pkt.Deadline
		if dl == 0 {
			dl = math.MaxInt64 - 1
		}
		c := st.WindowConstraintRatio()
		if dl < bestDL || (dl == bestDL && c > bestC) {
			best, bestDL, bestC = i, dl, c
		}
	}
	return best
}
