package pgos

import (
	"cmp"
	"slices"

	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
)

// Mapping is the output of utility-based resource mapping: how many
// packets of each stream are scheduled per window on each path, which
// streams got a single path (preferred — no reordering), and which were
// refused by admission control.
type Mapping struct {
	// Packets[i][j] is the number of stream i's packets scheduled per
	// window on path j (Tp^j_i in the paper).
	Packets [][]int
	// SinglePath[i] is stream i's path when mapped whole, else -1 (split
	// across paths or unscheduled).
	SinglePath []int
	// Rejected[i] reports that admission control could not satisfy
	// stream i even split across all paths.
	Rejected []bool
	// Committed[j] is the total rate (Mbps) promised on path j.
	Committed []float64
	// TwSec is the scheduling window the mapping was computed for.
	TwSec float64
	// MeanPrediction records that the mapping was computed from mean
	// bandwidth predictions instead of the distribution (ablation mode).
	MeanPrediction bool
}

// appendMapOrder writes stream indices in mapping priority order into
// dst's storage and returns them: probabilistic guarantees first
// (highest probability, then highest rate), then violation-bound
// (tightest bound first). Best-effort streams are not mapped — they
// ride the unscheduled precedence rule. The returned slice aliases dst's
// storage when it has capacity.
func appendMapOrder(dst []int, streams []*stream.Stream) []int {
	dst = dst[:0]
	for i, s := range streams {
		if s.Kind == stream.Probabilistic {
			dst = append(dst, i)
		}
	}
	nProb := len(dst)
	for i, s := range streams {
		if s.Kind == stream.ViolationBound {
			dst = append(dst, i)
		}
	}
	slices.SortStableFunc(dst[:nProb], func(a, b int) int {
		sa, sb := streams[a], streams[b]
		switch {
		case sa.Probability > sb.Probability:
			return -1
		case sa.Probability < sb.Probability:
			return 1
		case sa.RequiredMbps > sb.RequiredMbps:
			return -1
		case sa.RequiredMbps < sb.RequiredMbps:
			return 1
		}
		return 0
	})
	slices.SortStableFunc(dst[nProb:], func(a, b int) int {
		va, vb := streams[a].MaxViolations, streams[b].MaxViolations
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return 0
	})
	return dst
}

// MapOptions tunes ComputeMappingOpts.
type MapOptions struct {
	// MeanPrediction makes the mapper treat each path's *mean* bandwidth
	// as its prediction (the adaptive-middleware state of the art the
	// paper argues against), instead of the distribution percentiles.
	// Used by the predictor-contribution ablation.
	MeanPrediction bool
	// InitialCommitted, when non-nil (parallel to the CDFs), seeds each
	// path's committed rate in Mbps before any stream is mapped. The
	// control plane's admission test uses it to ask "does this candidate
	// fit *after* the rates already promised to admitted streams" without
	// letting the candidate's priority displace them.
	InitialCommitted []float64
}

// ComputeMapping runs the resource-mapping step of Fig. 7 (line 3): for
// each guaranteed stream in priority order it finds a single path
// satisfying its guarantee; failing that it divides the stream across
// paths; failing that it rejects the stream (the caller surfaces the
// upcall). cdfs[j] is path j's current bandwidth distribution.
// testonly: the one-shot mapping the root package's benchmarks and pgos's
// mapping tests call.
func ComputeMapping(streams []*stream.Stream, cdfs []stats.Distribution, twSec float64) Mapping {
	return ComputeMappingOpts(streams, cdfs, twSec, MapOptions{})
}

// ComputeMappingOpts is ComputeMapping with explicit options: a one-shot
// Mapper whose buffers the returned Mapping keeps.
func ComputeMappingOpts(streams []*stream.Stream, cdfs []stats.Distribution, twSec float64, opt MapOptions) Mapping {
	var mp Mapper
	return *mp.Map(streams, cdfs, twSec, opt)
}

// Mapper computes mappings into buffers it owns (one flat n×l cell slice
// behind the Packets rows, the other vectors, the kernel's scratch), so
// repeated mapping allocates only while they grow. The Mapping Map
// returns, and every slice in it, is valid until the mapper's next Map.
// The zero Mapper is ready to use; it is not safe for concurrent use.
type Mapper struct {
	m     Mapping
	cells []int
	order []int
	// cv memoizes each path's coefficient of variation for one Map: the
	// distributions do not change during the call, and a window
	// distribution walks its whole window for Mean and StdDev.
	cv      []float64
	cvKnown []bool
	hs      []headroom
	alloc   []int
}

// reuse returns s resized to n zeroed elements, reallocating only when
// its capacity is short.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Map runs the resource-mapping kernel (see ComputeMapping) into the
// mapper's buffers.
func (mp *Mapper) Map(streams []*stream.Stream, cdfs []stats.Distribution, twSec float64, opt MapOptions) *Mapping {
	n, l := len(streams), len(cdfs)
	m := &mp.m
	mp.cells = reuse(mp.cells, n*l)
	m.Packets = reuse(m.Packets, n)
	m.SinglePath = reuse(m.SinglePath, n)
	for i := range m.Packets {
		m.Packets[i] = mp.cells[i*l : (i+1)*l : (i+1)*l]
		m.SinglePath[i] = -1
	}
	m.Rejected = reuse(m.Rejected, n)
	m.Committed = reuse(m.Committed, l)
	m.TwSec, m.MeanPrediction = twSec, opt.MeanPrediction
	for j, c := range opt.InitialCommitted {
		if j < l && c > 0 {
			m.Committed[j] = c
		}
	}
	mp.cv, mp.cvKnown = reuse(mp.cv, l), reuse(mp.cvKnown, l)
	mp.order = appendMapOrder(mp.order, streams)
	for _, i := range mp.order {
		s := streams[i]
		x := s.RequiredPacketsPerWindow(twSec)
		if x <= 0 {
			continue
		}
		switch s.Kind {
		case stream.Probabilistic:
			mp.mapProbabilistic(s, i, x, cdfs, twSec)
		case stream.ViolationBound:
			mp.mapViolationBound(s, i, x, cdfs, twSec)
		}
	}
	return m
}

// cvAt returns path j's coefficient of variation (1 for a non-positive
// mean).
func (mp *Mapper) cvAt(j int, cdf stats.Distribution) float64 {
	if !mp.cvKnown[j] {
		v := 1.0
		if mean := cdf.Mean(); mean > 0 {
			v = cdf.StdDev() / mean
		}
		mp.cv[j], mp.cvKnown[j] = v, true
	}
	return mp.cv[j]
}

// headroom is one path's feasible rate for a split mapping.
type headroom struct {
	j    int
	rate float64
}

func (mp *Mapper) mapProbabilistic(s *stream.Stream, i, x int, cdfs []stats.Distribution, twSec float64) {
	m := &mp.m
	b0 := s.RequiredMbps
	// Single path: among paths meeting the guarantee, take the one with
	// the highest guarantee probability; probabilities within 2 % are
	// treated as equal and broken toward the more *stable* path (lower
	// coefficient of variation) — the paper's "use paths with more stable
	// bandwidths for critical traffic".
	best, bestProb, bestCV := -1, 0.0, 0.0
	for j, cdf := range cdfs {
		p := m.guaranteeProb(cdf, x, s.PacketBits, twSec, m.Committed[j])
		if p < s.Probability {
			continue
		}
		cv := mp.cvAt(j, cdf)
		better := p > bestProb+0.02 ||
			(p > bestProb-0.02 && best >= 0 && cv < bestCV) ||
			best < 0
		if better {
			best, bestProb, bestCV = j, p, cv
		}
	}
	if best >= 0 {
		m.Packets[i][best] = x
		m.SinglePath[i] = best
		m.Committed[best] += b0
		return
	}
	// Split: take each path's feasible headroom, largest first. A stream
	// with no rate (its need set by WindowX alone) has nothing to split.
	hs := slices.Grow(mp.hs[:0], len(cdfs))
	total := 0.0
	for j, cdf := range cdfs {
		h := m.feasibleRate(cdf, s.Probability, m.Committed[j])
		if h > 0 {
			hs = append(hs, headroom{j, h})
			total += h
		}
	}
	mp.hs = hs
	if b0 <= 0 || total < b0 {
		m.Rejected[i] = true
		return
	}
	slices.SortFunc(hs, func(a, b headroom) int { return cmp.Compare(b.rate, a.rate) }) // rates are finite
	remainingRate := b0
	remainingPkts := x
	for k, h := range hs {
		take := h.rate
		if take > remainingRate {
			take = remainingRate
		}
		pkts := int(float64(x)*take/b0 + 0.5)
		if k == len(hs)-1 || pkts > remainingPkts {
			pkts = remainingPkts
		}
		if pkts == 0 && remainingPkts > 0 && take > 0 {
			pkts = 1
		}
		m.Packets[i][h.j] = pkts
		m.Committed[h.j] += take
		remainingRate -= take
		remainingPkts -= pkts
		if remainingRate <= 1e-12 && remainingPkts == 0 {
			break
		}
	}
	// Any rounding residue lands on the widest path.
	if remainingPkts > 0 {
		m.Packets[i][hs[0].j] += remainingPkts
	}
}

func (mp *Mapper) mapViolationBound(s *stream.Stream, i, x int, cdfs []stats.Distribution, twSec float64) {
	m := &mp.m
	// Single path: the one with the smallest E[Z], if within bound.
	best, bestEZ := -1, 0.0
	for j, cdf := range cdfs {
		ez := ExpectedViolations(cdf, x, s.PacketBits, twSec, m.Committed[j])
		if best < 0 || ez < bestEZ {
			best, bestEZ = j, ez
		}
	}
	if best >= 0 && bestEZ <= s.MaxViolations {
		m.Packets[i][best] = x
		m.SinglePath[i] = best
		m.Committed[best] += s.RequiredMbps
		return
	}
	// Split greedily in chunks, always adding to the path whose marginal
	// E[Z] increase is smallest (the paper's Σ E[Z^j_i]·x^j_i/x^j ≤ E[Z_i]
	// division, approached constructively).
	chunk := x / 16
	if chunk < 1 {
		chunk = 1
	}
	alloc := reuse(mp.alloc, len(cdfs))
	mp.alloc = alloc
	if len(cdfs) == 0 {
		m.Rejected[i] = true
		return
	}
	for remaining := x; remaining > 0; {
		c := chunk
		if c > remaining {
			c = remaining
		}
		bestJ, bestDelta := -1, 0.0
		for j, cdf := range cdfs {
			cur := ExpectedViolations(cdf, alloc[j], s.PacketBits, twSec, m.Committed[j])
			next := ExpectedViolations(cdf, alloc[j]+c, s.PacketBits, twSec, m.Committed[j])
			delta := next - cur
			if bestJ < 0 || delta < bestDelta {
				bestJ, bestDelta = j, delta
			}
		}
		alloc[bestJ] += c
		remaining -= c
	}
	totalEZ := 0.0
	for j, cdf := range cdfs {
		totalEZ += ExpectedViolations(cdf, alloc[j], s.PacketBits, twSec, m.Committed[j])
	}
	if totalEZ > s.MaxViolations {
		m.Rejected[i] = true
		return
	}
	for j, a := range alloc {
		m.Packets[i][j] = a
		m.Committed[j] += s.RequiredMbps * float64(a) / float64(x)
	}
}

// satisfyScratch carries satisfiedWith's working buffers so a caller
// re-checking every window (the PGOS scheduler) allocates nothing.
type satisfyScratch struct {
	order     []int
	committed []float64
}

func (m *Mapping) satisfiedWith(streams []*stream.Stream, cdfs []stats.Distribution, slack float64, sc *satisfyScratch) bool {
	if len(m.Packets) != len(streams) {
		return false
	}
	// Rebuild committed-below bookkeeping in mapping priority order so each
	// stream is checked against the load of streams mapped before it.
	sc.order = appendMapOrder(sc.order[:0], streams)
	if cap(sc.committed) < len(cdfs) {
		sc.committed = make([]float64, len(cdfs))
	}
	committed := sc.committed[:len(cdfs)]
	for j := range committed {
		committed[j] = 0
	}
	for _, i := range sc.order {
		s := streams[i]
		if m.Rejected[i] || s.Kind == stream.BestEffort {
			continue
		}
		for j, pkts := range m.Packets[i] {
			if pkts == 0 {
				continue
			}
			share := s.RequiredMbps * float64(pkts) / float64(maxInt(s.RequiredPacketsPerWindow(m.TwSec), 1))
			switch s.Kind {
			case stream.Probabilistic:
				p := m.guaranteeProb(cdfs[j], pkts, s.PacketBits, m.TwSec, committed[j])
				if p+slack < s.Probability {
					return false
				}
			case stream.ViolationBound:
				ez := ExpectedViolations(cdfs[j], pkts, s.PacketBits, m.TwSec, committed[j])
				if ez > s.MaxViolations*(1+slack) {
					return false
				}
			}
			committed[j] += share
		}
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// guaranteeProb evaluates Lemma 1, or its degenerate mean-prediction form
// (probability 1 when the mean covers the need, 0 otherwise) when the
// mapping runs in the ablation's MeanPrediction mode.
func (m *Mapping) guaranteeProb(cdf stats.Distribution, x int, sBits, twSec, committed float64) float64 {
	if !m.MeanPrediction {
		return GuaranteeProbability(cdf, x, sBits, twSec, committed)
	}
	if cdf.IsEmpty() || x <= 0 {
		return 0
	}
	need := committed + float64(x)*sBits/twSec/1e6
	if cdf.Mean() >= need {
		return 1
	}
	return 0
}

// feasibleRate mirrors FeasibleRate, reading the mean instead of the
// (1−p) quantile in MeanPrediction mode.
func (m *Mapping) feasibleRate(cdf stats.Distribution, p, committed float64) float64 {
	if !m.MeanPrediction {
		return FeasibleRate(cdf, p, committed)
	}
	r := cdf.Mean() - committed
	if r < 0 {
		return 0
	}
	return r
}
