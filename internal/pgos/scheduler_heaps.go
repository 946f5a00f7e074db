package pgos

import (
	"math"

	"iqpaths/internal/heapx"
)

// This file holds the scheduler's incremental dispatch structures. The
// goal is to make the common per-tick consult — "is anything due under
// rule 2 / eligible under rule 3?" — cost O(log n) (usually O(1)) instead
// of a full stream × path scan, while reproducing the reference scans'
// decisions exactly (the differential tests' oracle enforces this).
//
// Both heaps use versioned lazy deletion: every (stream, path) cell —
// rule 2 — or stream — rule 3 — has a version counter, entries carry the
// version they were keyed under, and a popped entry whose version is
// stale is simply discarded. Mutating state bumps the version and, when
// the subject is still eligible, pushes one freshly keyed entry, so at
// most one *valid* entry per subject exists at any time.
//
// The rule-2 heap additionally exploits monotonicity: within a window,
// quota consumption only moves a slot's virtual deadline later, so an
// entry whose key predates some consumption still carries a lower bound
// on its true deadline. The heap top's stored key therefore lower-bounds
// every true deadline in the heap, and "top not due ⇒ nothing due" holds
// even with stale keys — the O(1) early exit that serves the overwhelming
// majority of consults. The one mutation that moves a deadline earlier
// (a send-failure quota restore) must bump the version and re-key.
//
// Because keys only grow between re-keys, the rule-2 heaps re-key in
// place: a stale top is corrected and sifted down, and a consumed winner
// — still its heap's top — takes its next slot's key and sifts down,
// leaving the heap only when its quota is spent. r2Less is a total order
// over a heap's valid entries, so the choice does not depend on the
// heap's layout.

// r2Entry is stream i's next scheduled slot in the rule-2 heap of its
// quota path, keyed by virtual deadline, window constraint breaking
// ties, then i so that equal keys resolve in the reference scan's
// first-encountered order (across heaps, the lower path comes first).
type r2Entry struct {
	dl  int64
	c   float64
	i   int32
	ver uint32
}

func r2Less(a, b r2Entry) bool {
	if a.dl != b.dl {
		return a.dl < b.dl
	}
	if a.c != b.c {
		return a.c > b.c
	}
	return a.i < b.i
}

// The rule-2 heaps carry nearly every packet near the feasibility edge —
// one sift per send — so they are 4-ary (half the levels of a binary
// heap) and sifted here with r2Less inlined, rather than through heapx's
// comparator callback.
const r2Arity = 4

func r2Push(h *[]r2Entry, e r2Entry) {
	*h = append(*h, e)
	s := *h
	k := len(s) - 1
	for k > 0 {
		p := (k - 1) / r2Arity
		if !r2Less(e, s[p]) {
			break
		}
		s[k] = s[p]
		k = p
	}
	s[k] = e
}

func r2Pop(h *[]r2Entry) {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	if n > 0 {
		r2Down(s[:n], 0)
	}
}

// r2Down restores the heap order below h[k] after its key grew.
func r2Down(h []r2Entry, k int) {
	e := h[k]
	for {
		c := k*r2Arity + 1
		if c >= len(h) {
			break
		}
		m := c
		for x := c + 1; x < c+r2Arity && x < len(h); x++ {
			if r2Less(h[x], h[m]) {
				m = x
			}
		}
		if !r2Less(h[m], e) {
			break
		}
		h[k] = h[m]
		k = m
	}
	h[k] = e
}

// r2State keeps one min-heap per quota path. A consult for a visit to
// path j takes the minimum over the *other* paths' tops, so own-path
// slots never need to be popped out of the way — with a single global
// heap, every consult had to stash the whole due prefix belonging to the
// visited path, which degenerated to the scan's O(due) cost exactly in
// the windows where many slots fall due together.
type r2State struct {
	heaps [][]r2Entry // [j]: slots whose quota path is j
	// dropped[i] marks that stream i's due cells were evicted from the
	// heaps while its queue was empty; the stream's next queue event
	// re-keys them. Without this, every consult would pop and restore the
	// whole due-but-empty set — O(due) per consult, the exact scan cost
	// the heaps exist to avoid.
	dropped []bool
	nPaths  int
}

func (r *r2State) reset(nStreams, nPaths int) {
	r.nPaths = nPaths
	if cap(r.heaps) < nPaths {
		r.heaps = make([][]r2Entry, nPaths)
	}
	r.heaps = r.heaps[:nPaths]
	for j := range r.heaps {
		r.heaps[j] = r.heaps[j][:0]
	}
	if cap(r.dropped) < nStreams {
		r.dropped = make([]bool, nStreams)
	} else {
		r.dropped = r.dropped[:nStreams]
		for i := range r.dropped {
			r.dropped[i] = false
		}
	}
}

// rebuildR2 reconstructs the rule-2 heap from the current quota cells
// (window boundary, path-set change, or spec invalidation). O(S·P) like
// the quota reset it accompanies, amortized over the whole window.
func (s *Scheduler) rebuildR2() {
	s.r2.reset(len(s.streams), len(s.paths))
	if !s.haveMap || s.cells == nil {
		return
	}
	for i := 0; i < len(s.cells)/s.r2.nPaths; i++ {
		c := s.streams[i].WindowConstraintRatio()
		for j, cl := range s.row(i) {
			if cl.left > 0 {
				s.r2.heaps[j] = append(s.r2.heaps[j], r2Entry{
					dl: s.slotDeadline(i, j), c: c,
					i: int32(i), ver: cl.ver,
				})
			}
		}
	}
	for _, h := range s.r2.heaps {
		for k := (len(h) - 2) / r2Arity; k >= 0 && len(h) > 1; k-- {
			r2Down(h, k)
		}
	}
}

// r2Requeue re-keys cell (i, j2): invalidate any outstanding entry and
// push a fresh one if quota remains.
func (s *Scheduler) r2Requeue(i, j2 int) {
	c := &s.cells[i*s.r2.nPaths+j2]
	c.ver++
	if c.left > 0 {
		r2Push(&s.r2.heaps[j2], r2Entry{
			dl: s.slotDeadline(i, j2), c: s.streams[i].WindowConstraintRatio(),
			i: int32(i), ver: c.ver,
		})
	}
}

// r2Touch re-keys cell (i, j2) after a quota *restore* (send failure).
// Restoration moves the slot deadline earlier, which breaks the
// lower-bound property any outstanding entry relies on — the stale entry
// must be invalidated, not lazily corrected.
func (s *Scheduler) r2Touch(i, j2 int) {
	if s.r2.nPaths == 0 || s.cells == nil {
		return
	}
	s.r2Requeue(i, j2)
}

// r2Consume spends one slot of rule 2's winner (i, j2), which
// selectOtherPathHeap left on top of heap j2: re-key it in place to its
// next slot's deadline, or drop it once its quota is spent.
func (s *Scheduler) r2Consume(i, j2 int) {
	c := &s.cells[i*s.r2.nPaths+j2]
	c.left--
	h := &s.r2.heaps[j2]
	if c.left > 0 {
		(*h)[0].dl = s.slotDeadline(i, j2)
		r2Down(*h, 0)
	} else {
		r2Pop(h)
	}
}

// selectOtherPathHeap resolves precedence rule 2 for a visit to path j:
// the due scheduled slot with the earliest virtual deadline on any
// *other* path whose stream has data. Returns (stream, quota path) or
// (-1, -1). The winner stays on top of its heap; the caller consumes it
// with r2Consume.
func (s *Scheduler) selectOtherPathHeap(j int, now int64) (int, int) {
	elapsed := now - s.windowStart
	var best r2Entry
	bestJ := -1
	for j2 := range s.r2.heaps {
		if j2 == j {
			// Own-path slots belong to rule 1; this heap sits untouched.
			continue
		}
		h := &s.r2.heaps[j2]
		for len(*h) > 0 {
			top := &(*h)[0]
			c := &s.cells[int(top.i)*s.r2.nPaths+j2]
			if top.ver != c.ver || c.left <= 0 {
				r2Pop(h)
				continue
			}
			if dl := s.slotDeadline(int(top.i), j2); dl != top.dl {
				// Stale key: rule-1 consumption on this cell pushed the
				// true deadline later. Correct in place and re-evaluate —
				// at most one correction per entry per consult, since
				// corrected keys are exact for the rest of the consult.
				top.dl = dl
				r2Down(*h, 0)
				continue
			}
			if top.dl > elapsed+s.lookahead {
				// The top's key lower-bounds every deadline in this heap:
				// nothing due on this path.
				break
			}
			if s.streams[top.i].Len() == 0 {
				// Empty queue: evict every due cell of this stream and
				// re-key on its next queue event (the observer checks
				// dropped[i]) — an empty stream can only become eligible
				// again via a push.
				s.r2.dropped[top.i] = true
				c.ver++
				r2Pop(h)
				continue
			}
			// Due and eligible: this path's candidate. Paths are visited
			// in order and only a strictly lower key displaces the best,
			// so the min over path tops under (dl, c, i, j) equals the
			// global scan's first-encountered winner.
			if bestJ < 0 || r2Less(*top, best) {
				best, bestJ = *top, j2
			}
			break
		}
	}
	if bestJ < 0 {
		return -1, -1
	}
	return int(best.i), bestJ
}

// r3Entry is one stream in the rule-3 (unscheduled traffic) heap, keyed
// by head-packet deadline (MaxInt64−1 for deadline-free packets), window
// constraint then stream index breaking ties. In the park heap dl is
// instead the wake-up tick.
type r3Entry struct {
	dl  int64
	c   float64
	i   int32
	ver uint32
}

func r3Less(a, b r3Entry) bool {
	if a.dl != b.dl {
		return a.dl < b.dl
	}
	if a.c != b.c {
		return a.c > b.c
	}
	return a.i < b.i
}

func r3ParkLess(a, b r3Entry) bool { return a.dl < b.dl }

// r3State tracks unscheduled-traffic candidates persistently across
// ticks. Streams enter via the dirty list — fed by the queue observer
// (every Push/Pop/PushFront), by quota events that change surplus
// without touching the queue (slot forfeits, window resets), and by the
// park heap when a gated stream's head packet expires. The heap then
// carries one valid keyed entry per broadly eligible stream, so an idle
// consult touches only what actually changed.
type r3State struct {
	heap    []r3Entry
	stash   []r3Entry // entries ineligible for the current path only
	park    []r3Entry // quota-gated streams awaiting head-packet expiry
	ver     []uint32
	dirty   []int32
	inDirty []bool
}

func (r *r3State) reset(n int) {
	if cap(r.ver) < n {
		r.ver = make([]uint32, n)
	} else {
		r.ver = r.ver[:n]
	}
	if cap(r.inDirty) < n {
		r.inDirty = make([]bool, n)
	} else {
		r.inDirty = r.inDirty[:n]
	}
	r.markAllDirty()
}

func (r *r3State) grow(n int) {
	for len(r.ver) < n {
		r.ver = append(r.ver, 0)
		r.inDirty = append(r.inDirty, false)
	}
}

// touch invalidates stream i's outstanding entries (heap and park) and
// queues it for re-evaluation at the next rule-3 consult.
func (r *r3State) touch(i int) {
	r.ver[i]++
	if !r.inDirty[i] {
		r.inDirty[i] = true
		r.dirty = append(r.dirty, int32(i))
	}
}

// markAllDirty drops all derived state and schedules a full rebuild —
// window boundaries (fresh quotas change every surplus), path-set
// changes, and spec invalidations.
func (r *r3State) markAllDirty() {
	r.heap = r.heap[:0]
	r.park = r.park[:0]
	r.dirty = r.dirty[:0]
	for i := range r.inDirty {
		r.inDirty[i] = true
		r.dirty = append(r.dirty, int32(i))
		r.ver[i]++
	}
}

// r3Drain wakes expired parked streams and re-evaluates everything on
// the dirty list, pushing a freshly keyed heap entry for each stream
// with queued surplus beyond its remaining window quota. Amortized O(1)
// per queue event.
func (s *Scheduler) r3Drain() {
	for len(s.r3.park) > 0 && s.r3.park[0].dl <= s.now {
		e := heapx.Pop(&s.r3.park, r3ParkLess)
		if e.ver != s.r3.ver[e.i] {
			continue
		}
		if !s.r3.inDirty[e.i] {
			s.r3.inDirty[e.i] = true
			s.r3.dirty = append(s.r3.dirty, e.i)
		}
	}
	if len(s.r3.dirty) == 0 {
		return
	}
	for _, i := range s.r3.dirty {
		s.r3.inDirty[i] = false
		st := s.streams[i]
		if st.Len() == 0 {
			continue
		}
		if s.cells != nil && st.Len()-s.totalRemaining(int(i)) <= 0 {
			continue
		}
		pkt := st.Peek()
		dl := pkt.Deadline
		if dl == 0 {
			dl = math.MaxInt64 - 1
		}
		heapx.Push(&s.r3.heap, r3Entry{
			dl: dl, c: st.WindowConstraintRatio(), i: i, ver: s.r3.ver[i],
		}, r3Less)
	}
	s.r3.dirty = s.r3.dirty[:0]
}

// selectUnscheduledHeap resolves precedence rule 3 for a visit to path j
// and returns the winning stream index (or -1). The fine-grained gating
// (quota hysteresis, expiry, own-path restriction) runs against live
// state at pop time; only the *key* and the broad eligibility set are
// maintained incrementally. The winner's entry is consumed — the Pop the
// caller performs fires the queue observer, which re-queues the stream.
func (s *Scheduler) selectUnscheduledHeap(j int) int {
	s.r3Drain()
	st := s.r3.stash[:0]
	best := -1
	for len(s.r3.heap) > 0 {
		top := s.r3.heap[0]
		if top.ver != s.r3.ver[top.i] {
			heapx.Pop(&s.r3.heap, r3Less)
			continue
		}
		stm := s.streams[top.i]
		pkt := stm.Peek()
		if pkt == nil {
			heapx.Pop(&s.r3.heap, r3Less)
			continue
		}
		if s.cells != nil {
			rem := s.totalRemaining(int(top.i))
			surplus := stm.Len() - rem
			if surplus <= 0 {
				// Quota caught up with the queue; the next queue or quota
				// event re-evaluates.
				heapx.Pop(&s.r3.heap, r3Less)
				continue
			}
			if rem > 0 {
				expired := pkt.Deadline != 0 && pkt.Deadline <= s.now
				if !expired {
					if surplus <= s.totalQuota(int(top.i))/10 {
						// Transient excess stays slot-paced. Eligibility
						// can only return via a queue/quota event — or by
						// the head packet expiring, so park on its
						// deadline when it has one.
						heapx.Pop(&s.r3.heap, r3Less)
						if pkt.Deadline != 0 {
							heapx.Push(&s.r3.park, r3Entry{dl: pkt.Deadline, i: top.i, ver: top.ver}, r3ParkLess)
						}
						continue
					}
					if s.cells[int(top.i)*len(s.paths)+j].mapped == 0 {
						// Non-expired surplus of a mapped stream stays on
						// its own paths; ineligible for this path only.
						heapx.Pop(&s.r3.heap, r3Less)
						st = append(st, top)
						continue
					}
				}
			}
		}
		heapx.Pop(&s.r3.heap, r3Less)
		best = int(top.i)
		break
	}
	for _, e := range st {
		heapx.Push(&s.r3.heap, e, r3Less)
	}
	s.r3.stash = st[:0]
	return best
}

// rebuildVPPos indexes V^P by path: vpPos[j] lists, ascending, the
// positions in the path vector that visit path j. nextFreePath then
// binary-searches each path's next visit instead of walking the vector.
func (s *Scheduler) rebuildVPPos() {
	if cap(s.vpPos) < len(s.paths) {
		s.vpPos = make([][]int32, len(s.paths))
	}
	s.vpPos = s.vpPos[:len(s.paths)]
	for j := range s.vpPos {
		s.vpPos[j] = s.vpPos[j][:0]
	}
	for pos, j := range s.vp {
		s.vpPos[j] = append(s.vpPos[j], int32(pos))
	}
}

// searchGE returns the first index in ascending a with a[idx] >= x.
func searchGE(a []int32, x int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// selectFreePathVP picks the next V^P visit with pace room. The visit
// under the cursor is at distance 0, so when its path is usable it is the
// answer; otherwise, for each usable path, binary-search its first visit
// at or after the cursor (cyclically) and take the nearest — exactly the
// visit the linear walk would have stopped at. Returns (path, next
// cursor) or (-1, -1).
func (s *Scheduler) selectFreePathVP() (int, int) {
	n := len(s.vp)
	if n == 0 {
		return -1, -1
	}
	if j := s.vp[s.vpCur]; s.blockedUntil[j] <= s.now && s.paths[j].QueuedPackets() < s.cfg.PaceLimit {
		return j, (s.vpCur + 1) % n
	}
	best, bestPos := -1, 0
	bestDist := n + 1
	for j := range s.paths {
		pos := s.vpPos[j]
		if len(pos) == 0 || s.blockedUntil[j] > s.now {
			continue
		}
		if s.paths[j].QueuedPackets() >= s.cfg.PaceLimit {
			continue
		}
		k := searchGE(pos, int32(s.vpCur))
		var p int
		if k < len(pos) {
			p = int(pos[k])
		} else {
			p = int(pos[0]) + n // wraps: first visit next lap
		}
		if d := p - s.vpCur; d < bestDist {
			bestDist, best, bestPos = d, j, p%n
		}
	}
	if best < 0 {
		return -1, -1
	}
	return best, (bestPos + 1) % n
}
