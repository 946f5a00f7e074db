package sched

import (
	"iqpaths/internal/heapx"
	"iqpaths/internal/stream"
)

// FQ implements weighted fair queuing over one or more path services.
// With a single path it is the paper's "Non-Overlay Fair Queuing" (WFQ)
// baseline; with several it is Multi-Server Fair Queuing (MSFQ): whenever
// any server (path) can accept work, the stream with the smallest
// weighted service so far sends on it, which maintains the aggregate
// proportions across servers — but, as the paper shows, says nothing
// about the absolute bandwidth any one stream receives.
//
// Stream selection runs on a min-heap keyed by (virtual time asc, stream
// index asc) instead of a per-dispatch linear scan, so a dispatch costs
// O(log S) rather than O(S). Entries are invalidated by version number:
// every queue event (via the stream observer) or service update marks the
// stream dirty, and the next pickStream call re-keys dirty streams before
// consulting the heap, which keeps heap order exactly equal to what the
// scan would have chosen.
type FQ struct {
	name    string
	streams []*stream.Stream
	paths   []PathService
	// served accumulates weight-normalized bits served per stream (the
	// stream's virtual time).
	served []float64
	// PaceLimit bounds per-path queued packets.
	paceLimit int

	// heap holds at most one valid entry per backlogged stream; stale
	// entries (ver mismatch) are discarded lazily at pop.
	heap      []fqEntry
	ver       []uint32
	dirty     []bool
	dirtyList []int32
}

// fqEntry is a heap key: the stream's virtual time when the entry was
// pushed, its index, and the version stamping the entry valid.
type fqEntry struct {
	served float64
	idx    int32
	ver    uint32
}

// fqLess orders by virtual time ascending, ties broken by stream index —
// the same winner the linear scan's first-strictly-smaller rule picks.
func fqLess(a, b fqEntry) bool {
	if a.served != b.served {
		return a.served < b.served
	}
	return a.idx < b.idx
}

// NewWFQ builds the single-path weighted-fair-queuing baseline.
func NewWFQ(streams []*stream.Stream, path PathService, paceLimit int) *FQ {
	return newFQ("WFQ", streams, []PathService{path}, paceLimit)
}

// NewMSFQ builds multi-server fair queuing over the given paths.
func NewMSFQ(streams []*stream.Stream, paths []PathService, paceLimit int) *FQ {
	return newFQ("MSFQ", streams, paths, paceLimit)
}

func newFQ(name string, streams []*stream.Stream, paths []PathService, paceLimit int) *FQ {
	if len(streams) == 0 || len(paths) == 0 {
		panic("sched: FQ needs streams and paths")
	}
	if paceLimit <= 0 {
		paceLimit = DefaultPaceLimit
	}
	f := &FQ{
		name:      name,
		streams:   streams,
		paths:     paths,
		served:    make([]float64, len(streams)),
		paceLimit: paceLimit,
		heap:      make([]fqEntry, 0, len(streams)),
		ver:       make([]uint32, len(streams)),
		dirty:     make([]bool, len(streams)),
		dirtyList: make([]int32, 0, len(streams)),
	}
	// Queue events (push/pop) must re-key the stream in the heap; streams
	// may already hold backlog, so everything starts dirty.
	for i, s := range f.streams {
		i := i
		s.SetObserver(func(int) { f.markDirty(i) })
		f.markDirty(i)
	}
	return f
}

// Name implements Scheduler.
func (f *FQ) Name() string { return f.name }

// Tick implements Scheduler: while some path has room and some stream has
// backlog, dispatch the stream with the least weighted service.
func (f *FQ) Tick(now int64) {
	for {
		path := f.nextFreePath()
		if path == nil {
			return
		}
		si := f.pickStream()
		if si < 0 {
			return
		}
		s := f.streams[si]
		pkt := s.Pop() // fires the observer, re-keying si before the next pick
		f.served[si] += pkt.Bits / s.Weight
		if !path.Send(pkt) {
			// Blocked despite pacing (shared first hop); stop this tick.
			return
		}
	}
}

func (f *FQ) markDirty(i int) {
	if !f.dirty[i] {
		f.dirty[i] = true
		f.dirtyList = append(f.dirtyList, int32(i))
	}
}

// pickStream returns the backlogged stream with minimum virtual time, or
// -1 when all are empty. It is idempotent: consulting the heap does not
// consume the winner (the dispatch's Pop re-keys it via the observer).
func (f *FQ) pickStream() int {
	for _, i := range f.dirtyList {
		f.dirty[i] = false
		f.ver[i]++
		if f.streams[i].Len() > 0 {
			heapx.Push(&f.heap, fqEntry{served: f.served[i], idx: i, ver: f.ver[i]}, fqLess)
		}
	}
	f.dirtyList = f.dirtyList[:0]
	for len(f.heap) > 0 {
		e := f.heap[0]
		i := int(e.idx)
		if e.ver != f.ver[i] || f.streams[i].Len() == 0 {
			heapx.Pop(&f.heap, fqLess)
			continue
		}
		return i
	}
	return -1
}

// pickStreamScan is the reference linear scan pickStream replaced; the
// differential test pins heap selections to it.
func (f *FQ) pickStreamScan() int {
	best := -1
	for i, s := range f.streams {
		if s.Len() == 0 {
			continue
		}
		if best < 0 || f.served[i] < f.served[best] {
			best = i
		}
	}
	return best
}

func (f *FQ) nextFreePath() PathService {
	best := PathService(nil)
	for _, p := range f.paths {
		if !hasRoom(p, f.paceLimit) {
			continue
		}
		if best == nil || p.QueuedPackets() < best.QueuedPackets() {
			best = p
		}
	}
	return best
}
