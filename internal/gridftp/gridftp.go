// Package gridftp implements the striped parallel-transfer engine of the
// paper's §6.2 evaluation: an Earth-System-Grid-style climate record store
// whose records carry three components — numeric data (DT1, 172.8 KB), low
// resolution images (DT2, 128 KB), and high resolution images (DT3,
// 384 KB) — transferred concurrently over multiple overlay paths under one
// of three data layouts:
//
//   - Blocked: blocks dealt round-robin over the connections (stock
//     GridFTP; every component competes when a path dips);
//   - Partitioned: contiguous chunks pinned per connection;
//   - PGOS: the IQPG-GridFTP layout, where DT1/DT2 carry probabilistic
//     bandwidth guarantees (≥25 records/s) and DT3 rides best-effort.
package gridftp

import (
	"fmt"

	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// Record component sizes (bytes), per §6.2.
const (
	DT1Bytes = 172800 // numeric data
	DT2Bytes = 128000 // low-resolution images
	DT3Bytes = 384000 // high-resolution images
)

// RecordsPerSecond is the real-time streaming requirement for DT1 and DT2.
const RecordsPerSecond = 25

// Required rates implied by 25 records/s (Mbps).
const (
	DT1Mbps = DT1Bytes * 8 * RecordsPerSecond / 1e6 // 34.56
	DT2Mbps = DT2Bytes * 8 * RecordsPerSecond / 1e6 // 25.6
)

// Layout selects the data distribution policy.
type Layout int

// Layouts.
const (
	// Blocked deals blocks round-robin over connections (stock GridFTP).
	Blocked Layout = iota
	// Partitioned pins contiguous chunks to connections.
	Partitioned
	// PGOSLayout schedules blocks with the PGOS algorithm and per-stream
	// guarantees (IQPG-GridFTP).
	PGOSLayout
)

// String renders the layout.
func (l Layout) String() string {
	switch l {
	case Blocked:
		return "blocked"
	case Partitioned:
		return "partitioned"
	case PGOSLayout:
		return "pgos"
	}
	return fmt.Sprintf("Layout(%d)", int(l))
}

// Workload is the instantiated transfer: three component streams fed at
// record rate (DT1, DT2) and elastically (DT3 drains as fast as the
// network allows).
type Workload struct {
	DT1, DT2, DT3 *stream.Stream
	dt1src        *stream.FrameSource
	dt2src        *stream.FrameSource
	dt3src        *stream.BacklogSource
}

// NewWorkload builds the three component streams on net. With guarantees
// true (IQPG-GridFTP), DT1 and DT2 carry 95 % probabilistic guarantees at
// their record rates; with false (stock GridFTP), all three are plain
// best-effort streams distinguished only by fair-queuing weight.
func NewWorkload(net *simnet.Network, guarantees bool) *Workload {
	kind := stream.BestEffort
	if guarantees {
		kind = stream.Probabilistic
	}
	dt1 := stream.New(0, stream.Spec{
		Name: "DT1", Kind: kind, RequiredMbps: DT1Mbps, Probability: 0.95, Weight: DT1Mbps,
	})
	dt2 := stream.New(1, stream.Spec{
		Name: "DT2", Kind: kind, RequiredMbps: DT2Mbps, Probability: 0.95, Weight: DT2Mbps,
	})
	dt3 := stream.New(2, stream.Spec{
		Name: "DT3", Kind: stream.BestEffort, Weight: DT3Bytes * 8 * RecordsPerSecond / 1e6,
	})
	if !guarantees {
		// Stock GridFTP has no notion of required bandwidth; zero it so
		// schedulers cannot accidentally consume it.
		dt1.RequiredMbps, dt1.Kind = 0, stream.BestEffort
		dt2.RequiredMbps, dt2.Kind = 0, stream.BestEffort
	}
	return &Workload{
		DT1:    dt1,
		DT2:    dt2,
		DT3:    dt3,
		dt1src: stream.NewFrameSource(net, dt1, RecordsPerSecond, DT1Bytes),
		dt2src: stream.NewFrameSource(net, dt2, RecordsPerSecond, DT2Bytes),
		dt3src: stream.NewBacklogSource(net, dt3, 4000),
	}
}

// Streams returns the component streams in ID order.
func (w *Workload) Streams() []*stream.Stream {
	return []*stream.Stream{w.DT1, w.DT2, w.DT3}
}

// Tick generates this tick's record arrivals and tops up DT3's backlog.
func (w *Workload) Tick() {
	w.dt1src.Tick()
	w.dt2src.Tick()
	w.dt3src.Tick()
}

// RecordsEmitted returns the number of DT1 records generated so far.
func (w *Workload) RecordsEmitted() uint64 { return w.dt1src.Frames() }

// Store is a synthetic climate-record store for the transport-backed
// transfer tool: record i's component payloads are generated
// deterministically from the record index, so client and server agree on
// contents without shipping a dataset.
type Store struct {
	// Records is the number of records in the store.
	Records int
}

// ComponentSize returns the byte size of component c (0=DT1, 1=DT2, 2=DT3).
func (s *Store) ComponentSize(c int) int {
	switch c {
	case 0:
		return DT1Bytes
	case 1:
		return DT2Bytes
	default:
		return DT3Bytes
	}
}

// Component fills buf with record rec's component c payload. The pattern
// is deterministic: byte k of (rec, c) is (rec*31 + c*17 + k) mod 251.
func (s *Store) Component(rec, c int, buf []byte) {
	base := rec*31 + c*17
	for k := range buf {
		buf[k] = byte((base + k) % 251)
	}
}
