package transport

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
)

// Batched wire layer. The live runtime moves one UDP datagram per syscall
// through net.UDPConn's ReadFromUDP/WriteToUDP, so at scale the bottleneck
// is the kernel boundary, not the token-bucket shaping the scheduler paces
// against. BatchConn coalesces datagrams into sendmmsg/recvmmsg calls on
// Linux (behind a build tag; see batch_linux.go) with a portable
// one-datagram-per-call fallback, lifting the syscall ceiling by the batch
// factor while keeping datagram boundaries intact.
//
// Buffer ownership across the batch boundary follows the simnet arena
// contract: the caller owns every Datagram.Buf for the duration of the
// call, and the kernel has copied the bytes out (writes) or in (reads) by
// the time WriteBatch/ReadBatch returns — nothing retains a buffer past
// the call, so pooled wire buffers (AcquireWire/ReleaseWire) can back the
// slices and be recycled by whoever owns them next.

// Datagram is one datagram of a batched socket operation. For writes, Buf
// is the full wire image and Addr the destination (the zero AddrPort on a
// connected socket). For reads, Buf is the receive buffer, and the call
// fills N (payload length) and Addr (source). Addr is a value, so neither
// direction allocates per datagram; demultiplexers key maps by the source
// with its address unmapped (Addr().Unmap()), which folds an IPv4-mapped
// IPv6 source onto its IPv4 form.
type Datagram struct {
	Buf  []byte
	N    int
	Addr netip.AddrPort
}

// BatchStats counts a BatchConn's syscalls and datagrams per direction —
// the syscalls-per-datagram ratio is the batching win the benchmarks
// report as datagrams/sec/core.
type BatchStats struct {
	ReadCalls      uint64
	ReadDatagrams  uint64
	WriteCalls     uint64
	WriteDatagrams uint64
}

// BatchConn wraps a UDP socket with batched datagram I/O. On Linux
// (without the iqpaths_nommsg build tag) batches map to single
// sendmmsg/recvmmsg syscalls; elsewhere each datagram costs one syscall,
// with identical delivery semantics. Reads and writes are each safe for
// concurrent use, and deadlines set on the underlying socket apply to
// both paths (Close-style wake-ups keep working).
type BatchConn struct {
	c  *net.UDPConn
	rc syscall.RawConn

	// fallback forces the one-datagram-per-syscall path at runtime — the
	// differential tests use it to diff mmsg delivery against the portable
	// path inside one binary.
	fallback atomic.Bool

	// gsoDisabled latches on the first kernel rejection of a UDP_SEGMENT
	// send (old kernel, odd socket type); writes then stay on plain mmsg.
	// Unused by the fallback build.
	gsoDisabled atomic.Bool

	// wmu/rmu serialize access to the per-direction mmsg scratch arrays
	// (header, iovec, and sockaddr storage reused across calls).
	wmu sync.Mutex
	w   *batchScratch
	rmu sync.Mutex
	r   *batchScratch

	readCalls   atomic.Uint64
	readDgrams  atomic.Uint64
	writeCalls  atomic.Uint64
	writeDgrams atomic.Uint64
}

// NewBatchConn wraps c for batched I/O. The socket stays usable directly;
// BatchConn only adds call shapes.
func NewBatchConn(c *net.UDPConn) (*BatchConn, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	bc := &BatchConn{c: c, rc: rc}
	if mmsgAvailable {
		bc.w, bc.r = newBatchScratch(true), newBatchScratch(false)
	}
	return bc, nil
}

// Batched reports whether batches map to mmsg syscalls (false on non-Linux
// builds, under the iqpaths_nommsg tag, or after SetFallback(true)).
func (bc *BatchConn) Batched() bool {
	return mmsgAvailable && !bc.fallback.Load()
}

// ReadBatch blocks until at least one datagram arrives and fills up to
// len(dgs) of them in one recvmmsg call where available, returning how
// many were received. Each filled entry has N and Addr set; Buf contents
// beyond N are unspecified. Errors (including deadline wake-ups) surface
// exactly like ReadFromUDP's.
func (bc *BatchConn) ReadBatch(dgs []Datagram) (int, error) {
	if len(dgs) == 0 {
		return 0, nil
	}
	if bc.Batched() {
		return bc.readBatchMMsg(dgs)
	}
	n, addr, err := bc.c.ReadFromUDPAddrPort(dgs[0].Buf)
	if err != nil {
		return 0, err
	}
	dgs[0].N, dgs[0].Addr = n, addr
	bc.readCalls.Add(1)
	bc.readDgrams.Add(1)
	return 1, nil
}

// WriteBatch transmits every datagram in dgs, coalescing runs into
// sendmmsg calls where available (chunked at the scratch capacity). It
// returns how many datagrams were handed to the kernel; on error that
// count tells the caller where transmission stopped.
func (bc *BatchConn) WriteBatch(dgs []Datagram) (int, error) {
	if len(dgs) == 0 {
		return 0, nil
	}
	if bc.Batched() {
		return bc.writeBatchMMsg(dgs)
	}
	for i := range dgs {
		var err error
		if dgs[i].Addr.IsValid() {
			_, err = bc.c.WriteToUDPAddrPort(dgs[i].Buf, dgs[i].Addr)
		} else {
			_, err = bc.c.Write(dgs[i].Buf)
		}
		bc.writeCalls.Add(1)
		if err != nil {
			return i, err
		}
		bc.writeDgrams.Add(1)
	}
	return len(dgs), nil
}
