//go:build linux && (amd64 || arm64) && !iqpaths_nommsg

package transport

import (
	"fmt"
	"net/netip"
	"syscall"
	"unsafe"
)

// sendmmsg/recvmmsg fast path. Gated to 64-bit Linux because the mmsghdr
// layout below assumes 8-byte Msghdr alignment and a uint64 Iovlen; other
// platforms (and the iqpaths_nommsg CI variant) take batch_fallback.go.
//
// On the write side, runs of consecutive equal-size same-destination
// datagrams are additionally coalesced into UDP GSO super-datagrams
// (UDP_SEGMENT): the kernel traverses the protocol stack once per run and
// segments at the end, so the per-datagram cost drops below the stack
// traversal a plain sendmmsg still pays per message. The receiver sees
// ordinary independent datagrams — segmentation happens before delivery —
// so boundaries and semantics are untouched. The first kernel rejection
// of a GSO send latches bc.gsoDisabled and writes fall back to plain
// mmsg entries.

const mmsgAvailable = true

// maxMMsgBatch bounds the datagrams per mmsg syscall — it sizes the
// per-connection scratch arrays, so larger batches chunk transparently.
const maxMMsgBatch = 32

const (
	// solUDP / udpSegment are SOL_UDP and UDP_SEGMENT from the kernel uapi
	// (absent from the frozen syscall package).
	solUDP     = 17
	udpSegment = 103
	// gsoMaxSegs bounds the segments per GSO super-datagram
	// (UDP_MAX_SEGMENTS) and gsoMaxBytes its total payload (under the UDP
	// length ceiling).
	gsoMaxSegs  = 64
	gsoMaxBytes = 65000
)

// gsoCmsgSpace is the control buffer size for one UDP_SEGMENT cmsg
// carrying a uint16 segment size.
var gsoCmsgSpace = syscall.CmsgSpace(2)

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// kernel-filled transferred-byte count. The trailing pad keeps the array
// stride at the kernel's 8-byte-aligned layout.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// batchScratch is one direction's reusable mmsg call state: headers,
// iovecs, raw sockaddr storage (sized for IPv6, the larger form), GSO
// control buffers, and the datagrams-per-entry map a partial send resumes
// from. It also carries the syscall callback the runtime poller invokes,
// bound once at construction: a closure built per call would escape to
// the heap on every ReadBatch/WriteBatch. The callback reads its inputs
// (k) and leaves its outcome (n, err) here; the direction's BatchConn
// mutex serializes every use.
type batchScratch struct {
	hdrs   [maxMMsgBatch]mmsghdr
	iovs   [maxMMsgBatch]syscall.Iovec
	names  [maxMMsgBatch][syscall.SizeofSockaddrInet6]byte
	ctrls  [maxMMsgBatch][24]byte // ≥ CmsgSpace(2)
	counts [maxMMsgBatch]int      // datagrams covered by each entry

	sysno uintptr // sysSENDMMSG or sysRECVMMSG
	k     int     // entries in hdrs the next call covers
	n     int     // entries the last call transferred
	err   error   // the last call's errno, nil on success
	call  func(fd uintptr) bool
}

func newBatchScratch(write bool) *batchScratch {
	s := &batchScratch{sysno: sysRECVMMSG}
	if write {
		s.sysno = sysSENDMMSG
	}
	s.call = s.mmsg
	return s
}

// mmsg issues one non-blocking sendmmsg/recvmmsg over hdrs[:k]. It
// returns false on EAGAIN so the poller waits for readiness and retries.
func (s *batchScratch) mmsg(fd uintptr) bool {
	r, _, e := syscall.Syscall6(s.sysno, fd,
		uintptr(unsafe.Pointer(&s.hdrs[0])), uintptr(s.k),
		syscall.MSG_DONTWAIT, 0, 0)
	if e == syscall.EAGAIN {
		return false
	}
	s.n, s.err = 0, nil
	if e != 0 {
		s.err = e
	} else {
		s.n = int(r)
	}
	return true
}

// emptyDatagram backs the iovec of zero-length datagrams, which still
// need a valid base pointer.
var emptyDatagram byte

// putSockaddr encodes addr into buf and returns the kernel sockaddr
// length. Ports travel big-endian in raw sockaddrs; IPv4 and IPv4-mapped
// addresses take the IPv4 form.
func putSockaddr(buf []byte, addr netip.AddrPort) (uint32, error) {
	ip := addr.Addr()
	port := addr.Port()
	if ip.Is4() || ip.Is4In6() {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&buf[0]))
		*sa = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: ip.Unmap().As4()}
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		p[0], p[1] = byte(port>>8), byte(port)
		return syscall.SizeofSockaddrInet4, nil
	}
	if !ip.Is6() {
		return 0, fmt.Errorf("transport: batch write to invalid address %v", addr)
	}
	sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&buf[0]))
	*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: ip.As16()}
	p := (*[2]byte)(unsafe.Pointer(&sa.Port))
	p[0], p[1] = byte(port>>8), byte(port)
	return syscall.SizeofSockaddrInet6, nil
}

// getSockaddr decodes a kernel-filled raw sockaddr into an address value
// (the zero AddrPort for an unknown family).
func getSockaddr(buf []byte) netip.AddrPort {
	switch uint16(buf[0]) | uint16(buf[1])<<8 { // sa_family, native-endian
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&buf[0]))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(&buf[0]))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr), uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}

// planEntries lays dgs out as mmsg entries in s, coalescing runs of
// consecutive equal-size same-destination datagrams into GSO entries when
// gso is set (one iovec per datagram; the scratch iovec pool bounds the
// plan). It returns the entry count and how many datagrams the plan
// covers; s.counts maps entries back to datagram counts.
func planEntries(s *batchScratch, dgs []Datagram, gso bool) (entries, covered int, err error) {
	i, e, iv := 0, 0, 0
	for i < len(dgs) && e < maxMMsgBatch && iv < maxMMsgBatch {
		d := &dgs[i]
		size := len(d.Buf)
		run := 1
		if gso && size > 0 {
			for i+run < len(dgs) &&
				run < gsoMaxSegs &&
				(run+1)*size <= gsoMaxBytes &&
				iv+run < maxMMsgBatch &&
				len(dgs[i+run].Buf) == size &&
				dgs[i+run].Addr == d.Addr {
				run++
			}
		}
		for j := 0; j < run; j++ {
			iov := &s.iovs[iv+j]
			if len(dgs[i+j].Buf) > 0 {
				iov.Base = &dgs[i+j].Buf[0]
			} else {
				iov.Base = &emptyDatagram // zero-length: any valid pointer
			}
			iov.SetLen(len(dgs[i+j].Buf))
		}
		h := &s.hdrs[e]
		h.hdr = syscall.Msghdr{Iov: &s.iovs[iv], Iovlen: uint64(run)}
		h.n = 0
		if d.Addr.IsValid() {
			nl, aerr := putSockaddr(s.names[e][:], d.Addr)
			if aerr != nil {
				return e, i, aerr
			}
			h.hdr.Name = &s.names[e][0]
			h.hdr.Namelen = nl
		}
		if run > 1 {
			// The kernel concatenates the run's iovecs and re-segments every
			// `size` bytes — exactly the original datagrams.
			cbuf := s.ctrls[e][:]
			ch := (*syscall.Cmsghdr)(unsafe.Pointer(&cbuf[0]))
			ch.Level = solUDP
			ch.Type = udpSegment
			ch.SetLen(syscall.CmsgLen(2))
			*(*uint16)(unsafe.Pointer(&cbuf[syscall.CmsgLen(0)])) = uint16(size)
			h.hdr.Control = &cbuf[0]
			h.hdr.SetControllen(gsoCmsgSpace)
		}
		s.counts[e] = run
		e++
		iv += run
		i += run
	}
	return e, i, nil
}

// gsoRejected reports kernel errors that mean "this socket/kernel cannot
// do UDP_SEGMENT" rather than a transient send failure.
func gsoRejected(e error) bool {
	return e == syscall.EINVAL || e == syscall.EOPNOTSUPP || e == syscall.ENOPROTOOPT || e == syscall.EIO
}

// writeBatchMMsg transmits dgs through sendmmsg with GSO coalescing,
// chunking at the scratch capacity and resuming after partial sends. A
// kernel that rejects the first GSO entry demotes the connection to plain
// per-datagram mmsg entries and the batch is retried.
func (bc *BatchConn) writeBatchMMsg(dgs []Datagram) (int, error) {
	bc.wmu.Lock()
	defer bc.wmu.Unlock()
	s := bc.w
	sent := 0 // datagrams fully handed to the kernel
	for sent < len(dgs) {
		gso := !bc.gsoDisabled.Load()
		entries, _, perr := planEntries(s, dgs[sent:], gso)
		if entries == 0 {
			return sent, perr
		}
		n, err := bc.sendmmsg(s, entries)
		if n == 0 && err != nil && gso && gsoRejected(err) {
			bc.gsoDisabled.Store(true)
			continue // replan without GSO
		}
		for k := 0; k < n; k++ {
			sent += s.counts[k]
			bc.writeDgrams.Add(uint64(s.counts[k]))
		}
		if n > 0 {
			bc.writeCalls.Add(1)
		}
		if err != nil {
			return sent, err
		}
		if perr != nil {
			return sent, perr
		}
	}
	return sent, nil
}

// sendmmsg transmits s.hdrs[:entries] with one syscall.
func (bc *BatchConn) sendmmsg(s *batchScratch, entries int) (int, error) {
	s.k = entries
	if err := bc.rc.Write(s.call); err != nil {
		return 0, err
	}
	return s.n, s.err
}

// readBatchMMsg fills up to len(dgs) datagrams with one recvmmsg call,
// blocking via the runtime poller until at least one is ready.
func (bc *BatchConn) readBatchMMsg(dgs []Datagram) (int, error) {
	bc.rmu.Lock()
	defer bc.rmu.Unlock()
	s := bc.r
	k := len(dgs)
	if k > maxMMsgBatch {
		k = maxMMsgBatch
	}
	for i := 0; i < k; i++ {
		if len(dgs[i].Buf) > 0 {
			s.iovs[i].Base = &dgs[i].Buf[0]
		} else {
			s.iovs[i].Base = &emptyDatagram
		}
		s.iovs[i].SetLen(len(dgs[i].Buf))
		h := &s.hdrs[i]
		h.hdr = syscall.Msghdr{
			Name:    &s.names[i][0],
			Namelen: syscall.SizeofSockaddrInet6,
			Iov:     &s.iovs[i],
			Iovlen:  1,
		}
		h.n = 0
	}
	s.k = k
	if err := bc.rc.Read(s.call); err != nil {
		return 0, err // includes deadline wake-ups and socket close
	}
	if s.err != nil {
		return 0, s.err
	}
	n := s.n
	for i := 0; i < n; i++ {
		dgs[i].N = int(s.hdrs[i].n)
		dgs[i].Addr = getSockaddr(s.names[i][:])
	}
	bc.readCalls.Add(1)
	bc.readDgrams.Add(uint64(n))
	return n, nil
}
