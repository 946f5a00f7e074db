package transport

import (
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"
)

// Allocation budgets of the live datagram path. Batched reads and
// writes, the listener's demux of an ack, and a steady RUDP send-plus-ack
// cycle must run without heap allocation. The one thing the path still
// allocates is the memory of the messages Recv hands to the application,
// and that is carved from per-connection receive slabs (recvslab.go): at
// most one chunk or slab per sixteen delivered messages.
// testing.AllocsPerRun reports the average over its runs, so "0" means
// amortised zero: a scratch slice that grows once during warm-up passes,
// an allocation on every call does not.

// TestAllocBudgetBatchConn: ReadBatch and WriteBatch allocate nothing per
// call, with explicit destination addresses (unconnected sender) and on
// both the batched and the one-datagram paths of this build.
func TestAllocBudgetBatchConn(t *testing.T) {
	skipIfRace(t)
	modes := []bool{false}
	if mmsgAvailable {
		modes = append(modes, true)
	}
	for _, fallback := range modes {
		src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		dst, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		ws, err := NewBatchConn(src)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := NewBatchConn(dst)
		if err != nil {
			t.Fatal(err)
		}
		ws.SetFallback(fallback)
		rs.SetFallback(fallback)
		to := dst.LocalAddr().(*net.UDPAddr).AddrPort()
		from := src.LocalAddr().(*net.UDPAddr).AddrPort()

		const k = 4
		out := make([]Datagram, k)
		for i := range out {
			out[i] = Datagram{Buf: make([]byte, 100), Addr: to}
		}
		in := make([]Datagram, k)
		for i := range in {
			in[i].Buf = make([]byte, 2048)
		}
		_ = dst.SetReadDeadline(time.Now().Add(10 * time.Second))
		var failed error
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := ws.WriteBatch(out); err != nil {
				failed = err
				return
			}
			for got := 0; got < k; {
				n, err := rs.ReadBatch(in)
				if err != nil {
					failed = err
					return
				}
				for i := 0; i < n; i++ {
					if in[i].Addr != from {
						failed = net.InvalidAddrError("datagram from " + in[i].Addr.String())
					}
				}
				got += n
			}
		})
		src.Close()
		dst.Close()
		if failed != nil {
			t.Fatalf("fallback=%v: %v", fallback, failed)
		}
		if allocs != 0 {
			t.Errorf("fallback=%v: %v allocs per write+read of %d datagrams, want 0", fallback, allocs, k)
		}
	}
}

// listenerSession registers a session on a fresh listener as the demux
// would on a SYN from a real peer socket, and returns the listener, the
// peer's address (what the test dispatches frames from) and the session.
// The peer never sends, so only the test's dispatch calls reach the
// session.
func listenerSession(t *testing.T) (*RUDPListener, netip.AddrPort, *RUDPConn) {
	t.Helper()
	l, err := ListenRUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	from := peer.LocalAddr().(*net.UDPAddr).AddrPort()
	syn := Message{Kind: KindControl, Payload: ctlSyn}
	l.dispatch(&syn, from)
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return l, from, srv
}

// TestAllocBudgetListenerAck: a listener session's send, and the demux of
// the ack that retires it, allocate nothing.
func TestAllocBudgetListenerAck(t *testing.T) {
	skipIfRace(t)
	l, from, srv := listenerSession(t)

	msg := &Message{Kind: KindData, Payload: make([]byte, 1200)}
	var seq uint64
	allocs := testing.AllocsPerRun(500, func() {
		if err := srv.Send(msg); err != nil {
			t.Fatal(err)
		}
		seq++
		ack := Message{Kind: KindAck, Seq: seq}
		l.dispatch(&ack, from)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per session send + ack demux, want 0", allocs)
	}
	if n := srv.InFlight(); n != 0 {
		t.Fatalf("%d packets still in flight after their acks", n)
	}
}

// TestAllocBudgetRUDPRecv: a listener session's in-order receive — the
// demux of each data frame, its copy into the receive slab, the acks, and
// the application's Recv — allocates a fresh Message chunk or payload
// slab now and then, never a Message or payload per datagram. A live
// packet's payload shares a slab with twenty others, so the whole path
// costs at most one object per sixteen messages; a gridftp block (16 KiB)
// shares one with one other, so one slab per two messages. Each budget
// leaves about one allocation per 64-message cycle of headroom over the
// chunks and slabs: AllocsPerRun also counts what the runtime allocates
// in the background, and a cycle that gives each 16 KiB block its own
// allocation reads 65 or more.
func TestAllocBudgetRUDPRecv(t *testing.T) {
	skipIfRace(t)
	for _, tc := range []struct {
		name    string
		payload int
		budget  float64 // allocations per received message
	}{
		{"live-packet", 1200, 1.0 / 16},
		{"gridftp-block", 16384, 1.0/2 + 1.0/16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, from, srv := listenerSession(t)
			const batch = 64
			payload := make([]byte, tc.payload)
			var seq uint64
			var failed error
			cycle := func() {
				for i := 0; i < batch; i++ {
					seq++
					m := Message{Kind: KindData, Seq: seq, Payload: payload}
					l.dispatch(&m, from)
				}
				for want := seq - batch + 1; want <= seq; want++ {
					m, err := srv.Recv()
					if err != nil {
						failed = err
						return
					}
					if m.Seq != want || len(m.Payload) != len(payload) {
						failed = fmt.Errorf("received seq %d with %d bytes, want seq %d with %d", m.Seq, len(m.Payload), want, len(payload))
						return
					}
				}
			}
			allocs := testing.AllocsPerRun(100, cycle)
			if failed != nil {
				t.Fatal(failed)
			}
			if per := allocs / batch; per > tc.budget {
				t.Errorf("%v allocs per received message (%v per %d), want at most %v", per, allocs, batch, tc.budget)
			}
		})
	}
}

// ackingPeer is a raw-socket RUDP peer that completes the handshake and
// acknowledges every data frame at once, without allocating — so a send
// cycle measured against it counts only the sender's allocations.
func ackingPeer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, rudpMaxDatagram)
		var out []byte
		var m Message
		for {
			n, from, err := sock.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if parseFrame(&m, buf[:n]) != nil {
				continue
			}
			var reply Message
			switch {
			case m.Kind == KindControl && string(m.Payload) == string(ctlSyn):
				reply = Message{Kind: KindControl, Payload: ctlSynAck}
			case m.Kind == KindData:
				reply = Message{Kind: KindAck, Seq: m.Seq}
			default:
				continue
			}
			out, _ = reply.appendMarshal(out[:0])
			_, _ = sock.WriteToUDPAddrPort(out, from)
		}
	}()
	return sock.LocalAddr().String(), func() { sock.Close(); <-done }
}

// TestAllocBudgetRUDPSendAck: a dialed connection's steady send-plus-ack
// cycle — Send and SendBatch, the batched write, the reader's demux of
// the ack, ring retirement and the retransmit wheel — allocates nothing.
// The peer acks without allocating, so only the sender is measured;
// TestAllocBudgetRUDPRecv covers the receiving side.
func TestAllocBudgetRUDPSendAck(t *testing.T) {
	skipIfRace(t)
	addr, stop := ackingPeer(t)
	defer stop()
	conn, err := DialRUDP(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	backing := make([]Message, 16)
	msgs := make([]*Message, len(backing))
	for i := range backing {
		backing[i] = Message{Kind: KindData, Payload: make([]byte, 1200)}
		msgs[i] = &backing[i]
	}
	drained := func() bool {
		deadline := time.Now().Add(5 * time.Second)
		for conn.InFlight() > 0 {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(50 * time.Microsecond)
		}
		return true
	}
	for _, tc := range []struct {
		name string
		send func() error
	}{
		{"Send", func() error { return conn.Send(msgs[0]) }},
		{"SendBatch", func() error { return conn.SendBatch(msgs) }},
	} {
		ok := true
		// Warm up past one RTO, so the wheel's slot slices and the wire
		// buffer pool have reached their steady population.
		for warm := time.Now().Add(100 * time.Millisecond); time.Now().Before(warm); {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
			ok = ok && drained()
		}
		allocs := testing.AllocsPerRun(300, func() {
			if err := tc.send(); err != nil {
				t.Fatal(err)
			}
			ok = ok && drained()
		})
		if !ok {
			t.Fatalf("%s: acks never drained the window", tc.name)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per send + ack cycle, want 0", tc.name, allocs)
		}
	}
}
