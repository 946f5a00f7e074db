package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

// udpPair returns two connected loopback UDP sockets.
func udpPair(t testing.TB) (a, b *net.UDPConn) {
	t.Helper()
	la, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := net.DialUDP("udp", nil, lb.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	la.Close()
	t.Cleanup(func() { ra.Close(); lb.Close() })
	return ra, lb
}

// TestBatchConnRoundTrip pushes a burst through WriteBatch and collects it
// with ReadBatch, in whichever mode the platform provides.
func TestBatchConnRoundTrip(t *testing.T) {
	src, dst := udpPair(t)
	ws, err := NewBatchConn(src)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewBatchConn(dst)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("batched=%v", ws.Batched())

	const total = 100
	var sent [][]byte
	dgs := make([]Datagram, total)
	for i := range dgs {
		payload := []byte(fmt.Sprintf("datagram-%03d", i))
		sent = append(sent, payload)
		dgs[i] = Datagram{Buf: payload}
	}
	n, err := ws.WriteBatch(dgs)
	if err != nil {
		t.Fatal(err)
	}
	if n != total {
		t.Fatalf("WriteBatch sent %d of %d", n, total)
	}

	_ = dst.SetReadDeadline(time.Now().Add(2 * time.Second))
	recv := make([]Datagram, 16)
	for i := range recv {
		recv[i].Buf = make([]byte, 2048)
	}
	var got [][]byte
	for len(got) < total {
		k, err := rs.ReadBatch(recv)
		if err != nil {
			t.Fatalf("after %d datagrams: %v", len(got), err)
		}
		for i := 0; i < k; i++ {
			if !recv[i].Addr.IsValid() {
				t.Fatal("ReadBatch returned an invalid source address")
			}
			got = append(got, append([]byte(nil), recv[i].Buf[:recv[i].N]...))
		}
	}
	for i := range got {
		if !bytes.Equal(got[i], sent[i]) {
			t.Fatalf("datagram %d: got %q want %q", i, got[i], sent[i])
		}
	}

	st := ws.Stats()
	if st.WriteDatagrams != total {
		t.Fatalf("write stats: %d datagrams, want %d", st.WriteDatagrams, total)
	}
	if ws.Batched() && st.WriteCalls >= total {
		t.Fatalf("batched writer used %d syscalls for %d datagrams", st.WriteCalls, total)
	}
}

// lossyProxy relays client → target datagrams, dropping per a seeded rng —
// a deterministic loss process both differential runs share. The reverse
// direction is forwarded unshaped.
type lossyProxy struct {
	in     *net.UDPConn
	out    *net.UDPConn
	client atomic.Pointer[net.UDPAddr]
	done   chan struct{}
}

func newLossyProxy(t testing.TB, target string, lossProb float64, seed int64) *lossyProxy {
	t.Helper()
	in, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	taddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		t.Fatal(err)
	}
	out, err := net.DialUDP("udp", nil, taddr)
	if err != nil {
		t.Fatal(err)
	}
	p := &lossyProxy{in: in, out: out, done: make(chan struct{})}
	rng := rand.New(rand.NewSource(seed))
	go func() { // forward, lossy
		buf := make([]byte, 64*1024)
		for {
			n, from, err := in.ReadFromUDP(buf)
			if err != nil {
				return
			}
			p.client.Store(from)
			if rng.Float64() < lossProb {
				continue
			}
			if _, err := out.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	go func() { // reverse, unshaped
		buf := make([]byte, 64*1024)
		for {
			n, err := out.Read(buf)
			if err != nil {
				return
			}
			client := p.client.Load()
			if client == nil {
				continue
			}
			if _, err := in.WriteToUDP(buf[:n], client); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { in.Close(); out.Close() })
	return p
}

func (p *lossyProxy) Addr() string { return p.in.LocalAddr().String() }

// runLossyTransfer moves count payloads over RUDP through a seeded lossy
// proxy and returns the receiver's application byte stream. fallback
// forces every BatchConn in the pair onto the one-datagram-per-call path
// and the sender onto single writes.
func runLossyTransfer(t *testing.T, seed int64, count int, fallback bool) []byte {
	t.Helper()
	l, err := ListenRUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.bc.SetFallback(fallback)

	proxy := newLossyProxy(t, l.Addr(), 0.05, seed)

	recvDone := make(chan []byte, 1)
	go func() {
		srv, err := l.Accept()
		if err != nil {
			recvDone <- nil
			return
		}
		var stream bytes.Buffer
		for i := 0; i < count; i++ {
			m, err := srv.Recv()
			if err != nil {
				break
			}
			fmt.Fprintf(&stream, "%d:%x;", len(m.Payload), m.Payload)
		}
		recvDone <- stream.Bytes()
	}()

	conn, err := DialRUDP(proxy.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if fallback {
		conn.writev = nil // single-datagram writes on the dial side too
	}

	rng := rand.New(rand.NewSource(seed + 1))
	batch := make([]*Message, 0, 8)
	for i := 0; i < count; {
		batch = batch[:0]
		k := 1 + rng.Intn(8)
		for j := 0; j < k && i < count; j++ {
			payload := make([]byte, 1+rng.Intn(512))
			rng.Read(payload)
			batch = append(batch, &Message{Kind: KindData, Stream: uint32(i % 3), Payload: payload})
			i++
		}
		if err := conn.SendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	select {
	case stream := <-recvDone:
		if stream == nil {
			t.Fatal("accept failed")
		}
		return stream
	case <-time.After(30 * time.Second):
		t.Fatal("transfer did not complete (lost datagrams never recovered?)")
		return nil
	}
}

// TestBatchDifferentialDelivery is the batched-vs-fallback differential:
// under the same seeded loss process, the application byte stream an RUDP
// receiver observes must be identical whether the wire layer batches
// syscalls or takes the portable one-datagram path — batching must change
// syscall counts, never delivery order, loss recovery, or ack semantics.
func TestBatchDifferentialDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("differential transfer is seconds-long")
	}
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const count = 400
			batched := runLossyTransfer(t, seed, count, false)
			fallback := runLossyTransfer(t, seed, count, true)
			if !bytes.Equal(batched, fallback) {
				t.Fatalf("delivery diverged: batched %d bytes, fallback %d bytes", len(batched), len(fallback))
			}
		})
	}
}

// TestBatchConnFallbackToggle checks SetFallback flips the path reported
// by Batched and keeps datagrams flowing.
func TestBatchConnFallbackToggle(t *testing.T) {
	src, dst := udpPair(t)
	ws, err := NewBatchConn(src)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewBatchConn(dst)
	if err != nil {
		t.Fatal(err)
	}
	ws.SetFallback(true)
	rs.SetFallback(true)
	if ws.Batched() {
		t.Fatal("Batched() true after SetFallback(true)")
	}
	if _, err := ws.WriteBatch([]Datagram{{Buf: []byte("via-fallback")}}); err != nil {
		t.Fatal(err)
	}
	_ = dst.SetReadDeadline(time.Now().Add(2 * time.Second))
	recv := []Datagram{{Buf: make([]byte, 64)}}
	n, err := rs.ReadBatch(recv)
	if err != nil || n != 1 {
		t.Fatalf("ReadBatch = %d, %v", n, err)
	}
	if string(recv[0].Buf[:recv[0].N]) != "via-fallback" {
		t.Fatalf("got %q", recv[0].Buf[:recv[0].N])
	}
}

// FuzzBatchDatagrams fuzzes the mmsg batch framing: arbitrary payload
// splits written through WriteBatch must arrive with datagram boundaries
// and contents intact (UDP loopback preserves both).
func FuzzBatchDatagrams(f *testing.F) {
	f.Add([]byte("ab\x03cde\x00\x01f"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff, 2, 0}, 40))
	f.Fuzz(func(t *testing.T, blob []byte) {
		// Slice blob into datagrams: a length byte then that many bytes.
		var payloads [][]byte
		for len(blob) > 0 && len(payloads) < 80 {
			n := int(blob[0])
			blob = blob[1:]
			if n > len(blob) {
				n = len(blob)
			}
			payloads = append(payloads, blob[:n])
			blob = blob[n:]
		}
		if len(payloads) == 0 {
			return
		}
		src, dst := udpPair(t)
		ws, err := NewBatchConn(src)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := NewBatchConn(dst)
		if err != nil {
			t.Fatal(err)
		}
		dgs := make([]Datagram, len(payloads))
		for i, p := range payloads {
			dgs[i] = Datagram{Buf: p}
		}
		n, err := ws.WriteBatch(dgs)
		if err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
		if n != len(payloads) {
			t.Fatalf("WriteBatch sent %d of %d", n, len(payloads))
		}
		_ = dst.SetReadDeadline(time.Now().Add(5 * time.Second))
		recv := make([]Datagram, 16)
		for i := range recv {
			recv[i].Buf = make([]byte, 512)
		}
		var got [][]byte
		for len(got) < len(payloads) {
			k, err := rs.ReadBatch(recv)
			if err != nil {
				t.Fatalf("after %d of %d datagrams: %v", len(got), len(payloads), err)
			}
			for i := 0; i < k; i++ {
				got = append(got, append([]byte(nil), recv[i].Buf[:recv[i].N]...))
			}
		}
		// Loopback preserves order in practice, but only content equality is
		// guaranteed by UDP — compare as sorted multisets.
		want := make([][]byte, len(payloads))
		copy(want, payloads)
		sortBytes := func(s [][]byte) {
			sort.Slice(s, func(a, b int) bool { return bytes.Compare(s[a], s[b]) < 0 })
		}
		sortBytes(want)
		sortBytes(got)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("datagram %d: got %q want %q", i, got[i], want[i])
			}
		}
	})
}
