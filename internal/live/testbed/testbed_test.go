package testbed

import (
	"math"
	"net"
	"testing"
	"time"

	"iqpaths/internal/transport"
)

func TestAvailMbps(t *testing.T) {
	s := LinkShape{CapacityMbps: 40, CrossMbps: 8, CrossAmpMbps: 2, CrossPeriodSec: 4}
	if got := s.AvailMbps(0); got != 32 {
		t.Fatalf("avail(0) = %v, want 32", got)
	}
	if got := s.AvailMbps(1); math.Abs(got-30) > 1e-9 { // sin peak: cross 10
		t.Fatalf("avail(1) = %v, want 30", got)
	}
	if got := s.AvailMbps(3); math.Abs(got-34) > 1e-9 { // sin trough: cross 6
		t.Fatalf("avail(3) = %v, want 34", got)
	}
	over := LinkShape{CapacityMbps: 10, CrossMbps: 20}
	if got := over.AvailMbps(0); got != 0 {
		t.Fatalf("oversubscribed avail = %v, want 0", got)
	}
	neg := LinkShape{CapacityMbps: 10, CrossMbps: 1, CrossAmpMbps: 5, CrossPeriodSec: 4}
	if got := neg.CrossAt(3); got != 0 { // cross would be 1-5 = -4
		t.Fatalf("cross floored at %v, want 0", got)
	}
}

func TestDeparturePacing(t *testing.T) {
	// 10000-bit packets through 10 Mbps: 1 ms serialization each.
	dep1, free := departure(0, 0, 10000, 10)
	if math.Abs(dep1-0.001) > 1e-12 {
		t.Fatalf("dep1 = %v, want 0.001", dep1)
	}
	// Back-to-back arrival waits for the line.
	dep2, free := departure(0, free, 10000, 10)
	if math.Abs(dep2-0.002) > 1e-12 {
		t.Fatalf("dep2 = %v, want 0.002", dep2)
	}
	// After an idle gap the pacer restarts from the arrival time.
	dep3, _ := departure(1.0, free, 10000, 10)
	if math.Abs(dep3-1.001) > 1e-12 {
		t.Fatalf("dep3 = %v, want 1.001", dep3)
	}
	// A stalled link still drains at the floor rate.
	depStall, _ := departure(0, 0, 10000, 0)
	if math.IsInf(depStall, 1) || depStall <= 0 {
		t.Fatalf("stalled departure = %v", depStall)
	}
}

func TestFig8Shapes(t *testing.T) {
	a, b := Fig8Shapes()
	if aAvail, bAvail := a.AvailMbps(0), b.AvailMbps(0); aAvail <= bAvail {
		t.Fatalf("path A avail %v should exceed path B avail %v", aAvail, bAvail)
	}
	if a.LossProb != 0 || b.LossProb <= 0 {
		t.Fatalf("loss: A=%v B=%v, want lossless A, lossy B", a.LossProb, b.LossProb)
	}
}

// echoServer reflects every datagram back to its sender.
func echoServer(t *testing.T) (addr string, closeFn func()) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, from, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			conn.WriteToUDP(buf[:n], from)
		}
	}()
	return conn.LocalAddr().String(), func() { conn.Close() }
}

func TestRelayForwardsBothDirections(t *testing.T) {
	echo, closeEcho := echoServer(t)
	defer closeEcho()
	r, err := NewRelay("127.0.0.1:0", echo, LinkShape{CapacityMbps: 1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	client, err := net.Dial("udp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetDeadline(time.Now().Add(5 * time.Second))

	for i := 0; i < 10; i++ {
		msg := []byte{byte(i), 'h', 'i'}
		if _, err := client.Write(msg); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16)
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("echo %d: %v", i, err)
		}
		if n != 3 || buf[0] != byte(i) {
			t.Fatalf("echo %d: got %v", i, buf[:n])
		}
	}
	// The relay counts a datagram after its socket write returns, so the
	// 10th echo can reach the client before the counters move.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := r.Stats()
		if st.Forwarded == 10 && st.Returned == 10 {
			break
		}
		if st.Forwarded > 10 || st.Returned > 10 || time.Now().After(deadline) {
			t.Fatalf("stats %+v, want 10 forwarded and returned", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRelayCloseUnderTrafficReleasesBuffers closes relays while a client
// keeps their shaping queues busy: a datagram admitted after the pacer
// stopped must still go back to the wire-buffer pool.
func TestRelayCloseUnderTrafficReleasesBuffers(t *testing.T) {
	echo, closeEcho := echoServer(t)
	defer closeEcho()
	if n := transport.WireOutstanding(); n != 0 {
		t.Fatalf("%d wire buffers outstanding before the test", n)
	}
	payload := make([]byte, 1200)
	for i := 0; i < 100; i++ {
		// 1 Mbps keeps the pacer waiting on a backlog while reads continue.
		r, err := NewRelay("127.0.0.1:0", echo, LinkShape{CapacityMbps: 1, QueuePackets: 64}, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		client, err := net.Dial("udp", r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			for {
				select {
				case <-stop:
					return
				default:
				}
				client.Write(payload) // refused once the relay is closed
			}
		}()
		time.Sleep(2 * time.Millisecond)
		r.Close()
		close(stop)
		<-sent
		client.Close()
		if n := transport.WireOutstanding(); n != 0 {
			t.Fatalf("close %d: %d wire buffers outstanding", i, n)
		}
	}
}

func TestRelayShapesThroughput(t *testing.T) {
	echo, closeEcho := echoServer(t)
	defer closeEcho()
	// 2 Mbps link; 20 datagrams of 1222 B payload = (1222+28)·8 = 10000
	// bits each, so the burst needs 100 ms of line time.
	r, err := NewRelay("127.0.0.1:0", echo, LinkShape{CapacityMbps: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	client, err := net.Dial("udp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetDeadline(time.Now().Add(10 * time.Second))

	payload := make([]byte, 1222)
	start := time.Now()
	for i := 0; i < 20; i++ {
		if _, err := client.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 2048)
	for i := 0; i < 20; i++ {
		if _, err := client.Read(buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("20 shaped datagrams arrived in %v; pacer is not shaping", elapsed)
	}
}

func TestRelayLoss(t *testing.T) {
	echo, closeEcho := echoServer(t)
	defer closeEcho()
	r, err := NewRelay("127.0.0.1:0", echo, LinkShape{CapacityMbps: 1000, LossProb: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	client, err := net.Dial("udp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 5; i++ {
		client.Write([]byte("x"))
	}
	client.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := client.Read(make([]byte, 16)); err == nil {
		t.Fatal("datagram survived LossProb=1")
	}
	if st := r.Stats(); st.Lost == 0 || st.Forwarded != 0 {
		t.Fatalf("stats %+v, want all lost", st)
	}
}
