package testbed

import (
	"net"
	"testing"
	"time"
)

// TestAllocBudgetRelayForward: once a flow exists, a datagram's way
// through the relay — batched read, flow lookup, loss draw, queue
// admission, paced forward and the unshaped return — allocates nothing.
// The echo peer and the client use AddrPort socket calls, which allocate
// nothing either, so the measurement is the relay's alone.
func TestAllocBudgetRelayForward(t *testing.T) {
	skipIfRace(t)
	echo, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		buf := make([]byte, 2048)
		for {
			n, from, err := echo.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			if _, err := echo.WriteToUDPAddrPort(buf[:n], from); err != nil {
				return
			}
		}
	}()
	r, err := NewRelay("127.0.0.1:0", echo.LocalAddr().String(), LinkShape{CapacityMbps: 1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	client, err := net.Dial("udp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_ = client.SetDeadline(time.Now().Add(10 * time.Second))

	payload := make([]byte, 1200)
	buf := make([]byte, 2048)
	var failed error
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := client.Write(payload); err != nil {
			failed = err
			return
		}
		if _, err := client.Read(buf); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs != 0 {
		t.Errorf("%v allocs per relayed round trip, want 0", allocs)
	}
}
