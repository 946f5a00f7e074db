package transport

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// Wire-throughput benchmarks. The dg/s/core metric is the headline
// datagrams-per-second-per-core series (the send loop is a single
// goroutine, so wall rate == per-core rate); sysc/dg records how many
// write syscalls each datagram cost. benchjson collects both under
// "wire" in the JSON baseline.

// benchUDPSink binds a loopback socket and drains it as fast as possible.
// It reads with ReadFromUDPAddrPort, which allocates nothing, so the
// benchmark's allocs/op are the sender's alone.
func benchUDPSink(b *testing.B) *net.UDPAddr {
	b.Helper()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	_ = sink.SetReadBuffer(1 << 22)
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, _, err := sink.ReadFromUDPAddrPort(buf); err != nil {
				return
			}
		}
	}()
	b.Cleanup(func() { sink.Close() })
	return sink.LocalAddr().(*net.UDPAddr)
}

// BenchmarkWireDatagrams measures raw BatchConn send throughput at
// varying batch widths over a connected loopback socket. batch=1 is the
// per-datagram baseline the ISSUE's ≥3× criterion compares against.
func BenchmarkWireDatagrams(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			addr := benchUDPSink(b)
			src, err := net.DialUDP("udp", nil, addr)
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()
			_ = src.SetWriteBuffer(1 << 22)
			bc, err := NewBatchConn(src)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 1200)
			dgs := make([]Datagram, batch)
			for i := range dgs {
				dgs[i] = Datagram{Buf: payload}
			}
			b.SetBytes(int64(batch * len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bc.WriteBatch(dgs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			st := bc.Stats()
			if elapsed > 0 && st.WriteDatagrams > 0 {
				b.ReportMetric(float64(st.WriteDatagrams)/elapsed, "dg/s/core")
				b.ReportMetric(float64(st.WriteCalls)/float64(st.WriteDatagrams), "sysc/dg")
			}
		})
	}
}

// BenchmarkRUDPSendBatch measures end-to-end RUDP batched send throughput
// (admit + marshal into pooled buffers + batched write + ack processing)
// against a live listener over loopback.
func BenchmarkRUDPSendBatch(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			l, err := ListenRUDP("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go func() {
				srv, err := l.Accept()
				if err != nil {
					return
				}
				for {
					if _, err := srv.Recv(); err != nil {
						return
					}
				}
			}()
			conn, err := DialRUDP(l.Addr(), 2*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()

			payload := make([]byte, 1200)
			msgs := make([]*Message, batch)
			backing := make([]Message, batch)
			for i := range msgs {
				backing[i] = Message{Kind: KindData, Payload: payload}
				msgs[i] = &backing[i]
			}
			b.SetBytes(int64(batch * len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.SendBatch(msgs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N*batch)/elapsed, "dg/s/core")
			}
		})
	}
}
