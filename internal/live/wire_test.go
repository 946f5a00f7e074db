package live

import (
	"bytes"
	"io"
	"testing"
)

func TestHelloRoundtrip(t *testing.T) {
	in := Hello{Stream: 7, Name: "Atom", QuotaPackets: 50, WindowNanos: 5e8, GraceNanos: 1e7, SkipWindows: 4}
	got, err := ParseFrame(MarshalHello(in))
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	h, ok := got.(*Hello)
	if !ok {
		t.Fatalf("ParseFrame returned %T, want *Hello", got)
	}
	if *h != in {
		t.Fatalf("roundtrip mismatch: got %+v want %+v", *h, in)
	}
}

func TestLinkStateRoundtrip(t *testing.T) {
	in := LinkState{Node: "N-3", Link: "overlay-a", Version: 12, Up: true, AvailMbps: 31.25}
	got, err := ParseFrame(MarshalLinkState(in))
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	u, ok := got.(*LinkState)
	if !ok {
		t.Fatalf("ParseFrame returned %T, want *LinkState", got)
	}
	if *u != in {
		t.Fatalf("roundtrip mismatch: got %+v want %+v", *u, in)
	}
}

func TestParseFrameMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{99},                               // unknown type
		{frameHello},                       // empty hello
		{frameHello, 1},                    // truncated stream id
		{frameLinkState},                   // empty link state
		MarshalHello(Hello{Name: "x"})[:8], // truncated mid-frame
		MarshalLinkState(LinkState{Node: "n"})[:4],
	}
	for i, b := range cases {
		if _, err := ParseFrame(b); err == nil {
			t.Errorf("case %d: ParseFrame(%v) accepted malformed frame", i, b)
		}
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	frames := [][]byte{MarshalHello(Hello{Stream: 1, Name: "a"}), MarshalLinkState(LinkState{Node: "n", Link: "l", Version: 1})}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("ReadFrame at end: err=%v, want io.EOF", err)
	}
}

func TestFrameIOLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, maxWireFrame+1)); err == nil {
		t.Fatal("WriteFrame accepted oversize frame")
	}
	// A corrupt length prefix must not allocate unbounded memory.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("ReadFrame accepted oversize length prefix")
	}
}

func TestLinkStateTable(t *testing.T) {
	tbl := NewLinkStateTable()
	if !tbl.Apply(LinkState{Node: "b", Link: "l", Version: 2, AvailMbps: 10}) {
		t.Fatal("first update rejected")
	}
	if tbl.Apply(LinkState{Node: "b", Link: "l", Version: 2, AvailMbps: 99}) {
		t.Fatal("equal-version update applied")
	}
	if tbl.Apply(LinkState{Node: "b", Link: "l", Version: 1, AvailMbps: 99}) {
		t.Fatal("stale update applied")
	}
	if !tbl.Apply(LinkState{Node: "b", Link: "l", Version: 3, AvailMbps: 20}) {
		t.Fatal("newer update rejected")
	}
	tbl.Apply(LinkState{Node: "a", Link: "l2", Version: 1})
	snap := tbl.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	if snap[0].Node != "a" || snap[1].Node != "b" {
		t.Fatalf("snapshot not sorted: %+v", snap)
	}
	if snap[1].Version != 3 || snap[1].AvailMbps != 20 {
		t.Fatalf("table kept wrong entry: %+v", snap[1])
	}
}
