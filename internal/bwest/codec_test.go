package bwest

import (
	"bytes"
	"math"
	"testing"
)

func TestPlanRoundTrip(t *testing.T) {
	cases := []Plan{
		{Round: 0, Paths: nil},
		{Round: 1, Paths: []uint32{0}},
		{Round: 912, Paths: []uint32{3, 1, 4, 1, 5, 9, 2, 6}},
		{Round: math.MaxUint64, Paths: []uint32{math.MaxUint32}},
	}
	for _, c := range cases {
		buf := EncodePlan(nil, c)
		got, err := ParsePlan(buf)
		if err != nil {
			t.Fatalf("ParsePlan(%+v): %v", c, err)
		}
		if got.Round != c.Round || len(got.Paths) != len(c.Paths) {
			t.Fatalf("round trip %+v -> %+v", c, got)
		}
		for i := range c.Paths {
			if got.Paths[i] != c.Paths[i] {
				t.Fatalf("round trip %+v -> %+v", c, got)
			}
		}
		// Canonical: re-encoding reproduces the bytes.
		if !bytes.Equal(EncodePlan(nil, got), buf) {
			t.Fatalf("non-canonical encoding for %+v", c)
		}
	}
}

func TestSummariesRoundTrip(t *testing.T) {
	ss := []Summary{
		{Path: 0, MeanMbps: 55.5, Q05Mbps: 40.25, Q95Mbps: 71, EntropyBits: 2.5},
		{Path: 4999, MeanMbps: 0, Q05Mbps: 0, Q95Mbps: 0, EntropyBits: 0},
	}
	buf := EncodeSummaries(nil, ss)
	got, err := ParseSummaries(buf)
	if err != nil {
		t.Fatalf("ParseSummaries: %v", err)
	}
	if len(got) != len(ss) {
		t.Fatalf("len %d", len(got))
	}
	for i := range ss {
		if got[i] != ss[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], ss[i])
		}
	}
	if !bytes.Equal(EncodeSummaries(nil, got), buf) {
		t.Fatal("non-canonical summaries encoding")
	}
	if len(ParseOK(t, buf)) != 2 {
		t.Fatal("helper sanity")
	}
}

func ParseOK(t *testing.T, buf []byte) []Summary {
	t.Helper()
	ss, err := ParseSummaries(buf)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func TestParseRejects(t *testing.T) {
	okPlan := EncodePlan(nil, Plan{Round: 5, Paths: []uint32{1, 2}})
	okSumm := EncodeSummaries(nil, []Summary{{Path: 1, MeanMbps: 3}})
	nanSumm := append([]byte{}, okSumm...)
	// Corrupt MeanMbps to NaN: magic(1) + count(1) + path(1), then 8 bytes.
	for i, b := range []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f} {
		nanSumm[3+i] = b
	}
	cases := []struct {
		name string
		buf  []byte
		plan bool
		summ bool
	}{
		{"empty plan", nil, true, false},
		{"bad plan magic", []byte{0x00, 0x01}, true, false},
		{"plan count overflow", append([]byte{planMagic, 0x01}, 0xff, 0xff, 0xff, 0xff, 0x7f), true, false},
		{"plan truncated body", []byte{planMagic, 0x01, 0x05}, true, false},
		{"plan trailing bytes", append(append([]byte{}, okPlan...), 0x00), true, false},
		{"empty summaries", nil, false, true},
		{"bad summaries magic", []byte{0x00}, false, true},
		{"summaries truncated entry", []byte{summariesMagic, 0x01, 0x00, 0x01, 0x02}, false, true},
		{"summaries trailing bytes", append(append([]byte{}, okSumm...), 0x00), false, true},
		{"summaries NaN field", nanSumm, false, true},
	}
	for _, c := range cases {
		if c.plan {
			if _, err := ParsePlan(c.buf); err == nil {
				t.Errorf("%s: ParsePlan accepted %x", c.name, c.buf)
			}
		}
		if c.summ {
			if _, err := ParseSummaries(c.buf); err == nil {
				t.Errorf("%s: ParseSummaries accepted %x", c.name, c.buf)
			}
		}
	}
}

func TestEncodeSummariesPanicsOnNonFinite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on NaN summary")
		}
	}()
	EncodeSummaries(nil, []Summary{{MeanMbps: math.NaN()}})
}

// FuzzParsePlan checks the parser never panics and that every accepted
// input has a canonical re-encoding no longer than the input that
// parses back to the same plan.
func FuzzParsePlan(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodePlan(nil, Plan{Round: 3, Paths: []uint32{0, 7, 7, 42}}))
	f.Add([]byte{planMagic, 0x00, 0x00})
	f.Add([]byte{planMagic, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		enc := EncodePlan(nil, p)
		if len(enc) > len(data) {
			t.Fatalf("canonical encoding longer than input: %d > %d", len(enc), len(data))
		}
		p2, err := ParsePlan(enc)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if p2.Round != p.Round || len(p2.Paths) != len(p.Paths) {
			t.Fatalf("semantic round trip mismatch: %+v vs %+v", p, p2)
		}
		for i := range p.Paths {
			if p2.Paths[i] != p.Paths[i] {
				t.Fatalf("path %d mismatch", i)
			}
		}
	})
}

// FuzzParseSummaries mirrors FuzzParsePlan for the summary batch codec.
func FuzzParseSummaries(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSummaries(nil, []Summary{{Path: 2, MeanMbps: 10, Q05Mbps: 5, Q95Mbps: 15, EntropyBits: 1}}))
	f.Add([]byte{summariesMagic, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		ss, err := ParseSummaries(data)
		if err != nil {
			return
		}
		enc := EncodeSummaries(nil, ss)
		if len(enc) > len(data) {
			t.Fatalf("canonical encoding longer than input: %d > %d", len(enc), len(data))
		}
		ss2, err := ParseSummaries(enc)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(ss2) != len(ss) {
			t.Fatalf("len mismatch %d vs %d", len(ss2), len(ss))
		}
		for i := range ss {
			if ss2[i] != ss[i] {
				t.Fatalf("entry %d mismatch: %+v vs %+v", i, ss[i], ss2[i])
			}
		}
	})
}
