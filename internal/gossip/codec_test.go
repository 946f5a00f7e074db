package gossip

import (
	"bytes"
	"math"
	"testing"

	"iqpaths/internal/overlay"
)

func TestDeltaRoundTrip(t *testing.T) {
	recs := []Record{
		{Key: LinkKey{From: 0, To: 1}, Up: true, Mbps: 100, Ver: 1, Origin: 0, Seq: 1},
		{Key: LinkKey{From: -4, To: 2}, Up: false, Mbps: 0.25, Ver: -7, Origin: -4, Seq: 1 << 40},
		{Key: LinkKey{From: 4999, To: 4998}, Up: true, Mbps: 1e9, Ver: 1 << 50, Origin: 4999, Seq: 3},
	}
	b := EncodeDelta(recs)
	got, err := ParseDelta(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
	// Empty delta is legal (it is simply never sent by the engines).
	if got, err := ParseDelta(EncodeDelta(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty delta: %v, %d records", err, len(got))
	}
}

func TestDigestRoundTrip(t *testing.T) {
	d := Digest{0: 5, 17: 1 << 33, -3: 9}
	got, err := ParseDigest(EncodeDigest(d))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(d) {
		t.Fatalf("got %d entries, want %d", len(got), len(d))
	}
	for o, s := range d {
		if got[o] != s {
			t.Fatalf("digest[%d] = %d, want %d", o, got[o], s)
		}
	}
	// Canonical: same digest always encodes to the same bytes.
	if !bytes.Equal(EncodeDigest(d), EncodeDigest(got)) {
		t.Fatal("digest encoding must be canonical")
	}
}

func TestParseDeltaRejects(t *testing.T) {
	good := EncodeDelta([]Record{{Key: LinkKey{1, 2}, Up: true, Mbps: 10, Origin: 1, Seq: 1}})
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      {0x00, 0x01},
		"digest magic":   EncodeDigest(Digest{1: 1}),
		"truncated":      good[:len(good)-3],
		"trailing bytes": append(append([]byte{}, good...), 0xFF),
		"huge count":     {deltaMagic, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
	}
	for name, b := range cases {
		if _, err := ParseDelta(b); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	// Flags byte: rebuild a record with a poked flags value via AppendRecord layout.
	rec := Record{Key: LinkKey{1, 2}, Up: true, Mbps: 10, Origin: 1, Seq: 1}
	rb := AppendRecord(nil, rec)
	rb[2] = 0x04 // From and To are single-byte varints; byte 2 is flags
	msg := []byte{deltaMagic, 1}
	msg = append(msg, rb...)
	if _, err := ParseDelta(msg); err == nil {
		t.Fatal("unknown flag bits must be rejected")
	}
	// Non-finite payload: poke NaN bits into the trailing float.
	rb2 := AppendRecord(nil, rec)
	nan := math.Float64bits(math.NaN())
	for i := 0; i < 8; i++ {
		rb2[len(rb2)-8+i] = byte(nan >> (8 * i))
	}
	msg2 := []byte{deltaMagic, 1}
	msg2 = append(msg2, rb2...)
	if _, err := ParseDelta(msg2); err == nil {
		t.Fatal("non-finite Mbps must be rejected")
	}
}

func TestParseDigestRejects(t *testing.T) {
	good := EncodeDigest(Digest{1: 5, 2: 9})
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      {0x00},
		"delta magic":    EncodeDelta(nil),
		"truncated":      good[:len(good)-1],
		"trailing bytes": append(append([]byte{}, good...), 0x01),
		"huge count":     {digestMagic, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F},
		"duplicate":      {digestMagic, 2, 2, 1, 2, 3}, // origin 1 twice
	}
	for name, b := range cases {
		if _, err := ParseDigest(b); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// FuzzParseDelta checks bounded parsing (no panic, no giant allocation)
// on arbitrary input, and the semantic round-trip on anything that
// parses: re-encoding the parsed records must parse back to the same
// records, and the canonical form is never longer than the accepted
// input (varints may arrive non-minimal; the encoder is minimal).
func FuzzParseDelta(f *testing.F) {
	f.Add(EncodeDelta(nil))
	f.Add(EncodeDelta([]Record{{Key: LinkKey{1, 2}, Up: true, Mbps: 10, Ver: 1, Origin: 1, Seq: 1}}))
	f.Add(EncodeDelta([]Record{
		{Key: LinkKey{From: -3, To: 0}, Up: false, Mbps: 0.5, Ver: -1, Origin: -3, Seq: 1 << 30},
		{Key: LinkKey{From: 100, To: 200}, Up: true, Mbps: 1e6, Ver: 1 << 40, Origin: 100, Seq: 7},
	}))
	f.Add([]byte{deltaMagic, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, err := ParseDelta(b)
		if err != nil {
			return
		}
		enc := EncodeDelta(recs)
		if len(enc) > len(b) {
			t.Fatalf("canonical form longer than input: %d > %d for %x", len(enc), len(b), b)
		}
		again, err := ParseDelta(enc)
		if err != nil {
			t.Fatalf("re-encoded delta failed to parse: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip count %d != %d", len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("round trip record %d: %+v != %+v", i, again[i], recs[i])
			}
		}
		tab := NewTable()
		for _, r := range recs {
			tab.Apply(r) // parsed records must always be applyable (finite)
		}
	})
}

// FuzzParseDigest mirrors FuzzParseDelta for the digest frame.
func FuzzParseDigest(f *testing.F) {
	f.Add(EncodeDigest(nil))
	f.Add(EncodeDigest(Digest{0: 1}))
	f.Add(EncodeDigest(Digest{-5: 1 << 40, 3: 2, 4: 3}))
	f.Add([]byte{digestMagic, 0x02, 0x02, 0x01})
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := ParseDigest(b)
		if err != nil {
			return
		}
		enc := EncodeDigest(d)
		if len(enc) > len(b) {
			t.Fatalf("canonical form longer than input: %d > %d for %x", len(enc), len(b), b)
		}
		again, err := ParseDigest(enc)
		if err != nil {
			t.Fatalf("re-encoded digest failed to parse: %v", err)
		}
		if len(again) != len(d) {
			t.Fatalf("round trip count %d != %d", len(again), len(d))
		}
		for o, s := range d {
			if again[o] != s {
				t.Fatalf("round trip digest[%d]: %d != %d", o, again[o], s)
			}
		}
	})
}

// FuzzRecordRoundTrip drives the single-record codec from field values
// rather than raw bytes, so the encoder side is fuzzed too.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(2), true, 10.0, int64(1), int64(1), uint64(1))
	f.Add(int64(-4), int64(0), false, 0.0, int64(-9), int64(-4), uint64(1)<<60)
	f.Fuzz(func(t *testing.T, from, to int64, up bool, mbps float64, ver, origin int64, seq uint64) {
		if math.IsNaN(mbps) || math.IsInf(mbps, 0) {
			return
		}
		r := Record{
			Key: LinkKey{From: overlay.NodeID(from), To: overlay.NodeID(to)},
			Up:  up, Mbps: mbps, Ver: ver,
			Origin: overlay.NodeID(origin), Seq: seq,
		}
		b := AppendRecord(nil, r)
		got, n, err := ParseRecord(b)
		if err != nil {
			t.Fatalf("encoded record failed to parse: %v", err)
		}
		if n != len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if got != r {
			t.Fatalf("round trip: got %+v, want %+v", got, r)
		}
	})
}
