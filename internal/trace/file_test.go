package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	orig := &File{
		TickSeconds: 0.1,
		Samples:     Take(NewNLANRLike(DefaultNLANR(), rand.New(rand.NewSource(1))), 2500),
	}
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TickSeconds != orig.TickSeconds {
		t.Fatalf("tick = %v, want %v", got.TickSeconds, orig.TickSeconds)
	}
	if len(got.Samples) != len(orig.Samples) {
		t.Fatalf("count = %d, want %d", len(got.Samples), len(orig.Samples))
	}
	for i := range got.Samples {
		if got.Samples[i] != orig.Samples[i] {
			t.Fatalf("sample %d = %v, want %v", i, got.Samples[i], orig.Samples[i])
		}
	}
}

func TestFileRoundTripEmpty(t *testing.T) {
	orig := &File{TickSeconds: 1}
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Samples) != 0 {
		t.Fatal("expected empty samples")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	_, err := Read(bytes.NewBufferString("NOPExxxxxxxxxxxxxxxxxxx"))
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	orig := &File{TickSeconds: 0.1, Samples: []float64{1, 2, 3}}
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	_, err := Read(bytes.NewReader(trunc))
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
}

// A header may claim far more samples than the input holds; Read must
// reject it without allocating for the claimed count.
func TestReadClaimedCountDoesNotAllocate(t *testing.T) {
	var buf bytes.Buffer
	if err := (&File{TickSeconds: 0.1}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	binary.LittleEndian.PutUint64(hdr[len(hdr)-8:], 1<<24) // 128 MiB of samples
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("Read of an empty body allocated %d bytes", got)
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	orig := &File{TickSeconds: 0.1, Samples: []float64{1}}
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 0xFF // corrupt version
	_, err := Read(bytes.NewReader(b))
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.iqtr")
	orig := &File{TickSeconds: 0.5, Samples: []float64{10, 20, 30}}
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples[2] != 30 || got.TickSeconds != 0.5 {
		t.Fatalf("load mismatch: %+v", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.iqtr")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
