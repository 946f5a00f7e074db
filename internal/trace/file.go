package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Trace-file format: a tiny self-describing binary container so generated
// traces can be saved once and replayed across runs/tools.
//
//	magic   [4]byte  "IQTR"
//	version uint16   (1)
//	tick    float64  seconds per sample
//	count   uint64   number of samples
//	samples count × float64 (little endian), Mbps
const (
	fileMagic   = "IQTR"
	fileVersion = 1
)

// ErrBadTrace reports a malformed trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// File bundles a sampled series with its tick duration.
type File struct {
	TickSeconds float64
	Samples     []float64
}

// Write serializes the trace to w.
func (f *File) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(fileVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, f.TickSeconds); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(f.Samples))); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, s := range f.Samples {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(s))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace from r.
func Read(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if version != fileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, version)
	}
	f := &File{}
	if err := binary.Read(br, binary.LittleEndian, &f.TickSeconds); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	var count uint64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if count > 1<<30 {
		return nil, fmt.Errorf("%w: implausible sample count %d", ErrBadTrace, count)
	}
	// Grow with the samples actually read: a header may claim more than
	// the input holds, and preallocating count would let a short file
	// ask for gigabytes.
	f.Samples = make([]float64, 0, min(count, 1<<16))
	buf := make([]byte, 8)
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("%w: truncated at sample %d: %v", ErrBadTrace, i, err)
		}
		f.Samples = append(f.Samples, math.Float64frombits(binary.LittleEndian.Uint64(buf)))
	}
	return f, nil
}

// Save writes the trace to path, creating or truncating it.
func (f *File) Save(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Load reads a trace from path.
func Load(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return Read(in)
}
