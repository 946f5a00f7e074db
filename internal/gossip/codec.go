package gossip

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"iqpaths/internal/overlay"
)

// Wire codec for gossip messages. Two message kinds ride the channel:
//
//	delta:  0xD1 | uvarint(count) | count × record
//	digest: 0xD6 | uvarint(count) | count × (zigzag(origin), uvarint(seq))
//
// and one record is
//
//	zigzag(From) | zigzag(To) | flags | uvarint(Seq) | zigzag(Origin) |
//	zigzag(Ver)  | 8-byte LE float64 Mbps
//
// where flags bit 0 is Up. Varints keep common deltas (a handful of
// records with small ids) in the tens of bytes; the float rides as raw
// bits so payload precision survives the round trip exactly. Parsers are
// bounded: counts are capped, every read checks remaining length, and
// non-finite Mbps is rejected — a hostile or truncated buffer errors
// instead of allocating or poisoning a table.

const (
	deltaMagic  = 0xD1
	digestMagic = 0xD6

	// maxEntries bounds the declared entry count of either message kind
	// before any allocation, so a forged header cannot demand gigabytes.
	maxEntries = 1 << 20
)

// AppendRecord appends the wire form of r to dst.
func AppendRecord(dst []byte, r Record) []byte {
	dst = binary.AppendVarint(dst, int64(r.Key.From))
	dst = binary.AppendVarint(dst, int64(r.Key.To))
	var flags byte
	if r.Up {
		flags = 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendVarint(dst, int64(r.Origin))
	dst = binary.AppendVarint(dst, r.Ver)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Mbps))
	return dst
}

// ParseRecord decodes one record from the front of b, returning the
// bytes consumed.
func ParseRecord(b []byte) (Record, int, error) {
	var r Record
	pos := 0
	next := func(name string) (int64, error) {
		v, n := binary.Varint(b[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("gossip: record %s: truncated varint", name)
		}
		pos += n
		return v, nil
	}
	from, err := next("from")
	if err != nil {
		return r, 0, err
	}
	to, err := next("to")
	if err != nil {
		return r, 0, err
	}
	if pos >= len(b) {
		return r, 0, fmt.Errorf("gossip: record flags: truncated")
	}
	flags := b[pos]
	pos++
	if flags > 1 {
		return r, 0, fmt.Errorf("gossip: record flags: unknown bits %#x", flags)
	}
	seq, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return r, 0, fmt.Errorf("gossip: record seq: truncated varint")
	}
	pos += n
	origin, err := next("origin")
	if err != nil {
		return r, 0, err
	}
	ver, err := next("ver")
	if err != nil {
		return r, 0, err
	}
	if len(b)-pos < 8 {
		return r, 0, fmt.Errorf("gossip: record mbps: truncated")
	}
	mbps := math.Float64frombits(binary.LittleEndian.Uint64(b[pos:]))
	pos += 8
	if math.IsNaN(mbps) || math.IsInf(mbps, 0) {
		return r, 0, fmt.Errorf("gossip: record mbps: non-finite")
	}
	r = Record{
		Key:    LinkKey{From: overlay.NodeID(from), To: overlay.NodeID(to)},
		Up:     flags&1 != 0,
		Mbps:   mbps,
		Ver:    ver,
		Origin: overlay.NodeID(origin),
		Seq:    seq,
	}
	return r, pos, nil
}

// EncodeDelta frames a record batch as one delta message.
func EncodeDelta(recs []Record) []byte { return appendDelta(nil, recs) }

func appendDelta(dst []byte, recs []Record) []byte {
	dst = append(dst, deltaMagic)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for _, r := range recs {
		dst = AppendRecord(dst, r)
	}
	return dst
}

// ParseDelta decodes a delta message. Trailing bytes after the declared
// records are an error (one message per buffer — HTTP bodies and the
// simulated channel both carry exactly one).
func ParseDelta(b []byte) ([]Record, error) {
	if len(b) == 0 || b[0] != deltaMagic {
		return nil, fmt.Errorf("gossip: not a delta message")
	}
	pos := 1
	count, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("gossip: delta count: truncated varint")
	}
	pos += n
	if count > maxEntries {
		return nil, fmt.Errorf("gossip: delta count %d exceeds limit", count)
	}
	// A record is at least 14 bytes; reject counts the buffer cannot hold
	// before allocating.
	if count > uint64(len(b)-pos)/14+1 {
		return nil, fmt.Errorf("gossip: delta count %d exceeds buffer", count)
	}
	recs := make([]Record, 0, count)
	for i := uint64(0); i < count; i++ {
		r, used, err := ParseRecord(b[pos:])
		if err != nil {
			return nil, fmt.Errorf("gossip: delta record %d: %w", i, err)
		}
		pos += used
		recs = append(recs, r)
	}
	if pos != len(b) {
		return nil, fmt.Errorf("gossip: delta: %d trailing bytes", len(b)-pos)
	}
	return recs, nil
}

// EncodeDigest frames a version vector, entries sorted by origin so the
// encoding is canonical.
func EncodeDigest(d Digest) []byte { return appendDigest(nil, d) }

func appendDigest(dst []byte, d Digest) []byte {
	origins := make([]overlay.NodeID, 0, len(d))
	for o := range d {
		origins = append(origins, o)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	dst = append(dst, digestMagic)
	dst = binary.AppendUvarint(dst, uint64(len(origins)))
	for _, o := range origins {
		dst = binary.AppendVarint(dst, int64(o))
		dst = binary.AppendUvarint(dst, d[o])
	}
	return dst
}

// appendTableDigest appends t's version vector as a digest message,
// byte-equal to EncodeDigest(t.DigestCopy()): it walks the slots in
// origin order, so no map is sorted, and skips slots still at 0 as
// DigestCopy does.
func appendTableDigest(dst []byte, t *Table) []byte {
	n := 0
	for _, e := range t.vv {
		if e.seq > 0 {
			n++
		}
	}
	dst = append(dst, digestMagic)
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, s := range t.origins() {
		if e := t.vv[s]; e.seq > 0 {
			dst = binary.AppendVarint(dst, int64(e.origin))
			dst = binary.AppendUvarint(dst, e.seq)
		}
	}
	return dst
}

// ParseDigest decodes a digest message. Duplicate origins and trailing
// bytes are errors.
func ParseDigest(b []byte) (Digest, error) {
	if len(b) == 0 || b[0] != digestMagic {
		return nil, fmt.Errorf("gossip: not a digest message")
	}
	pos := 1
	count, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return nil, fmt.Errorf("gossip: digest count: truncated varint")
	}
	pos += n
	if count > maxEntries {
		return nil, fmt.Errorf("gossip: digest count %d exceeds limit", count)
	}
	if count > uint64(len(b)-pos)/2+1 {
		return nil, fmt.Errorf("gossip: digest count %d exceeds buffer", count)
	}
	d := make(Digest, count)
	for i := uint64(0); i < count; i++ {
		o, n := binary.Varint(b[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("gossip: digest origin %d: truncated varint", i)
		}
		pos += n
		seq, n := binary.Uvarint(b[pos:])
		if n <= 0 {
			return nil, fmt.Errorf("gossip: digest seq %d: truncated varint", i)
		}
		pos += n
		if _, dup := d[overlay.NodeID(o)]; dup {
			return nil, fmt.Errorf("gossip: digest: duplicate origin %d", o)
		}
		d[overlay.NodeID(o)] = seq
	}
	if pos != len(b) {
		return nil, fmt.Errorf("gossip: digest: %d trailing bytes", len(b)-pos)
	}
	return d, nil
}
