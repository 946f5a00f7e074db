package pgos

import (
	"math/rand"
	"slices"
	"testing"

	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
)

// randomMappingInput draws a stream set and path set whose sizes vary
// call to call, so a reused Mapper's buffers grow and shrink.
func randomMappingInput(rng *rand.Rand) ([]*stream.Stream, []stats.Distribution, MapOptions) {
	l := 1 + rng.Intn(6)
	cdfs := make([]stats.Distribution, l)
	var opt MapOptions
	for j := range cdfs {
		cdfs[j] = noisyCDF(5+rng.Float64()*60, rng.Float64()*20, 20+rng.Intn(100), rng.Int63())
	}
	if rng.Intn(2) == 0 {
		opt.InitialCommitted = make([]float64, l)
		for j := range opt.InitialCommitted {
			opt.InitialCommitted[j] = rng.Float64() * 20
		}
	}
	opt.MeanPrediction = rng.Intn(5) == 0
	streams := make([]*stream.Stream, rng.Intn(12))
	for i := range streams {
		spec := stream.Spec{Name: "s", RequiredMbps: rng.Float64() * 40}
		switch rng.Intn(3) {
		case 0:
			spec.Kind = stream.Probabilistic
			spec.Probability = 0.8 + rng.Float64()*0.19
		case 1:
			spec.Kind = stream.ViolationBound
			spec.MaxViolations = rng.Float64() * 100
		default:
			spec.Kind = stream.BestEffort
		}
		if rng.Intn(6) == 0 {
			spec.WindowX = 1 + rng.Intn(400)
		}
		streams[i] = stream.New(i, spec)
	}
	return streams, cdfs, opt
}

// sameMapping compares two mappings field by field, an empty slice
// equal to a nil one.
func sameMapping(a, b *Mapping) bool {
	if len(a.Packets) != len(b.Packets) {
		return false
	}
	for i := range a.Packets {
		if !slices.Equal(a.Packets[i], b.Packets[i]) {
			return false
		}
	}
	return slices.Equal(a.SinglePath, b.SinglePath) && slices.Equal(a.Rejected, b.Rejected) &&
		slices.Equal(a.Committed, b.Committed) &&
		a.TwSec == b.TwSec && a.MeanPrediction == b.MeanPrediction
}

// A reused Mapper leaves nothing of one mapping in the next: each result
// equals a one-shot mapping of the same input, whatever came before.
func TestMapperReuseMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var mp Mapper
	for it := 0; it < 500; it++ {
		streams, cdfs, opt := randomMappingInput(rng)
		want := ComputeMappingOpts(streams, cdfs, 0.5, opt)
		got := mp.Map(streams, cdfs, 0.5, opt)
		if !sameMapping(got, &want) {
			t.Fatalf("iteration %d: reused mapper\n got %+v\nwant %+v", it, *got, want)
		}
	}
}

// A probabilistic stream whose packet need comes from its window
// constraint alone (WindowX > 0, no rate) and fits no single path has no
// rate to split: it is rejected, whether or not any path has headroom.
func TestMappingRejectsRatelessSplit(t *testing.T) {
	spec := stream.Spec{Name: "wc", Kind: stream.Probabilistic, Probability: 0.95, WindowX: 1000}
	cases := []struct {
		name      string
		cdfs      []stats.Distribution
		committed []float64
	}{
		// 1000 × 12 kbit in a 1 s window needs 12 Mbps: no single path.
		{"no headroom", []stats.Distribution{constCDF(10, 100)}, []float64{20}},
		{"some headroom", []stats.Distribution{constCDF(10, 100), constCDF(10, 100)}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := stream.New(0, spec)
			m := ComputeMappingOpts([]*stream.Stream{s}, c.cdfs, 1, MapOptions{InitialCommitted: c.committed})
			if !m.Rejected[0] {
				t.Fatalf("rateless split accepted: packets %v", m.Packets[0])
			}
			for j, p := range m.Packets[0] {
				if p != 0 {
					t.Fatalf("rejected stream holds %d packets on path %d", p, j)
				}
			}
		})
	}
}
