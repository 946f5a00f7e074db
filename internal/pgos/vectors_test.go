package pgos

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"iqpaths/internal/stream"
)

// paperExample builds the §5.2.2 worked example: stream S1 has 5 packets
// on path 1; S2 has 4 packets on path 1 and 6 on path 2.
func paperExample() Mapping {
	return Mapping{
		Packets:    [][]int{{5, 0}, {4, 6}},
		SinglePath: []int{0, -1},
		Rejected:   []bool{false, false},
		Committed:  []float64{9, 6},
		TwSec:      1,
	}
}

func TestBuildPathVectorPaperExample(t *testing.T) {
	vp := BuildPathVector(paperExample())
	// Paper (1-indexed): [1,2,1,2,1,1,2,1,2,1,1,2,1,2,1] → 0-indexed:
	want := []int{0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0}
	if len(vp) != len(want) {
		t.Fatalf("V^P length %d, want %d: %v", len(vp), len(want), vp)
	}
	for i := range want {
		if vp[i] != want[i] {
			t.Fatalf("V^P = %v, want %v (mismatch at %d)", vp, want, i)
		}
	}
}

func TestBuildPathVectorProportions(t *testing.T) {
	vp := BuildPathVector(paperExample())
	count := map[int]int{}
	for _, j := range vp {
		count[j]++
	}
	if count[0] != 9 || count[1] != 6 {
		t.Fatalf("visit counts = %v, want 9/6", count)
	}
	// Three-fifths of the time path 1, two-fifths path 2 — check every
	// prefix stays within one visit of the proportion.
	seen0 := 0
	for k, j := range vp {
		if j == 0 {
			seen0++
		}
		ideal := float64(k+1) * 9 / 15
		if d := float64(seen0) - ideal; d < -1.5 || d > 1.5 {
			t.Fatalf("prefix %d deviates from proportion: %d vs %.2f", k, seen0, ideal)
		}
	}
}

func TestBuildStreamVectorsPaperExample(t *testing.T) {
	m := paperExample()
	vs := BuildStreamVectors(m, []float64{1, 1})
	// Path 1: S1 deadlines k/5, S2 deadlines k/4 → the paper's order
	// S1,S2,S1,S2,S1,S2,S1,(S2,S1 at the 1.0 tie).
	want0 := []int{0, 1, 0, 1, 0, 1, 0, 1, 0}
	if len(vs[0]) != 9 {
		t.Fatalf("V^S[0] length %d, want 9: %v", len(vs[0]), vs[0])
	}
	// The tie at deadline 1.0 (k=5/5 and k=4/4) may order either way under
	// equal constraints; accept both by checking counts and the first 7.
	for i := 0; i < 7; i++ {
		if vs[0][i] != want0[i] {
			t.Fatalf("V^S[0] = %v, want prefix %v", vs[0], want0[:7])
		}
	}
	c := map[int]int{}
	for _, i := range vs[0] {
		c[i]++
	}
	if c[0] != 5 || c[1] != 4 {
		t.Fatalf("V^S[0] stream counts = %v", c)
	}
	// Path 2 serves only S2.
	if len(vs[1]) != 6 {
		t.Fatalf("V^S[1] length %d, want 6", len(vs[1]))
	}
	for _, i := range vs[1] {
		if i != 1 {
			t.Fatalf("V^S[1] should be all S2: %v", vs[1])
		}
	}
}

func TestBuildStreamVectorsTieBreakByConstraint(t *testing.T) {
	// Two streams, equal packet counts on one path: every deadline ties.
	m := Mapping{
		Packets:   [][]int{{4}, {4}},
		Committed: []float64{1},
		TwSec:     1,
	}
	// Stream 1 has the higher window constraint → it precedes stream 0 at
	// every tie (Table 1 rule 2.2/3.2).
	vs := BuildStreamVectors(m, []float64{0.5, 0.9})
	for k := 0; k < len(vs[0]); k += 2 {
		if vs[0][k] != 1 || vs[0][k+1] != 0 {
			t.Fatalf("tie-break by constraint violated: %v", vs[0])
		}
	}
}

func TestBuildVectorsEmptyMapping(t *testing.T) {
	m := Mapping{Packets: [][]int{}, Committed: []float64{0, 0}, TwSec: 1}
	if vp := BuildPathVector(m); len(vp) != 0 {
		t.Fatalf("empty mapping should build empty V^P: %v", vp)
	}
	vs := BuildStreamVectors(m, nil)
	if len(vs) != 2 || len(vs[0]) != 0 {
		t.Fatalf("empty mapping should build empty V^S: %v", vs)
	}
}

func TestVectorsUseWindowConstraintRatios(t *testing.T) {
	// End-to-end sanity: constraints come from stream.WindowConstraintRatio.
	s1 := stream.New(0, stream.Spec{Name: "ctl", WindowX: 9, WindowY: 10, Kind: stream.Probabilistic, RequiredMbps: 1})
	s2 := stream.New(1, stream.Spec{Name: "bulk", Kind: stream.BestEffort})
	if s1.WindowConstraintRatio() <= s2.WindowConstraintRatio() {
		t.Fatal("control stream should out-rank bulk at ties")
	}
}

// refPathVector and refStreamVectors are BuildPathVector and
// BuildStreamVectors with the reflection-based sort.SliceStable they
// used to call: a stable sort's output is fixed by its comparator, so
// the production sort must reproduce them exactly.
func refPathVector(m Mapping) []int {
	type visit struct {
		deadline, spacing float64
		path              int
	}
	var visits []visit
	for j := range m.Committed {
		tp := 0
		for _, row := range m.Packets {
			tp += row[j]
		}
		for k := 1; k <= tp; k++ {
			visits = append(visits, visit{float64(k) * (1 / float64(tp)), 1 / float64(tp), j})
		}
	}
	sort.SliceStable(visits, func(a, b int) bool {
		if visits[a].deadline != visits[b].deadline {
			return visits[a].deadline < visits[b].deadline
		}
		if visits[a].spacing != visits[b].spacing {
			return visits[a].spacing > visits[b].spacing
		}
		return visits[a].path < visits[b].path
	})
	vp := make([]int, len(visits))
	for i, v := range visits {
		vp[i] = v.path
	}
	return vp
}

func refStreamVectors(m Mapping, constraint []float64) [][]int {
	type slot struct {
		deadline, constraint float64
		stream               int
	}
	out := make([][]int, len(m.Committed))
	for j := range out {
		var slots []slot
		for i, row := range m.Packets {
			for k := 1; k <= row[j]; k++ {
				slots = append(slots, slot{float64(k) / float64(row[j]), constraint[i], i})
			}
		}
		sort.SliceStable(slots, func(a, b int) bool {
			if slots[a].deadline != slots[b].deadline {
				return slots[a].deadline < slots[b].deadline
			}
			if slots[a].constraint != slots[b].constraint {
				return slots[a].constraint > slots[b].constraint
			}
			return slots[a].stream < slots[b].stream
		})
		out[j] = make([]int, len(slots))
		for k, s := range slots {
			out[j][k] = s.stream
		}
	}
	return out
}

// TestVectorsMatchSliceStableRandomized compares both vectors against
// the sort.SliceStable reference on random mappings. Small packet counts
// and a handful of constraint values make deadline and constraint ties
// common.
func TestVectorsMatchSliceStableRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		nStreams, nPaths := 1+r.Intn(12), 1+r.Intn(5)
		m := Mapping{Committed: make([]float64, nPaths), Packets: make([][]int, nStreams)}
		constraint := make([]float64, nStreams)
		for i := range m.Packets {
			m.Packets[i] = make([]int, nPaths)
			for j := range m.Packets[i] {
				if r.Intn(3) > 0 {
					m.Packets[i][j] = r.Intn(13)
				}
			}
			constraint[i] = float64(r.Intn(4)) / 4
		}
		if got, want := BuildPathVector(m), refPathVector(m); !slices.Equal(got, want) {
			t.Fatalf("trial %d: V^P %v, reference %v", trial, got, want)
		}
		got, want := BuildStreamVectors(m, constraint), refStreamVectors(m, constraint)
		for j := range want {
			if !slices.Equal(got[j], want[j]) {
				t.Fatalf("trial %d: V^S[%d] %v, reference %v", trial, j, got[j], want[j])
			}
		}
	}
}
