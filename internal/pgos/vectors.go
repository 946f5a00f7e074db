package pgos

import (
	"cmp"
	"slices"
)

// BuildPathVector constructs V^P, the path lookup vector: for each path j
// with Tp_j scheduled packets, the scheduler owes it Tp_j visits at the
// virtual deadlines tw·k/Tp_j; merging all paths' deadlines (earliest
// first) yields the visiting order that keeps each path served in its
// scheduled proportion. Ties favor the path with the wider deadline
// spacing (fewer packets), matching the paper's worked example
// VP = [1,2,1,2,1,1,2,1,2,1,1,2,1,2,1] for Tp = (9, 6).
func BuildPathVector(m Mapping) []int {
	l := len(m.Committed)
	tp := make([]int, l)
	total := 0
	for _, row := range m.Packets {
		for j, x := range row {
			tp[j] += x
			total += x
		}
	}
	type visit struct {
		deadline float64
		spacing  float64
		path     int
	}
	visits := make([]visit, 0, total)
	for j := 0; j < l; j++ {
		if tp[j] == 0 {
			continue
		}
		spacing := 1 / float64(tp[j])
		for k := 1; k <= tp[j]; k++ {
			visits = append(visits, visit{deadline: float64(k) * spacing, spacing: spacing, path: j})
		}
	}
	slices.SortStableFunc(visits, func(a, b visit) int {
		if a.deadline != b.deadline {
			return cmp.Compare(a.deadline, b.deadline)
		}
		if a.spacing != b.spacing {
			return cmp.Compare(b.spacing, a.spacing)
		}
		return cmp.Compare(a.path, b.path)
	})
	vp := make([]int, len(visits))
	for i, v := range visits {
		vp[i] = v.path
	}
	return vp
}

// BuildStreamVectors constructs V^S: for each path j, the order in which
// the scheduler serves streams when visiting j. Stream i with x packets on
// j contributes deadlines tw·k/x; the merge is EDF with ties broken by
// higher window constraint (Table 1), then stream index.
// constraint[i] is the stream's window-constraint ratio.
func BuildStreamVectors(m Mapping, constraint []float64) [][]int {
	l := len(m.Committed)
	out := make([][]int, l)
	type slot struct {
		deadline   float64
		constraint float64
		stream     int
	}
	for j := 0; j < l; j++ {
		var slots []slot
		for i, row := range m.Packets {
			x := row[j]
			if x == 0 {
				continue
			}
			c := 0.0
			if i < len(constraint) {
				c = constraint[i]
			}
			for k := 1; k <= x; k++ {
				slots = append(slots, slot{deadline: float64(k) / float64(x), constraint: c, stream: i})
			}
		}
		slices.SortStableFunc(slots, func(a, b slot) int {
			if a.deadline != b.deadline {
				return cmp.Compare(a.deadline, b.deadline)
			}
			if a.constraint != b.constraint {
				return cmp.Compare(b.constraint, a.constraint)
			}
			return cmp.Compare(a.stream, b.stream)
		})
		vs := make([]int, len(slots))
		for k, s := range slots {
			vs[k] = s.stream
		}
		out[j] = vs
	}
	return out
}
