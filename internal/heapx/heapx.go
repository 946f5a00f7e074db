// Package heapx provides slice-based binary-heap primitives over a
// caller-supplied ordering, shared by the scheduling hot paths (PGOS
// rule-3 deadline heaps, fair-queuing virtual-time heap). Unlike
// container/heap it needs no interface boxing and never allocates: the
// heap is the caller's slice, passed by pointer, and the comparator is a
// plain function — in steady state every operation is pure index
// arithmetic.
package heapx

// Push adds x to the heap *h ordered by less (a min-heap when less is
// "strictly before").
func Push[T any](h *[]T, x T, less func(a, b T) bool) {
	*h = append(*h, x)
	up(*h, len(*h)-1, less)
}

// Pop removes and returns the minimum element. Empty heaps panic.
func Pop[T any](h *[]T, less func(a, b T) bool) T {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	var zero T
	s[n] = zero // drop the reference for GC when T holds pointers
	s = s[:n]
	*h = s
	if n > 0 {
		down(s, 0, less)
	}
	return top
}

func up[T any](h []T, j int, less func(a, b T) bool) {
	for j > 0 {
		parent := (j - 1) / 2
		if !less(h[j], h[parent]) {
			return
		}
		h[j], h[parent] = h[parent], h[j]
		j = parent
	}
}

func down[T any](h []T, i int, less func(a, b T) bool) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && less(h[r], h[l]) {
			m = r
		}
		if !less(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
