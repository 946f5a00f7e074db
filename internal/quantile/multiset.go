// Package quantile provides an order-statistic sliding-window multiset:
// O(log n) insert, delete, rank (CountLE), and selection (Select) over
// float64 samples, with exact — not approximate — empirical quantiles.
//
// The structure is a size-augmented treap over *distinct* values with a
// multiplicity per node, stored in an index-addressed slab with a
// freelist, so a steady-state insert+evict cycle (the sliding-window
// pattern every path monitor runs per sample) allocates nothing once the
// slab has grown to the window size.
//
// Why a treap and not a literal Fenwick/BIT: a BIT needs a bounded,
// pre-discretized universe, but bandwidth samples arrive online from an
// unbounded continuous domain; an order-statistic tree provides the same
// O(log n) prefix-count/selection over dynamic keys. Every query answer
// depends only on the multiset *contents* (never on tree shape), so
// results are bit-identical to a sorted slice's, and the rotations'
// randomness comes from a deterministic splitmix64 sequence — the
// structure is fully reproducible under a fixed operation sequence.
package quantile

import "math"

// nilIdx marks an absent child.
const nilIdx = int32(-1)

type node struct {
	val         float64
	prio        uint64
	left, right int32
	dups        int32 // multiplicity of val at this node
	size        int32 // total multiplicity in the subtree
}

// Multiset is an order-statistic multiset of float64 samples. The zero
// value is NOT ready to use; call New (or Init).
type Multiset struct {
	nodes []node
	free  []int32
	root  int32
	seed  uint64
	stack []int32 // reusable traversal scratch (AppendSorted)
}

// Init resets m to empty, keeping no prior state. sizeHint pre-sizes the
// node slab.
func (m *Multiset) Init(sizeHint int) {
	if cap(m.nodes) < sizeHint {
		m.nodes = make([]node, 0, sizeHint)
	} else {
		m.nodes = m.nodes[:0]
	}
	m.free = m.free[:0]
	m.root = nilIdx
	m.seed = 0 // the splitmix64 stream is deterministic from here
}

// Len returns the total number of stored values (with multiplicity).
func (m *Multiset) Len() int {
	if m.root == nilIdx {
		return 0
	}
	return int(m.nodes[m.root].size)
}

// nextPrio advances the deterministic splitmix64 sequence.
func (m *Multiset) nextPrio() uint64 {
	m.seed += 0x9e3779b97f4a7c15
	z := m.seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (m *Multiset) alloc(x float64) int32 {
	var i int32
	if n := len(m.free); n > 0 {
		i = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		m.nodes = append(m.nodes, node{})
		i = int32(len(m.nodes) - 1)
	}
	m.nodes[i] = node{val: x, prio: m.nextPrio(), left: nilIdx, right: nilIdx, dups: 1, size: 1}
	return i
}

func (m *Multiset) freeNode(i int32) { m.free = append(m.free, i) }

func (m *Multiset) update(h int32) {
	n := &m.nodes[h]
	n.size = n.dups
	if n.left != nilIdx {
		n.size += m.nodes[n.left].size
	}
	if n.right != nilIdx {
		n.size += m.nodes[n.right].size
	}
}

func (m *Multiset) rotRight(h int32) int32 {
	l := m.nodes[h].left
	m.nodes[h].left = m.nodes[l].right
	m.nodes[l].right = h
	m.update(h)
	m.update(l)
	return l
}

func (m *Multiset) rotLeft(h int32) int32 {
	r := m.nodes[h].right
	m.nodes[h].right = m.nodes[r].left
	m.nodes[r].left = h
	m.update(h)
	m.update(r)
	return r
}

// Insert adds one occurrence of x. NaN panics (it breaks ordering);
// callers filter. -0.0 is normalized to +0.0, which is arithmetically
// transparent to every consumer (ranks, folds, and quantile reads treat
// the zeros identically).
func (m *Multiset) Insert(x float64) {
	if math.IsNaN(x) {
		panic("quantile: Insert(NaN)")
	}
	if x == 0 {
		x = 0
	}
	m.root = m.insert(m.root, x)
}

func (m *Multiset) insert(h int32, x float64) int32 {
	if h == nilIdx {
		return m.alloc(x)
	}
	v := m.nodes[h].val
	switch {
	case x == v:
		m.nodes[h].dups++
		m.nodes[h].size++
	case x < v:
		l := m.insert(m.nodes[h].left, x)
		m.nodes[h].left = l
		m.update(h)
		if m.nodes[l].prio > m.nodes[h].prio {
			h = m.rotRight(h)
		}
	default:
		r := m.insert(m.nodes[h].right, x)
		m.nodes[h].right = r
		m.update(h)
		if m.nodes[r].prio > m.nodes[h].prio {
			h = m.rotLeft(h)
		}
	}
	return h
}

// Delete removes one occurrence of x (exact float64 equality, with -0.0
// equal to +0.0); it reports whether an occurrence existed.
func (m *Multiset) Delete(x float64) bool {
	if x == 0 {
		x = 0
	}
	var ok bool
	m.root, ok = m.delete(m.root, x)
	return ok
}

func (m *Multiset) delete(h int32, x float64) (int32, bool) {
	if h == nilIdx {
		return nilIdx, false
	}
	v := m.nodes[h].val
	switch {
	case x < v:
		l, ok := m.delete(m.nodes[h].left, x)
		m.nodes[h].left = l
		if ok {
			m.update(h)
		}
		return h, ok
	case x > v:
		r, ok := m.delete(m.nodes[h].right, x)
		m.nodes[h].right = r
		if ok {
			m.update(h)
		}
		return h, ok
	}
	if m.nodes[h].dups > 1 {
		m.nodes[h].dups--
		m.nodes[h].size--
		return h, true
	}
	return m.removeRoot(h), true
}

// removeRoot deletes node h (dups already 1) by rotating it down along
// the higher-priority child until it is a leaf.
func (m *Multiset) removeRoot(h int32) int32 {
	l, r := m.nodes[h].left, m.nodes[h].right
	if l == nilIdx && r == nilIdx {
		m.freeNode(h)
		return nilIdx
	}
	if l == nilIdx || (r != nilIdx && m.nodes[r].prio > m.nodes[l].prio) {
		h2 := m.rotLeft(h)
		m.nodes[h2].left = m.removeRoot(m.nodes[h2].left)
		m.update(h2)
		return h2
	}
	h2 := m.rotRight(h)
	m.nodes[h2].right = m.removeRoot(m.nodes[h2].right)
	m.update(h2)
	return h2
}

// CountLE returns the number of stored values ≤ x (the empirical CDF
// numerator). NaN returns 0.
func (m *Multiset) CountLE(x float64) int {
	count := 0
	cur := m.root
	for cur != nilIdx {
		n := &m.nodes[cur]
		if x < n.val {
			cur = n.left
			continue
		}
		count += int(n.dups)
		if n.left != nilIdx {
			count += int(m.nodes[n.left].size)
		}
		cur = n.right
	}
	return count
}

// Select returns the k-th smallest stored value, 0-based (the order
// statistic a sorted slice would hold at index k). k outside [0, Len())
// panics.
func (m *Multiset) Select(k int) float64 {
	if k < 0 || k >= m.Len() {
		panic("quantile: Select out of range")
	}
	cur := m.root
	for {
		n := &m.nodes[cur]
		ls := 0
		if n.left != nilIdx {
			ls = int(m.nodes[n.left].size)
		}
		if k < ls {
			cur = n.left
			continue
		}
		k -= ls
		if k < int(n.dups) {
			return n.val
		}
		k -= int(n.dups)
		cur = n.right
	}
}

// Min returns the smallest stored value; empty panics.
func (m *Multiset) Min() float64 {
	if m.root == nilIdx {
		panic("quantile: Min of empty multiset")
	}
	cur := m.root
	for m.nodes[cur].left != nilIdx {
		cur = m.nodes[cur].left
	}
	return m.nodes[cur].val
}

// Max returns the largest stored value; empty panics.
func (m *Multiset) Max() float64 {
	if m.root == nilIdx {
		panic("quantile: Max of empty multiset")
	}
	cur := m.root
	for m.nodes[cur].right != nilIdx {
		cur = m.nodes[cur].right
	}
	return m.nodes[cur].val
}

// AppendSorted appends every stored value (with multiplicity) to dst in
// ascending order and returns the extended slice. The traversal reuses
// the multiset's internal stack; it does not allocate beyond dst's growth.
func (m *Multiset) AppendSorted(dst []float64) []float64 {
	m.stack = m.stack[:0]
	cur := m.root
	for cur != nilIdx || len(m.stack) > 0 {
		for cur != nilIdx {
			m.stack = append(m.stack, cur)
			cur = m.nodes[cur].left
		}
		cur = m.stack[len(m.stack)-1]
		m.stack = m.stack[:len(m.stack)-1]
		n := &m.nodes[cur]
		for d := int32(0); d < n.dups; d++ {
			dst = append(dst, n.val)
		}
		cur = n.right
	}
	return dst
}

// Iter walks a Multiset in ascending value order, one distinct value (with
// its multiplicity) per step. The zero value is ready after Reset. An Iter
// keeps its stack between Resets, so a long-lived Iter makes repeated
// walks allocation-free; the multiset must not be mutated mid-walk.
type Iter struct {
	m     *Multiset
	stack []int32
	cur   int32
}

// Reset points the iterator at the smallest value of ms.
func (it *Iter) Reset(ms *Multiset) {
	it.m = ms
	it.stack = it.stack[:0]
	it.cur = ms.root
}

// Next returns the next distinct value and its multiplicity; ok reports
// whether a value was available.
func (it *Iter) Next() (val float64, count int, ok bool) {
	m := it.m
	for it.cur != nilIdx || len(it.stack) > 0 {
		for it.cur != nilIdx {
			it.stack = append(it.stack, it.cur)
			it.cur = m.nodes[it.cur].left
		}
		h := it.stack[len(it.stack)-1]
		it.stack = it.stack[:len(it.stack)-1]
		n := &m.nodes[h]
		it.cur = n.right
		return n.val, int(n.dups), true
	}
	return 0, 0, false
}
