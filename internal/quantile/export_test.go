package quantile

// New returns an empty multiset with capacity for sizeHint values
// pre-allocated (0 is fine).
func New(sizeHint int) *Multiset {
	m := &Multiset{}
	m.Init(sizeHint)
	return m
}
