package gridftp

// Verify checks a received payload against the deterministic pattern,
// returning the first mismatching offset or -1.
func (s *Store) Verify(rec, c int, buf []byte) int {
	base := rec*31 + c*17
	for k := range buf {
		if buf[k] != byte((base+k)%251) {
			return k
		}
	}
	return -1
}
