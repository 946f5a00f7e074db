package pgos

import (
	"iqpaths/internal/stats"
	"iqpaths/internal/stream"
)

// Satisfied checks the active mapping against fresh distributions: every
// accepted guaranteed stream must still clear its guarantee on its
// allocation. This is the "previous scheduling vectors don't satisfy
// current CDF" remap trigger of Fig. 7 line 2.
func (m *Mapping) Satisfied(streams []*stream.Stream, cdfs []stats.Distribution, slack float64) bool {
	var sc satisfyScratch
	return m.satisfiedWith(streams, cdfs, slack, &sc)
}
