package shard

import (
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
)

// NumStreams returns the number of placed streams.
func (p *Plane) NumStreams() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.owner)
}

// Owns reports whether the shard currently owns global stream g (ghost
// slots left by out-migration do not count). Shard-context only.
func (sh *Shard) Owns(g int) bool {
	_, ok := sh.LocalIndex(g)
	return ok
}

// Paths returns the shard's current path set.
func (sh *Shard) Paths() []sched.PathService { return sh.paths }

// Arena returns the shard's packet arena (may be nil).
func (sh *Shard) Arena() *simnet.Arena { return sh.arena }
