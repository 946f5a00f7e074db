package simnet

// BaseLossProb returns the configured (healthy) loss probability.
func (l *Link) BaseLossProb() float64 { return l.cfg.LossProb }

// Paths returns the registered paths in creation order.
func (n *Network) Paths() []*Path { return n.paths }

// Links returns the registered links in creation order.
func (n *Network) Links() []*Link { return n.links }

// Path returns the path the packet was sent on (nil before Path.Send).
func (p *Packet) Path() *Path { return p.path }

// Run advances the clock by ticks steps, invoking onTick (if non-nil)
// before each step.
func (n *Network) Run(ticks int, onTick func(tick int64)) {
	for i := 0; i < ticks; i++ {
		if onTick != nil {
			onTick(n.tick)
		}
		n.Step()
	}
}

// CapacityScale returns the current runtime capacity multiplier.
func (l *Link) CapacityScale() float64 { return l.capScale }
